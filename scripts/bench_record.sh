#!/usr/bin/env bash
# Record the perf trajectory: run the recorded benchmark suite (defined
# once in bench_suite.sh) and write the results as BENCH_shmlog.json (log
# hot paths), BENCH_agent.json (analyzer + fleet agent), BENCH_store.json
# (profile history store ingest/query) and BENCH_overhead.json (the
# stress-personality overhead gauntlet). The go-test benchmark files run
# each benchmark five times (-count=5) and benchjson folds the repeats into
# one row of medians, so no committed row is a single draw. Numbers are
# machine-dependent — regenerate on quiet hardware and commit the files;
# scripts/bench_gate.sh checks all but the last only for existence and
# gates BENCH_overhead.json's ratio trajectory.
#
#   BENCHTIME=1s ./scripts/bench_record.sh    # default 300ms per benchmark
#   ONLY=overhead ./scripts/bench_record.sh   # refresh one file (shmlog|agent|store|overhead)
#   FORCE=1 ./scripts/bench_record.sh         # allow fewer CPUs than the committed file
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/bench_suite.sh

benchtime="${BENCHTIME:-300ms}"
only="${ONLY:-}"

# Pin the measuring host's parallelism into the files: numbers from a
# 1-CPU runner and a 64-way box are different experiments.
ncpu="$(nproc)"
maxprocs="${GOMAXPROCS:-$ncpu}"
meta=(-numcpu "$ncpu" -gomaxprocs "$maxprocs")

wants() { [ -z "$only" ] || [ "$only" = "$1" ]; }

# guard_cpus <file>: refuse to overwrite a trajectory recorded on more
# CPUs with one from fewer — that silently shrinks the shard grid and
# replaces contention measurements with a weaker experiment. FORCE=1
# overrides when the downgrade is intentional (e.g. retiring a big box).
guard_cpus() {
    local file="$1" recorded
    [ -f "$file" ] || return 0
    recorded="$(go run ./scripts/benchjson -meta "$file" | awk -F= '$1=="num_cpu"{print $2}')"
    [ -n "$recorded" ] || return 0
    if [ "$ncpu" -lt "$recorded" ] && [ "${FORCE:-0}" != "1" ]; then
        echo "bench record: refusing to overwrite $file (recorded on ${recorded} CPUs) from a ${ncpu}-CPU host" >&2
        echo "bench record: rerun with FORCE=1 to downgrade deliberately" >&2
        exit 1
    fi
}

if wants shmlog; then
    guard_cpus BENCH_shmlog.json
    go test -run='^$' -bench="$(bench_pattern "${SHMLOG_BENCHES[@]}")" \
        -benchtime="$benchtime" -count=5 . |
        tee /dev/stderr |
        go run ./scripts/benchjson "${meta[@]}" >BENCH_shmlog.json
    echo "wrote BENCH_shmlog.json (${ncpu} CPUs)" >&2
fi

if wants agent; then
    guard_cpus BENCH_agent.json
    go test -run='^$' -bench="$(bench_pattern "${AGENT_BENCHES[@]}")" \
        -benchtime="$benchtime" -count=5 . ./internal/agent |
        tee /dev/stderr |
        go run ./scripts/benchjson "${meta[@]}" >BENCH_agent.json
    echo "wrote BENCH_agent.json (${ncpu} CPUs)" >&2
fi

if wants store; then
    guard_cpus BENCH_store.json
    go test -run='^$' -bench="$(bench_pattern "${STORE_BENCHES[@]}")" \
        -benchtime="$benchtime" -count=5 ./internal/profilestore |
        tee /dev/stderr |
        go run ./scripts/benchjson "${meta[@]}" >BENCH_store.json
    echo "wrote BENCH_store.json (${ncpu} CPUs)" >&2
fi

if wants overhead; then
    guard_cpus BENCH_overhead.json
    # The gauntlet is its own runner (not `go test -bench`): teeperf stress
    # emits bench-format lines so the same benchjson pipeline applies. The
    # quick sweep matches what bench_gate.sh measures in CI, keeping the
    # committed baseline and the gated run the same experiment. Sweep to
    # completion before converting — a concurrent `go run` compile on a
    # small host would perturb the first personality's measurements.
    raw="$(mktemp)"
    trap 'rm -f "$raw"' EXIT
    overhead_sweep >"$raw"
    tee /dev/stderr <"$raw" |
        go run ./scripts/benchjson "${meta[@]}" >BENCH_overhead.json
    echo "wrote BENCH_overhead.json (${ncpu} CPUs)" >&2
fi
