#!/usr/bin/env bash
# Bench-regression gate. Every gated metric prints exactly one
# "bench gate: PASS <metric>" or "bench gate: FAIL <metric>: <reason>"
# line; the first FAIL exits non-zero naming the offending metric.
#
# Modes:
#   bench_gate.sh                # all: suite + overhead
#   bench_gate.sh suite          # existence gate + trajectory-file checks
#                                # + sampling p64/off threshold
#   bench_gate.sh overhead       # run the quick stress sweep three times and
#                                # gate each ratio row's median against
#                                # BENCH_overhead.json
#   bench_gate.sh overhead-compare <baseline.json> <current.json>
#                                # gate two already-recorded trajectories
#                                # (used by the benchjson script test)
#
# The suite gate is an EXISTENCE gate: single-iteration numbers on shared
# CI runners are noise, but a benchmark that silently stopped running
# means a refactor unhooked the perf suite. The two THRESHOLD gates check
# ratios, not absolute times: the sampling p64/off cost and the stress
# instrumented/native overhead ratios are both computed within one run on
# one core, so they survive machine-speed differences. Overhead thresholds
# are env-tunable via OVERHEAD_GATE_PCT / OVERHEAD_GATE_SLACK.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/bench_suite.sh

pass() { echo "bench gate: PASS $*"; }
fail() {
    echo "bench gate: FAIL $*" >&2
    exit 1
}

# median_ns <go test output> <benchmark>: the median ns/op of the
# benchmark's result lines (the -GOMAXPROCS name suffix is absent when
# GOMAXPROCS=1); empty when it has none.
median_ns() {
    awk -v row="^$2(-[0-9]+)?\$" '$1 ~ row {print $3}' <<<"$1" |
        sort -g | awk '{v[NR] = $1} END {if (NR) print v[int((NR + 1) / 2)]}'
}

gate_suite() {
    local required=("${SHMLOG_BENCHES[@]}" "${AGENT_BENCHES[@]}" "${STORE_BENCHES[@]}")
    local out missing=0
    out="$(mktemp)"
    # shellcheck disable=SC2064 # expand $out now
    trap "rm -f '$out'" RETURN

    # -run matches nothing so only benchmarks execute; -json gives a
    # stable, machine-checkable record of which benchmarks actually ran.
    go test -json -run='^$' -bench="$(bench_pattern "${required[@]}")" \
        -benchtime=1x -count=1 ./... >"$out" || {
        grep -E '"Action":"(fail|build-fail)"' "$out" >&2 || true
        fail "suite benchmarks: benchmark run failed"
    }

    local b
    for b in "${required[@]}"; do
        # A benchmark that ran emits its name in an Output event — either a
        # result line ("BenchmarkLogWriteTo-8 ...") or, for benchmarks with
        # sub-benchmarks, the bare announcement ("BenchmarkAppendParallel\n")
        # followed by "BenchmarkAppendParallel/g1/k1/s1-8 ..." lines.
        if ! grep -qE "\"Output\":\"${b}(-|/| |\\\\n)" "$out"; then
            echo "bench gate: suite benchmark ${b} did not run" >&2
            missing=1
        fi
    done
    if [ "$missing" -ne 0 ]; then
        fail "suite benchmarks: some did not run (named above)"
    fi
    pass "suite benchmarks: all ${#required[@]} ran"

    # The committed perf-trajectory files must parse and name every
    # benchmark in their half of the suite (scripts/bench_record.sh).
    go run ./scripts/benchjson -check BENCH_shmlog.json "${SHMLOG_BENCHES[@]}" ||
        fail "BENCH_shmlog.json: stale or unparseable (regenerate with scripts/bench_record.sh)"
    pass "BENCH_shmlog.json names all ${#SHMLOG_BENCHES[@]} suite benchmarks"
    go run ./scripts/benchjson -check BENCH_agent.json "${AGENT_BENCHES[@]}" ||
        fail "BENCH_agent.json: stale or unparseable (regenerate with scripts/bench_record.sh)"
    pass "BENCH_agent.json names all ${#AGENT_BENCHES[@]} suite benchmarks"
    go run ./scripts/benchjson -check BENCH_store.json "${STORE_BENCHES[@]}" ||
        fail "BENCH_store.json: stale or unparseable (regenerate with scripts/bench_record.sh)"
    pass "BENCH_store.json names all ${#STORE_BENCHES[@]} suite benchmarks"

    # Sampling-overhead THRESHOLD gate. Absolute ns/op is machine noise,
    # but the ratio of two rows of one run is not: p64 (suppressed pairs
    # plus one recorded pair in 64) and off (the same pairs against an
    # inactive log, nothing recorded) run back to back on the same cores.
    # p64 above SAMPLING_GATE_MAX times off means suppressed events
    # regressed onto the guarded slow path or a slot reservation. The
    # recorded path enters p64 only as 1/64 of its cost, so making
    # recording faster never tightens the gate. Each row is the median of
    # five repeats.
    local ratio_out off p64
    ratio_out="$(go test -run='^$' -bench='^BenchmarkAppendSampled$' \
        -benchtime=200000x -count=5 .)"
    off="$(median_ns "$ratio_out" BenchmarkAppendSampled/off)"
    p64="$(median_ns "$ratio_out" BenchmarkAppendSampled/p64)"
    if [ -z "$off" ] || [ -z "$p64" ]; then
        echo "$ratio_out" >&2
        fail "sampling cost: BenchmarkAppendSampled produced no off/p64 results"
    fi
    if awk -v off="$off" -v p64="$p64" -v max="$SAMPLING_GATE_MAX" 'BEGIN {
        ratio = p64 / off
        printf "bench gate: sampling p64 costs %.1fx off (p64 %.1f ns/op, off %.1f ns/op, ceiling %sx)\n",
            ratio, p64, off, max
        exit !(ratio <= max)
    }'; then
        pass "sampling cost: p64 at or below ${SAMPLING_GATE_MAX}x off"
    else
        fail "sampling cost: p64 above ${SAMPLING_GATE_MAX}x off"
    fi
}

# gate_overhead_compare <baseline.json> <current.json>: threshold-gate the
# overhead ratio rows of current against baseline. benchjson prints one
# "benchjson gate: FAIL <row> ..." line per offending metric on stderr.
gate_overhead_compare() {
    local basefile="$1" curfile="$2"
    if go run ./scripts/benchjson -gate -metric ratio \
        -max-regress "$OVERHEAD_GATE_PCT" -slack "$OVERHEAD_GATE_SLACK" \
        -prefix "BenchmarkStressOverhead/" "$basefile" "$curfile"; then
        pass "overhead ratios: within +${OVERHEAD_GATE_PCT}% (+${OVERHEAD_GATE_SLACK} abs) of ${basefile}"
    else
        fail "overhead ratios: regressed vs ${basefile} (offending rows named above)"
    fi
}

gate_overhead() {
    go run ./scripts/benchjson -check BENCH_overhead.json "${OVERHEAD_BENCHES[@]}" ||
        fail "BENCH_overhead.json: stale or unparseable (regenerate with scripts/bench_record.sh)"
    pass "BENCH_overhead.json names all ${#OVERHEAD_BENCHES[@]} gauntlet rows"

    # Record the host parallelism in the log: single-core runners measure
    # only the s1 half of the shard grid, and the gate compares just the
    # row intersection with the committed baseline.
    echo "bench gate: overhead sweep on $(nproc) CPUs, GOMAXPROCS ${GOMAXPROCS:-$(nproc)}"
    local raw cur
    raw="$(mktemp)"
    cur="$(mktemp)"
    # shellcheck disable=SC2064 # expand now
    trap "rm -f '$raw' '$cur'" RETURN
    # Run the sweep to completion before converting: piping straight into
    # `go run ./scripts/benchjson` would compile benchjson concurrently
    # with the first personality's measurements, which on small runners
    # inflates its ratios. One sweep's ratios spread further than the
    # bounds allow on a 2-vCPU host, so the sweep runs three times and
    # benchjson gates each row's median.
    local i
    for i in 1 2 3; do
        overhead_sweep >>"$raw" ||
            fail "overhead sweep: stress run $i of 3 failed"
    done
    go run ./scripts/benchjson <"$raw" >"$cur" ||
        fail "overhead sweep: benchjson conversion failed"
    gate_overhead_compare BENCH_overhead.json "$cur"
}

mode="${1:-all}"
case "$mode" in
all)
    gate_suite
    gate_overhead
    ;;
suite)
    gate_suite
    ;;
overhead)
    gate_overhead
    ;;
overhead-compare)
    [ "$#" -eq 3 ] || fail "usage: bench_gate.sh overhead-compare <baseline.json> <current.json>"
    gate_overhead_compare "$2" "$3"
    ;;
*)
    fail "unknown mode '$mode' (want: all | suite | overhead | overhead-compare <base> <cur>)"
    ;;
esac
