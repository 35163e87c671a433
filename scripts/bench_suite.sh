# Single source of truth for the recorded benchmark suite. Sourced by
# bench_record.sh (which runs the benchmarks and writes the trajectory
# files) and bench_gate.sh (which requires every listed benchmark to have
# run AND to appear in the committed file), so the two can no longer
# drift: the gate previously kept its own copy of this list and required
# BenchmarkAnalyzer while the recorder never captured it.
#
# SHMLOG_BENCHES cover the probe pair and the shared-memory log hot paths
# (recorded to BENCH_shmlog.json); AGENT_BENCHES cover the analyzer and
# fleet-agent paths (recorded to BENCH_agent.json), including the live
# drain's two layers on their own: the cursor's read and the incremental
# fold, each with an entries/op figure for its cost per entry.

SHMLOG_BENCHES=(
    BenchmarkProbePair
    BenchmarkProbePairVirtual
    BenchmarkAppendParallel
    BenchmarkAppendSampled
    BenchmarkLogWriteTo
    BenchmarkLogRead
)

# The sampling fast path must keep suppressed events cheap: the gate
# requires BenchmarkAppendSampled/p64 to cost (ns/op, median of five) at
# most this many times .../off, the same pairs with recording inactive,
# in the same run. On 2 vCPUs p64 reads 4.4-6.5x off; suppressed events
# sent through the reentrancy guard and a slot reservation read 42-53x.
SAMPLING_GATE_MAX="${SAMPLING_GATE_MAX:-15}"

AGENT_BENCHES=(
    BenchmarkAnalyzer
    BenchmarkAnalyzerParallel
    BenchmarkAgentScrape
    BenchmarkAgentScrapeSymbols
    BenchmarkCursorNext
    BenchmarkIncrementalFeedAll
)

# STORE_BENCHES cover the profile history store (recorded to
# BENCH_store.json): segment ingest (sort + block encode + manifest
# commit) and windowed time-travel queries over a leveled store.
STORE_BENCHES=(
    BenchmarkStoreIngest
    BenchmarkStoreQuery
)

# bench_pattern NAME... -> anchored go-test -bench regex for the names.
bench_pattern() {
    local IFS='|'
    printf '^(%s)$' "$*"
}

# Overhead gauntlet (BENCH_overhead.json): the stress-personality sweep
# recorded by `teeperf stress -bench`. The personality and period lists
# mirror the defaults baked into internal/stress; the gate requires every
# personality x period ratio row plus the native baselines, whatever shard
# counts the recording host could measure (single-core hosts skip s>1).
STRESS_PERSONALITIES=(fanout recursion churn storm alloc mixed)
OVERHEAD_PERIODS=(1 8 64)

OVERHEAD_BENCHES=()
for _pers in "${STRESS_PERSONALITIES[@]}"; do
    OVERHEAD_BENCHES+=("BenchmarkStressOverhead/${_pers}/native")
    for _p in "${OVERHEAD_PERIODS[@]}"; do
        OVERHEAD_BENCHES+=("BenchmarkStressOverhead/${_pers}/p${_p}")
    done
done
unset _pers _p

# Ratio-trajectory gate thresholds: a row fails only when it exceeds BOTH
# the relative and the absolute bound over the committed baseline, so
# near-1.0 rows (alloc, mixed) are not failed by absolute noise and
# large-ratio rows (storm) are not failed by relative noise.
OVERHEAD_GATE_PCT="${OVERHEAD_GATE_PCT:-75}"
OVERHEAD_GATE_SLACK="${OVERHEAD_GATE_SLACK:-1.0}"

# overhead_sweep runs the gauntlet in the short CI mode and emits bench
# lines on stdout (skip notes go to stderr). Used by both bench_record.sh
# (to write BENCH_overhead.json) and bench_gate.sh (to measure the current
# ratios), so the baseline and the gated run are always the same experiment.
overhead_sweep() {
    go run ./cmd/teeperf stress -quick -bench -seed 42 -runs 7 -warmups 2
}
