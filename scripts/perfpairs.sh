#!/usr/bin/env bash
# Runs perfbench on a base commit and on the working tree in interleaved
# pairs, then prints, per workload and end-to-end metric, each side's
# median and quartiles and how many pairs the working tree won.
#
#   bash scripts/perfpairs.sh [-n PAIRS] [-w WORKLOADS] [-s SEED] [-t SECONDS] [-b REV]
#
#   -n  pairs per workload (default 10)
#   -w  comma-separated workloads (default: all in BENCHMARK.json)
#   -s  seed (default 1)
#   -t  seconds per run (default: run_seconds in BENCHMARK.json)
#   -b  base revision (default HEAD, the parent of uncommitted changes)
#
# Run it from the repository root. The base is exported with git archive
# into .bench_build/perfpairs/base-<sha>/ and benchmarked there with its own
# perfbench; raw results go to .bench_build/perfpairs/<workload>.<side>.jsonl.
# Pair i runs the base first when i is odd and the working tree first when
# it is even, so drift in host speed hits both sides alike.
#
# A metric is marked "gain" when the working tree won at least nine tenths
# of the pairs (ties count for neither side) and its median beats the
# base's by more than the base's interquartile range and by more than the
# metric's bound; "worse" when its median is worse than the base's by more
# than the metric's bound. The bound is a fraction of the base median, so a
# metric whose runs barely spread (report_alloc_mb) does not read as a gain
# on a few hundred bytes.
set -euo pipefail

pairs=10 workloads="" seed=1 seconds="" base=HEAD
while getopts "n:w:s:t:b:" opt; do
    case "$opt" in
    n) pairs=$OPTARG ;;
    w) workloads=$OPTARG ;;
    s) seed=$OPTARG ;;
    t) seconds=$OPTARG ;;
    b) base=$OPTARG ;;
    *) sed -n '2,13p' "$0" >&2; exit 2 ;;
    esac
done

root=$(pwd)
[ -f "$root/BENCHMARK.json" ] || { echo "perfpairs: run from the repository root" >&2; exit 2; }
json() { python3 -c "import json,sys; b=json.load(open('BENCHMARK.json')); print($1)"; }
[ -n "$workloads" ] || workloads=$(json "','.join(w['name'] for w in b['workloads'])")
[ -n "$seconds" ] || seconds=$(json "b['run_seconds']")

sha=$(git rev-parse --short "$base")
out="$root/.bench_build/perfpairs"
basedir="$out/base-$sha"
mkdir -p "$out"
if [ ! -d "$basedir" ]; then
    mkdir -p "$basedir.tmp"
    git archive "$sha" | tar -x -C "$basedir.tmp"
    mv "$basedir.tmp" "$basedir"
fi

run() { # side workload -> appends one JSON line to the side's file
    local dir=$root
    [ "$1" = base ] && dir=$basedir
    (cd "$dir" && bash perfbench/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) |
        tail -n 1 >>"$out/$2.$1.jsonl"
}

IFS=, read -r -a wl <<<"$workloads"
for w in "${wl[@]}"; do
    rm -f "$out/$w.base.jsonl" "$out/$w.change.jsonl"
    for ((i = 1; i <= pairs; i++)); do
        echo "perfpairs: $w pair $i/$pairs (base $sha)" >&2
        if ((i % 2)); then
            run base "$w"
            run change "$w"
        else
            run change "$w"
            run base "$w"
        fi
    done
done

python3 - "$out" "$sha" "${wl[@]}" <<'EOF'
import json, statistics, sys

out, sha, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

for w in workloads:
    sides = {}
    for side in ("base", "change"):
        rows = [json.loads(l) for l in open(f"{out}/{w}.{side}.jsonl") if l.strip()]
        bad = [r for r in rows if not r["correct"] or r["failed"]]
        if bad:
            print(f"{w}: {len(bad)} {side} run(s) failed their checks")
        sides[side] = rows
    n = min(len(sides["base"]), len(sides["change"]))
    print(f"\n{w}: {n} pairs, base {sha} vs working tree")
    print(f"  {'metric':24} {'base median [q1-q3]':>30} {'change median [q1-q3]':>30} {'delta':>8} {'wins':>6}")
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in sides["base"][:n]]
        c = [r["metrics"][name]["value"] for r in sides["change"][:n]]
        bq, cq = quartiles(b), quartiles(c)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        delta = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        worse = delta if lower else -delta
        gain = wins >= 0.9 * n and abs(cq[1] - bq[1]) > bq[2] - bq[0] and -worse > m["bound"]
        verdict = "gain" if gain else "worse" if worse > m["bound"] else ""
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"
        print(f"  {name:24} {fmt(bq):>30} {fmt(cq):>30} {delta:+8.1%} {wins:>3}/{n} {verdict}")
EOF
