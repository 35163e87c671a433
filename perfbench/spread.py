#!/usr/bin/env python3
"""Runs perfbench over several seeds and reports each metric's spread.

For every workload and end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles as a share of
the median, next to the metric's bound in BENCHMARK.json. A spread above a
third of the bound is marked '!', above the bound 'FAIL'.

With --heldout SEED it then runs that seed once per workload and checks
each end-to-end metric lands within the bound of the other seeds' median,
so a claim made while tuning on some seeds can be checked on one that was
not used.

Run from the repository root:

  python3 perfbench/spread.py --seeds 1-10 --seconds 20
  python3 perfbench/spread.py --seeds 1-5 --workloads fleet --heldout 99
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated workloads (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--heldout", type=int, help="seed to check against the others' bounds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    worst = "ok"
    for w in workloads:
        runs[w] = [run_once(w, s, seconds) for s in parse_seeds(args.seeds)]
        print(f"{w}: {len(runs[w])} runs")
        for name in runs[w][0]:
            values = [r[name] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                if spread > bound:
                    mark, worst = "FAIL", "FAIL"
                elif spread > bound / 3:
                    mark = "!"
            btxt = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:36s} median {med:14.6g}  spread {spread:7.4f}  {btxt} {mark}")
        if args.heldout is not None:
            held = run_once(w, args.heldout, seconds)
            for name, bound in bounds.items():
                if name not in held:
                    continue
                med = statistics.median(r[name] for r in runs[w])
                off = abs(held[name] - med) / med if med else 0.0
                ok = off <= bound
                worst = worst if ok else "FAIL"
                print(f"  held-out seed {args.heldout}: {name:28s} {held[name]:14.6g} off {off:7.4f} {'ok' if ok else 'OUTSIDE bound'}")
    print(worst)
    return 0 if worst == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
