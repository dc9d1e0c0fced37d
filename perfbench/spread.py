#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed (1, 2, ...) for each
workload, in one or more sets of the same code. The sets are interleaved:
each seed runs every workload in set 1, then in set 2, and so on, so host
drift falls on every set alike. For each set it prints, per metric, the
median, the quartiles and the quartile distance as a share of the median,
next to the metric's bound. With two or more sets it also prints how far
each later set's median is worse than the first set's. Run from the
repository root:

    python3 perfbench/spread.py --seeds 10 --sets 2 [--workloads paper-sweep,...]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(bench, name, seed):
    cmd = bench["command"] + [
        "--workload", name, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{name} seed {seed}: outputs failed their check")
    return {m: v["value"] for m, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # values[name][set][metric] -> one value per seed
    values = {n: [{} for _ in range(args.sets)] for n in names}
    for seed in range(1, args.seeds + 1):
        for k in range(args.sets):
            for name in names:
                got = run(bench, name, seed)
                for metric, v in got.items():
                    values[name][k].setdefault(metric, []).append(v)
                print(f"{name} set {k + 1} seed {seed}: " + " ".join(
                    f"{m}={v:.6g}" for m, v in got.items()), flush=True)

    worst = (0.0, "")
    for name in names:
        print(f"== {name}: {args.seeds} seeds x {args.sets} sets")
        for metric, m in metrics.items():
            bound = m["bound"]
            medians = []
            for k in range(args.sets):
                vs = values[name][k][metric]
                med = statistics.median(vs)
                q1, _, q3 = statistics.quantiles(vs, n=4)
                share = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                worst = max(worst, (share / bound, f"{name}/{metric} spread, set {k + 1}"))
                print(f"   {metric:<14} set {k + 1} median {med:<12.6g} q1 {q1:<12.6g} "
                      f"q3 {q3:<12.6g} iqr/median {share:.4f}  bound {bound}")
            for k in range(1, args.sets):
                # How much worse set k+1's median is than set 1's.
                change = medians[k] / medians[0] - 1 if medians[0] else 0.0
                worse = change if m["better"] == "lower" else -change
                worst = max(worst, (worse / bound, f"{name}/{metric} set {k + 1} vs set 1"))
                print(f"   {metric:<14} set {k + 1} vs set 1: median {change:+.4f}, "
                      f"worse by {max(worse, 0.0):.4f}  bound {bound}")
    print(f"largest spread or set-to-set worsening as a share of its bound: "
          f"{worst[0]:.3f} ({worst[1]})")


if __name__ == "__main__":
    main()
