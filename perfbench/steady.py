#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics.

    python3 perfbench/steady.py --seed N [--runs 10] [--vary-seed]
                                [--workload W ...] [--seconds S]
                                [--save FILE] [--compare FILE]

Runs each workload --runs times through run.py (one process per run)
and prints, for every end-to-end metric in BENCHMARK.json, the median,
the quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median
and that spread against the metric's bound. All runs use --seed, so a
claim can be checked on a seed that was not used while the change was
written; --vary-seed uses seeds N, N+1, ... instead. --save writes the
values; --compare FILE prints how far each median moved from a saved
set, in the worse direction, against the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"steady: {workload} seed {seed} failed its checks")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--vary-seed", action="store_true")
    p.add_argument("--workload", action="append",
                   help="default: every workload in BENCHMARK.json")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--save")
    p.add_argument("--compare")
    args = p.parse_args()

    metrics = bench["end_to_end"]
    values = {}
    for w in args.workload or names:
        values[w] = {m["name"]: [] for m in metrics}
        failed_share = set()
        for i in range(args.runs):
            seed = args.seed + i if args.vary_seed else args.seed
            r = run(w, seed, args.seconds)
            failed_share.add(r["failed"] / r["attempted"])
            for m in metrics:
                values[w][m["name"]].append(r["metrics"][m["name"]]["value"])
            print(f"{w} run {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)
        print(f"\n{w}: failed share {sorted(failed_share)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for m in metrics:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            verdict = ("ok" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"  {m['name']:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {m['bound']:6.2f}  {verdict}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f)
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
        print("\nmedian moved, worse direction positive (share of earlier median):")
        for w, per in values.items():
            for m in metrics:
                if m["name"] not in before.get(w, {}):
                    continue
                a = statistics.median(before[w][m["name"]])
                b = statistics.median(per[m["name"]])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                print(f"  {w:18s} {m['name']:16s} {worse:+8.3f}  bound "
                      f"{m['bound']:.2f}  {flag}")


if __name__ == "__main__":
    main()
