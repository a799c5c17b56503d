#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Runs ``run.py --trace 0`` once per seed on each workload, one run at a
time, and prints for every end-to-end metric its median over the runs
and the distance between its first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the bound ``BENCHMARK.json`` fixes for it::

    python3 perfbench/spread.py --seeds 101-110 [--workload fig7-grid ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()[-1]
            result = json.loads(out)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, bound in bounds.items():
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            share = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"  {name:<14} median {med:>12.6g}  spread {share:7.2%}"
                  f"  bound {bound:.0%}  ({share / bound:4.0%} of bound)")
            if args.verbose:
                print("    " + " ".join(f"{v:.4g}" for v in values[name]))
    print(f"largest spread, as a share of its bound (setup_s aside): {worst:.0%}")


if __name__ == "__main__":
    main()
