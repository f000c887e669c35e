#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,3] [--seconds S] [--trace 0|1]

For every metric prints the median of the per-seed values and the
interquartile range as a share of that median (the statistic the
benchmark's bounds in BENCHMARK.json are judged against), and fails when a
run is not correct.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", seed, "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if out.returncode != 0 or not result or not result["correct"]:
            print(f"seed {seed}: run failed (exit {out.returncode})", file=sys.stderr)
            return 1
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        print(f"{k:<48} median={med:<12.5g} iqr/median={spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
