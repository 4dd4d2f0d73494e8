#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py <workload> [--runs 10] [--first-seed 1]

The spread is the distance between the first and third quartile of the
runs' values (statistics.quantiles, n=4) as a share of their median, the
figure BENCHMARK.json's bounds are checked against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: %d of %d operations failed"
                  % (seed, result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, {k: float("%.6g" % v["value"])
                                      for k, v in result["metrics"].items()}),
              flush=True)
    print("%-20s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in sorted(values.items()):
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        print("%-20s %14.6g %8.4f %8s" % (name, q2, (q3 - q1) / q2,
                                          bounds.get(name, "-")))


if __name__ == "__main__":
    main()
