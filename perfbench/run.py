#!/usr/bin/env python3
"""Build and run the cellstream pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the repository's src/)
into .bench_build/perfbench under the checkout root, then runs one
benchmark process.  The last line of standard output is the result JSON,
with each metric's unit taken from BENCHMARK.json; build output goes to
standard error.  Traced runs write their spans to
.bench_build/traces/.  Work counters are kept per build in
.bench_build/counters/ so every run of one build is checked against the
first run that did the same work.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "pipeline_bench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", "4", "--target", "pipeline_bench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def binary_digest():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def with_units(line, trace):
    """The binary's result line, each metric given its BENCHMARK.json unit.
    The binary must report exactly the metrics the spec lists for the mode."""
    with open(SPEC) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    result = json.loads(line)
    values = result["metrics"]
    if set(values) != set(units):
        sys.exit("perfbench: metrics %s do not match BENCHMARK.json's %s"
                 % (sorted(values), sorted(units)))
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--graph-seed", type=int, default=1,
                        help="tree-search graph set (default 1: DagGen seeds 1-8)")
    args = parser.parse_args()

    build()
    command = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--graph-seed", str(args.graph_seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--counter-store", os.path.join(BUILD_ROOT, "counters", binary_digest()),
    ]
    if args.trace == "1":
        name = "%s-seed%d-graph%d.json" % (args.workload, args.seed, args.graph_seed)
        command += ["--trace-out", os.path.join(BUILD_ROOT, "traces", name)]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if run.returncode:
        sys.exit(run.returncode)
    print(with_units(run.stdout.strip().splitlines()[-1], args.trace))


if __name__ == "__main__":
    main()
