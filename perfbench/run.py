#!/usr/bin/env python3
"""Planner benchmark: builds perfbench from the checkout's sources, runs one workload.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build lives in .bench_build/perfbench; traced
runs also write their spans to .bench_build/perfbench/spans-<workload>.tsv. The last
line of stdout is the result object; build output and the human-readable summary go
to stderr. Exits non-zero when the build fails, a check fails, or the run overruns.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve-zipf", "search-cold", "budget-hybrid")
# A run must end within 180 s; set-up, checks and process start fit in the margin.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then rebuilds incrementally. Returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run(command):
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)  # BENCHMARK.json's run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        return run([os.path.join(BUILD, "perfbench_selftest")])
    return run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--spans-out", os.path.join(BUILD, "spans-%s.tsv" % args.workload)])


if __name__ == "__main__":
    sys.exit(main())
