#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (a standalone CMake project over ../src) into
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to stderr. The benchmark's report lines and, last, its one-line JSON result
go to stdout. The metric names are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              cwd=ROOT).returncode
    if not args.workload:
        ap.error("--workload is required")

    proc = subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--golden", os.path.join(ROOT, "perfbench", "golden"),
         "--out", os.path.join(BUILD, "out")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if list(result["metrics"]) != want:
        print("perfbench: metrics %s do not match BENCHMARK.json %s"
              % (list(result["metrics"]), want), file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
