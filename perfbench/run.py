#!/usr/bin/env python3
"""Builds and runs the Medes simulator benchmark.

    python3 perfbench/run.py --workload <medes_p2|keepalive|agent_pipeline> \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
simulator libraries and the benchmark binary (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later calls only re-check the build. The binary's
output is passed through unchanged, so the last line of standard output is
the result object. Exits non-zero, without printing a result, when the
simulator sources are missing, the build fails, or the binary fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("medes_p2", "keepalive", "agent_pipeline")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return proc.returncode == 0


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "build.ninja").exists() and not (build_dir / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release", *generator], BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", str(build_dir), "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        log("--seed must be >= 0 and --seconds in [1, 60]")
        return 2

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {root / 'src'}")
        return 2
    build_dir = root / ".bench_build" / "perfbench"
    if not build(bench_dir, build_dir):
        log("build failed")
        return 3

    # The shipped defaults are what is measured: no MEDES_* knob (thread
    # count, kernel pinning, tracing, metrics) leaks in from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEDES_")}
    cmd = [str(build_dir / "medes_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir / f"spans-{args.workload}-{args.seed}.json"
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 4
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        log("benchmark printed no result")
        return 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
