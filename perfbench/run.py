#!/usr/bin/env python3
"""Builds and runs the SVGIC benchmark (one workload, one seed).

    python3 perfbench/run.py --workload serve-burst --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
`perfbench` binary (perfbench/CMakeLists.txt compiles the library sources
under src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs rebuild incrementally. Durability files go to a scratch directory
under the build directory and are removed afterwards.

The binary prints detail lines ("# ...") and, last, one JSON line
{"correct", "attempted", "failed", "metrics"}. This wrapper checks that the
metric names and units are exactly those BENCHMARK.json declares (end_to_end
with --trace 0, per_layer with --trace 1), re-prints that line last, and
exits non-zero when the build, the run or any check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_SECONDS = 170
BUILD_LIMIT_SECONDS = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step; its output goes to stderr, stdout stays clean."""
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stdout.decode(errors="replace")[-4000:])
        fail("build step failed: " + " ".join(cmd))


def build(build_dir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    deadline = time.monotonic() + BUILD_LIMIT_SECONDS
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_LIMIT_SECONDS)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs], max(1.0, deadline - time.monotonic()))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-burst", "serve-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the build or the benchmark binary before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    expected = expected_metrics(args.trace)
    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_root, "perfbench")
    binary = build(build_dir)

    data_dir = os.path.join(build_dir, "data-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_LIMIT_SECONDS,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_LIMIT_SECONDS)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        fail("perfbench printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("the last line is not a JSON result (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    problems = []
    if got != expected:
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                        "unit mismatch %s" % (
                            sorted(set(expected) - set(got)),
                            sorted(set(got) - set(expected)),
                            sorted(n for n in set(got) & set(expected)
                                   if got[n] != expected[n])))
    if args.trace == 0:
        zero = sorted(n for n, m in result["metrics"].items() if not m["value"])
        if zero:
            problems.append("end-to-end metrics read 0: %s" % zero)
    if proc.returncode != 0 or not result.get("correct"):
        problems.append("correctness checks failed (exit %d)" % proc.returncode)
    for problem in problems:
        print("# PROBLEM: " + problem)
    print(json.dumps(result))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
