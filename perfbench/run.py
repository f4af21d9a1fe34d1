#!/usr/bin/env python3
"""Builds the benchmark program (edgebench) from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each call configures and builds
perfbench/ (the library sources in src/ plus edgebench.cc) into
.bench_build/perfbench; after the first call the build is incremental.
edgebench's stdout passes through unchanged, so its last line is the
result JSON. Exits non-zero, without a result, when the sources are
missing or the build fails; with edgebench's exit code otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "edgebench")
WORKLOADS = ("crowd_gs", "tenant_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("error: timed out: " + " ".join(cmd), file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: library sources (src/) not found under " + ROOT,
              file=sys.stderr)
        return False
    # Configure every time: it is quick on an existing tree, and it fails
    # loudly on a build tree that belongs to another checkout instead of
    # letting a stale binary run.
    return (run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) and
            run_checked(["cmake", "--build", BUILD_DIR, "-j", "4"],
                        BUILD_TIMEOUT_S))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: edgebench exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        sys.stdout.write(out)
        print("error: edgebench printed no result line", file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
