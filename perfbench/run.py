#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload http|syscall|bytecode --seed N \
        --seconds S --trace 0|1

Run from the root of the checkout. The build goes to .bench_build/perfbench
(configured on first use, rebuilt incrementally after). Build output goes to
stderr; the benchmark's result is the last line of standard output. Exits
non-zero, printing no result, when the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds perfbench; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "perfbench"])
    for cmd in steps:
        # Build chatter must not reach stdout, whose last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    spans = os.path.join(ROOT, ".bench_build", "spans")
    result = subprocess.run([BINARY] + sys.argv[1:] + ["--span-dir", spans])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
