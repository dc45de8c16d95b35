#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

For each workload and two seeds it makes two short untraced runs and one
traced run (building first through run.py), and checks that:
  - every run is correct, with zero failed ops, and prints exactly the
    metrics BENCHMARK.json names for its mode;
  - the two runs of one seed attempt the same ops and make the same number
    of checks;
  - no workload uses more than 2 worker threads or 4 connections.
Exits non-zero on the first violation.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
INFO = re.compile(r"perfbench: workload=(\w+) ops=(\d+) checks=(\d+) "
                  r"threads=(\d+) conns=(\d+)")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {cmd}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    info = [m for m in map(INFO.match, lines) if m]
    if not info:
        sys.exit(f"FAIL {workload} seed {seed}: no perfbench info line")
    return json.loads(lines[-1]), info[-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            counts = []
            for trace in (0, 0, 1):
                result, info = run(workload, seed, trace)
                where = f"{workload} seed {seed} trace {trace}"
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    diff = sorted(set(got.items()) ^
                                  set(expected[trace].items()))
                    sys.exit(f"FAIL {where}: metrics differ from "
                             f"BENCHMARK.json: {diff}")
                if not result["correct"] or result["failed"] != 0:
                    sys.exit(f"FAIL {where}: correct={result['correct']} "
                             f"failed={result['failed']}")
                if result["attempted"] < 1:
                    sys.exit(f"FAIL {where}: no ops attempted")
                if int(info.group(4)) > 2 or int(info.group(5)) > 4:
                    sys.exit(f"FAIL {where}: {info.group(4)} threads, "
                             f"{info.group(5)} connections")
                if trace == 0:
                    counts.append((result["attempted"], info.group(2),
                                   info.group(3)))
            if counts[0] != counts[1]:
                sys.exit(f"FAIL {workload} seed {seed}: op/check counts "
                         f"differ between runs: {counts}")
            print(f"ok {workload} seed {seed}: ops={counts[0][0]} "
                  f"checks={counts[0][2]}")
    print("perfbench test passed")


if __name__ == "__main__":
    main()
