#!/usr/bin/env python3
"""Build glrbench from this checkout and run one workload.

Configures benchmark/ (which compiles the simulator library from ../src)
into .bench_build/, builds it, runs `glrbench run` (--trace 0: end-to-end
metrics) or `glrbench trace` (--trace 1: per-layer metrics) on one
workload, and prints the metrics BENCHMARK.json lists for that mode as the
last line of stdout:

  {"correct": true, "attempted": 38, "failed": 0, "metrics": {...}}

Usage:
  python3 benchmark/run.py --workload golden --seed 1 --seconds 20 --trace 0

Exits non-zero, without that line, if the build fails or glrbench writes
no result; exits non-zero after printing it if any run failed a check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configure (first time with Ninja when available) and build."""
    configure = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    mode = "trace" if args.trace else "run"

    try:
        build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    out = BUILD / "results" / f"{mode}-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(BUILD / "glrbench"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: glrbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if not out.exists():
        print(f"run.py: glrbench exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1

    result = json.loads(out.read_text())
    metrics = {}
    for m in wanted:
        # BENCHMARK.json must agree with glrbench's own metric table.
        got = result["metrics"].get(m["name"])
        agrees = (got is not None and got["value"] is not None and
                  all(got[k] == m[k] for k in m if k != "name"))
        if not agrees:
            print(f"run.py: glrbench's {m['name']} is missing or does not "
                  f"match BENCHMARK.json: {got}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"] and result["valid"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if proc.returncode == 0 and correct else 1


if __name__ == "__main__":
    sys.exit(main())
