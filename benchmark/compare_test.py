#!/usr/bin/env python3
"""Checks `glrbench compare` verdicts on synthetic result files.

Usage:
  python3 benchmark/compare_test.py .bench_build/glrbench

Exits 0 when every case reads as expected, 1 otherwise.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def result(metrics, mode="run"):
    """A minimal valid result file body with the given metric values."""
    return {
        "schema": "glrbench/1", "mode": mode, "workload": "golden",
        "valid": True, "invalid_reason": "",
        "metrics": {name: {"value": v, "unit": "s", "better": "lower",
                           "bound": bound, "floor": 0.0}
                    for name, (v, bound) in metrics.items()},
    }


def verdicts(glrbench, tmp, a_values, b_values, bound=0.25, mode="run"):
    """Runs compare on one metric; returns (verdict, exit code)."""
    files = {"A": [], "B": []}
    for side, values in (("A", a_values), ("B", b_values)):
        for i, v in enumerate(values):
            path = Path(tmp) / f"{side}{i}.json"
            path.write_text(json.dumps(result({"wall_s": (v, bound)}, mode)))
            files[side].append(str(path))
    proc = subprocess.run([glrbench, "compare", *files["A"], "--",
                           *files["B"]], capture_output=True, text=True)
    for f in files["A"] + files["B"]:
        Path(f).unlink()
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.startswith("golden ")]
    if len(rows) != 1:
        raise RuntimeError(f"expected one row, got:\n{proc.stdout}")
    return rows[0][-1], proc.returncode


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    glrbench = sys.argv[1]
    steady = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    cases = [
        ("one pair, B faster", [1.0], [0.7], 0.25, "run",
         ("unresolved", 0)),
        ("nine pairs, every B faster", steady[:9],
         [v * 0.7 for v in steady[:9]], 0.25, "run", ("unresolved", 0)),
        ("ten pairs, every B faster", steady, [v * 0.7 for v in steady],
         0.25, "run", ("improved", 0)),
        ("ten pairs, same runs", steady, list(reversed(steady)), 0.25, "run",
         ("unchanged", 0)),
        ("ten pairs, B 50% slower", steady, [v * 1.5 for v in steady], 0.25,
         "run", ("regressed", 1)),
        ("one pair, B 50% slower", [1.0], [1.5], 0.25, "run",
         ("regressed", 1)),
        ("spread above the bound", steady, [v * 0.99 for v in steady], 0.005,
         "run", ("unresolved", 0)),
        ("exact count changed", [5.0, 5.0], [4.0, 4.0], None, "trace",
         ("improved", 0)),
        ("unbounded, too few pairs", [1.0, 1.1], [0.8, 0.9], None, "trace",
         ("unresolved", 0)),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, a, b, bound, mode, want in cases:
            got = verdicts(glrbench, tmp, a, b, bound, mode)
            ok = got == want
            failed += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}: {got[0]} (exit {got[1]})"
                  + ("" if ok else f", expected {want[0]} (exit {want[1]})"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
