#!/usr/bin/env python3
"""Isolation gate for CI: a loaded neighbour must not blow up alpha's tail.

Usage:
    check_isolation.py --alone A/BENCH_server_loadgen.json
                       --loaded B/BENCH_server_loadgen.json

Both files are vdb_loadgen reports against the same server: --alone from a
run that drove only alpha (`--clients beta=0`), and --loaded from a run
that also drove beta far past its admission cap. The gate fails when
alpha's p99 in the loaded run exceeds MAX_RATIO times the alone run, or
when either report is unreadable or lacks the value.

Only the standard library is used; exit code 0 = pass, 1 = fail.
"""

import argparse
import sys

from check_bench_regression import load_json

KEY = "alpha/p99_ms"
MAX_RATIO = 2.0


def read_value(path):
    """Returns (value, error) for values[KEY] of one loadgen report."""
    report, err = load_json(path)
    if err:
        return None, err
    values = report.get("values") if isinstance(report, dict) else None
    value = values.get(KEY) if isinstance(values, dict) else None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None, f"{path}: values[{KEY}] is missing or not a number"
    return float(value), None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alone", required=True,
                        help="report of the run with alpha alone")
    parser.add_argument("--loaded", required=True,
                        help="report of the run with beta loaded")
    args = parser.parse_args()

    alone, err = read_value(args.alone)
    if err:
        print(f"FAIL: {err}")
        return 1
    loaded, err = read_value(args.loaded)
    if err:
        print(f"FAIL: {err}")
        return 1
    if alone <= 0:
        print(f"FAIL: {KEY} alone is {alone:.4g}; no ratio to check")
        return 1
    ratio = loaded / alone
    print(f"{KEY}: alone {alone:.4g}, loaded {loaded:.4g}, "
          f"ratio {ratio:.3f} (limit {MAX_RATIO:g})")
    if ratio > MAX_RATIO:
        print(f"FAIL: loading the neighbour raised {KEY} "
              f"{ratio:.2f}x, more than {MAX_RATIO:g}x")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
