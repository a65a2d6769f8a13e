#!/usr/bin/env python
"""CI perf-regression gate: compare a fresh BENCH_perf.json to the baseline.

Usage::

    python scripts/check_perf_regression.py FRESH BASELINE [--threshold 0.25]

Exits 0 when every tracked metric in the fresh report stays within the
allowed fraction of the committed baseline's gate floor, 1 otherwise
(printing one line per failed metric).  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import sys

from repro.eval.perf import DEFAULT_THRESHOLD, compare_reports, load_perf_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly measured BENCH_perf.json")
    parser.add_argument("baseline", help="committed baseline BENCH_perf.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional regression (default %(default)s)",
    )
    args = parser.parse_args(argv)

    fresh = load_perf_report(args.fresh)
    baseline = load_perf_report(args.baseline)
    failures = compare_reports(fresh, baseline, threshold=args.threshold)
    if failures:
        print("perf regression gate FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    tracked = ", ".join(
        f"{name}={fresh['metrics'][name]:.2f}" for name in baseline.get("tracked", [])
    )
    print(f"perf regression gate OK ({tracked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
