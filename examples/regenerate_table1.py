#!/usr/bin/env python3
"""Regenerate Table 1 of the paper as a paper-vs-measured comparison.

Runs one scaled-down experiment per Table 1 row (algorithms and
impossibility results) and prints the comparison table.  The full-size
versions live in ``benchmarks/test_bench_table1_rows.py`` (and
``python -m repro table1 --full``); this script finishes in a couple of
minutes on a laptop.

Run with:  python examples/regenerate_table1.py [--full]
"""

import argparse
import sys
import time

from repro.sim.experiments import regenerate_table1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full-size experiments used by the benchmark harness "
        "(several minutes) instead of the quick scaled-down versions",
    )
    args = parser.parse_args(argv)

    start = time.time()
    table, results = regenerate_table1(quick=not args.full)
    elapsed = time.time() - start

    print(table)
    ok = sum(1 for r in results if r.shape_ok)
    print(f"\n{ok}/{len(results)} experiments match the paper's qualitative claims "
          f"({elapsed:.0f}s).")
    return 0 if ok == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
