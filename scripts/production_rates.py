#!/usr/bin/env python3
"""Survey matrix production rates across orders.

Orders 3, 7, and 11 run to completion; larger orders run against a time
budget since their searches do not finish in observable time (order 27 is
the practical wall: long runs find nothing).  The ``first s`` column is
the time to the first matrix.  With the fixed deterministic branch order,
one run on a shared two-core machine found the first order-19 matrix
after 52.7 s and 4923150 matrices by 240 s, and order 23 found none
in 60 s, so within the default 30 s budget a zero count is expected at
both.
Rates are hardware-bound, printed for comparison only.

Usage: python scripts/production_rates.py [--budget SECONDS]
"""

from __future__ import annotations

import argparse
import time

from hadamard01 import GenConfig, iter_matrices, validate_order
from hadamard01.cli import _positive_seconds

FULL_ORDERS = (3, 7, 11)
BUDGET_ORDERS = (15, 19, 23)


def run_order(m: int, budget: float | None) -> tuple[int, float, float | None, bool]:
    """(matrices, seconds, seconds to the first matrix or None, complete)."""
    params = validate_order(m)
    deadline = None if budget is None else time.monotonic() + budget
    start = time.monotonic()
    first = None
    count = 0
    done = True
    for _ in iter_matrices(GenConfig(params, verify_each=False), deadline=deadline):
        if first is None:
            first = time.monotonic() - start
        count += 1
    elapsed = time.monotonic() - start
    if deadline is not None and time.monotonic() >= deadline:
        done = False
    return count, elapsed, first, done


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget", type=_positive_seconds, default=30.0,
        help="seconds per partial-order run, finite and positive (default 30)",
    )
    args = parser.parse_args(argv)

    print(f"{'m':>4} {'matrices':>10} {'seconds':>9} {'first s':>9} {'rate/min':>10}  note")
    for m in FULL_ORDERS + BUDGET_ORDERS:
        budget = None if m in FULL_ORDERS else args.budget
        count, elapsed, first, done = run_order(m, budget)
        rate = round(count * 60 / elapsed) if elapsed else 0
        first_s = "-" if first is None else f"{first:.2f}"
        note = "complete" if done else f"cut at {budget:g}s"
        print(f"{m:>4} {count:>10} {elapsed:>9.2f} {first_s:>9} {rate:>10}  {note}")


if __name__ == "__main__":
    main()
