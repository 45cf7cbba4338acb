#!/usr/bin/env python3
"""Survey matrix production rates across orders.

Orders 3, 7, and 11 run to completion; larger orders run against a time
budget since their searches do not finish in observable time (order 27 is
the practical wall: long runs find nothing).  With the fixed deterministic
branch order, orders 19 and 23 spend minutes in dead subtrees before their
first output, so a zero count within a short budget is expected there.
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


def run_order(m: int, budget: float | None) -> tuple[int, float, bool]:
    params = validate_order(m)
    deadline = None if budget is None else time.monotonic() + budget
    start = time.monotonic()
    count = 0
    done = True
    for _ in iter_matrices(GenConfig(params, verify_each=False), deadline=deadline):
        count += 1
    elapsed = time.monotonic() - start
    if deadline is not None and time.monotonic() >= deadline:
        done = False
    return count, elapsed, done


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget", type=_positive_seconds, default=30.0,
        help="seconds per partial-order run, finite and positive (default 30)",
    )
    args = parser.parse_args(argv)

    print(f"{'m':>4} {'matrices':>10} {'seconds':>9} {'rate/min':>10}  note")
    for m in FULL_ORDERS:
        count, elapsed, done = run_order(m, None)
        rate = round(count * 60 / elapsed) if elapsed else 0
        print(f"{m:>4} {count:>10} {elapsed:>9.2f} {rate:>10}  complete")
    for m in BUDGET_ORDERS:
        count, elapsed, done = run_order(m, args.budget)
        rate = round(count * 60 / elapsed) if elapsed else 0
        note = "complete" if done else f"cut at {args.budget:g}s"
        print(f"{m:>4} {count:>10} {elapsed:>9.2f} {rate:>10}  {note}")


if __name__ == "__main__":
    main()
