"""Independent brute-force enumeration for validating the generator.

Deliberately dumb: tabulate every weight-2q bit row, extend the fixed
leading rows (the first two, or rows 1..r of a search path) one explicit
row at a time keeping every pairwise product at q, then map each
completion to canonical group-list form and dedupe.
Correct by inspection, exponential by design; capped at m = 7 unless the
caller opts in to a long run.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .core import BitMatrix, OrderTooLarge, SearchParams, pack_row
from .generator import initial_rows
from .partition import (
    GroupList, PartitionMatrix, canonicalize, decode_row, encode_matrix,
)

BRUTE_FORCE_MAX_ORDER = 7


def brute_force_canonical(
    params: SearchParams,
    rows: Sequence[GroupList] | None = None,
    allow_large: bool = False,
) -> set[PartitionMatrix]:
    """All canonical matrices with the given leading rows, by brute force.

    ``rows`` are the fixed leading rows, by default the first two
    (``initial_rows``); rows 1..r of a search path give that path's subtree.
    Enumerates explicit bit matrices (row weight 2q, pairwise products q)
    that start with them, canonicalizes the columns of each completion,
    encodes, and returns the deduplicated set.  m = 11 from two rows takes
    hours; anything past the cap raises OrderTooLarge unless allow_large is
    set, however many rows are fixed.
    """
    m, q, b = params.m, params.q, params.b
    if m > BRUTE_FORCE_MAX_ORDER and not allow_large:
        raise OrderTooLarge(
            f"brute force at m={m} exceeds the cost cap {BRUTE_FORCE_MAX_ORDER}; "
            "pass allow_large=True for a long run"
        )

    fixed = [pack_row(decode_row(g)) for g in rows or initial_rows(params)]
    # a later row meets every fixed row in q ones; filter for that once
    candidates = []
    for ones in combinations(range(m), b):
        mask = 0
        for c in ones:
            mask |= 1 << (m - 1 - c)
        if all((mask & f).bit_count() == q for f in fixed):
            candidates.append(mask)

    found: set[PartitionMatrix] = set()
    placed: list[int] = []

    def extend() -> None:
        if len(fixed) + len(placed) == m:
            bits = tuple(_unmask(r, m) for r in fixed + placed)
            found.add(encode_matrix(canonicalize(BitMatrix(bits))))
            return
        for cand in candidates:
            if all((cand & prev).bit_count() == q for prev in placed):
                placed.append(cand)
                extend()
                placed.pop()

    extend()
    return found


def _unmask(mask: int, m: int) -> tuple[int, ...]:
    return tuple((mask >> (m - 1 - c)) & 1 for c in range(m))
