"""Independent brute-force enumeration for validating the generator.

Deliberately dumb: tabulate every weight-2q bit row, extend the fixed
first two rows one explicit row at a time keeping every pairwise product
at q, then map each completion to canonical group-list form and dedupe.
Correct by inspection, exponential by design; capped at m = 7 unless the
caller opts in to a long run.
"""

from __future__ import annotations

from itertools import combinations

from .core import BitMatrix, OrderTooLarge, SearchParams, pack_row
from .generator import initial_rows
from .partition import PartitionMatrix, canonicalize, decode_row, encode_matrix

BRUTE_FORCE_MAX_ORDER = 7


def brute_force_canonical(
    params: SearchParams, allow_large: bool = False
) -> set[PartitionMatrix]:
    """All canonical matrices with the fixed first two rows, by brute force.

    Enumerates explicit bit matrices (row weight 2q, pairwise products q,
    rows 1-2 fixed), canonicalizes the columns of each completion, encodes,
    and returns the deduplicated set.  m = 11 takes hours; anything past
    the cap raises OrderTooLarge unless allow_large is set.
    """
    m, q, b = params.m, params.q, params.b
    if m > BRUTE_FORCE_MAX_ORDER and not allow_large:
        raise OrderTooLarge(
            f"brute force at m={m} exceeds the cost cap {BRUTE_FORCE_MAX_ORDER}; "
            "pass allow_large=True for a long run"
        )

    candidates = []
    for ones in combinations(range(m), b):
        mask = 0
        for c in ones:
            mask |= 1 << (m - 1 - c)
        candidates.append(mask)

    row1, row2 = (decode_row(g) for g in initial_rows(params))
    fixed = [pack_row(row1), pack_row(row2)]
    found: set[PartitionMatrix] = set()
    prefix = list(fixed)

    def extend() -> None:
        if len(prefix) == m:
            rows = tuple(_unmask(r, m) for r in prefix)
            found.add(encode_matrix(canonicalize(BitMatrix(rows))))
            return
        for cand in candidates:
            if all((cand & prev).bit_count() == q for prev in prefix):
                prefix.append(cand)
                extend()
                prefix.pop()

    extend()
    return found


def _unmask(mask: int, m: int) -> tuple[int, ...]:
    return tuple((mask >> (m - 1 - c)) & 1 for c in range(m))
