"""Depth-first generation of Hadamard matrices in group-list form.

Rows 1 and 2 are fixed by the canonical column layout; every later row is
one solution of its row system, turned into child groups of the previous
row.  A matrix is emitted only when all m rows exist.  The search is
exhaustive over the canonical representatives with the fixed first two
rows, so the emitted set is complete for that normal form.
"""

from __future__ import annotations

import sys
import time
from typing import Iterator

from .core import Frozen, InternalInvariantViolation, SearchParams
from .gram import StreamCheck
from .partition import GroupList, PartitionMatrix, child_row, root_group_list, row_mask
from .solver import RowSystem, build_system, enumerate_solutions

# Above this order the per-matrix verification defaults to off; emitted
# matrices are correct by construction and the check is pure paranoia.
VERIFY_DEFAULT_MAX_ORDER = 15

# Seconds between two status lines of a run with progress on.
PROGRESS_PERIOD_S = 1.0


class GenConfig(Frozen):
    """Generation settings.

    ``params`` is a SearchParams.  ``limit`` cuts the stream after exactly
    that many matrices, an int >= 1 (not a bool).
    ``verify_each`` is None or a bool; None becomes the default policy
    here, so the field is always a bool: verify every emitted matrix for
    m <= VERIFY_DEFAULT_MAX_ORDER, skip above.
    ``progress``, a bool, writes a status line to stderr (never to the output
    stream) at the first row entry and then at most once per
    PROGRESS_PERIOD_S: ``i=<depth> emitted=<count> t=<s>s``.
    """

    __slots__ = _fields = ("params", "limit", "verify_each", "progress")
    params: SearchParams
    limit: int | None
    verify_each: bool
    progress: bool

    def __init__(self, params: SearchParams, limit: int | None = None,
                 verify_each: bool | None = None, progress: bool = False):
        if not isinstance(params, SearchParams):
            raise TypeError(f"params must be a SearchParams, got {params!r}")
        if limit is not None and (type(limit) is not int or limit < 1):
            raise ValueError(f"limit must be an int >= 1, got {limit!r}")
        if verify_each is not None and type(verify_each) is not bool:
            raise TypeError(f"verify_each must be None or a bool, got {verify_each!r}")
        if type(progress) is not bool:
            raise TypeError(f"progress must be a bool, got {progress!r}")
        self._set("params", params)
        self._set("limit", limit)
        if verify_each is None:
            verify_each = params.m <= VERIFY_DEFAULT_MAX_ORDER
        self._set("verify_each", verify_each)
        self._set("progress", progress)


def initial_rows(params: SearchParams) -> tuple[GroupList, GroupList]:
    """The fixed first two rows for order m.

    Row 1 is 2q ones then 2q-1 zeros; row 2 puts q ones first in each of
    its groups (child_row drops the empty zero group when q = 1).
    """
    q = params.q
    row1 = child_row(root_group_list(params.m), (params.b,))
    return row1, child_row(row1, (q, q))


def iter_matrices(
    config: GenConfig, deadline: float | None = None
) -> Iterator[PartitionMatrix]:
    """Stream complete matrices in depth-first order.

    Deterministic: row candidates follow the solver's enumeration order at
    every depth.  With verify_each on, every matrix goes through one
    gram.StreamCheck before being yielded, which tests only the rows after
    the prefix it shares with the matrix before; a failure aborts with
    InternalInvariantViolation.

    ``deadline`` is a time.monotonic() timestamp; the search checks it at
    every extension step and stops cleanly once past it, so wall-clock
    budgets hold even through long stretches between emissions.  The
    emitted prefix is still deterministic up to where the clock cuts.
    """
    params = config.params
    check = StreamCheck(row_mask) if config.verify_each else None
    start = time.monotonic()
    next_status = start if config.progress else None  # time of the next status line
    row1, row2 = initial_rows(params)
    rows: list[GroupList] = [row1, row2]
    emitted = 0

    def extend(i: int, prev: RowSystem | None) -> Iterator[PartitionMatrix]:
        # prev is the system that produced rows[-1], so row i can extend it
        nonlocal next_status
        if next_status is not None:
            now = time.monotonic()
            if now >= next_status:
                print(f"i={i} emitted={emitted} t={now - start:.1f}s", file=sys.stderr)
                next_status = now + PROGRESS_PERIOD_S
        if deadline is not None and time.monotonic() >= deadline:
            return
        system = build_system(rows[-1], i, params, prev)
        for k in enumerate_solutions(system):
            rows.append(child_row(rows[-1], k))
            if i == params.m:
                yield PartitionMatrix(tuple(rows))
            else:
                yield from extend(i + 1, system)
            rows.pop()
            if deadline is not None and time.monotonic() >= deadline:
                return

    try:
        for pm in extend(3, None):
            if check is not None and not check(pm):
                raise InternalInvariantViolation(
                    f"generated matrix {emitted + 1} failed verification"
                )
            yield pm
            emitted += 1
            if config.limit is not None and emitted >= config.limit:
                return
    finally:
        del extend  # extend refers to itself; free it without the cyclic GC

