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
from .gram import is_hadamard_masks
from .partition import GroupList, PartitionMatrix, child_row, row_masks, shared_prefix
from .solver import RowSystem, build_system, enumerate_solutions

# Above this order the per-matrix verification defaults to off; emitted
# matrices are correct by construction and the check is pure paranoia.
VERIFY_DEFAULT_MAX_ORDER = 15

# Seconds between two status lines of a run with progress on.
PROGRESS_PERIOD_S = 1.0


class GenConfig(Frozen):
    """Generation settings.

    ``limit`` cuts the stream after exactly that many matrices.
    ``verify_each`` None means the default policy: verify every emitted
    matrix for m <= 15, skip above.  ``progress`` writes a status line to
    stderr (never to the output stream) at the first row entry and then at
    most once per PROGRESS_PERIOD_S: ``i=<depth> emitted=<count> t=<s>s``.
    """

    __slots__ = _fields = ("params", "limit", "verify_each", "progress")
    params: SearchParams
    limit: int | None
    verify_each: bool | None
    progress: bool

    def __init__(self, params: SearchParams, limit: int | None = None,
                 verify_each: bool | None = None, progress: bool = False):
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self._set("params", params)
        self._set("limit", limit)
        self._set("verify_each", verify_each)
        self._set("progress", progress)

    @property
    def verify_resolved(self) -> bool:
        if self.verify_each is None:
            return self.params.m <= VERIFY_DEFAULT_MAX_ORDER
        return self.verify_each


def initial_rows(params: SearchParams) -> tuple[GroupList, GroupList]:
    """The fixed first two rows for order m.

    Row 1 is 2q ones then 2q-1 zeros; row 2 splits both blocks in half
    (q ones first in each), with the trailing zero group dropped when
    q = 1 since it would be empty.
    """
    q = params.q
    row1 = GroupList(1, ((0, 2 * q), (1, 2 * q - 1)))
    groups2 = [(0, q), (1, q), (2, q)]
    if q > 1:
        groups2.append((3, q - 1))
    row2 = GroupList(2, tuple(groups2))
    return row1, row2


def iter_matrices(
    config: GenConfig, deadline: float | None = None
) -> Iterator[PartitionMatrix]:
    """Stream complete matrices in depth-first order.

    Deterministic: row candidates follow the solver's enumeration order at
    every depth.  With verify_each on, every matrix is checked from its row
    masks before being yielded; a failure aborts with InternalInvariantViolation.
    Successive matrices share their leading row objects, so the check keeps
    the last matrix's rows and masks and tests only the rows after the
    shared prefix, each against all earlier rows (every pair of every
    matrix is still covered; see gram.is_hadamard_masks).  A failure
    aborts the stream, so no unchecked prefix is ever taken as good.

    ``deadline`` is a time.monotonic() timestamp; the search checks it at
    every extension step and stops cleanly once past it, so wall-clock
    budgets hold even through long stretches between emissions.  The
    emitted prefix is still deterministic up to where the clock cuts.
    """
    params = config.params
    m = params.m
    verify = config.verify_resolved
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
            if i == m:
                yield PartitionMatrix(m, tuple(rows))
            else:
                yield from extend(i + 1, system)
            rows.pop()
            if deadline is not None and time.monotonic() >= deadline:
                return

    last: tuple[GroupList, ...] = ()  # the rows of the last matrix checked
    masks: list[int] = []  # and their masks
    for pm in extend(3, None):
        if verify:
            d = shared_prefix(pm.rows, last)
            del masks[d:]
            masks += row_masks(pm, d)
            if not is_hadamard_masks(m, masks, d):
                raise InternalInvariantViolation(
                    f"generated matrix {emitted + 1} failed verification"
                )
            last = pm.rows
        yield pm
        emitted += 1
        if config.limit is not None and emitted >= config.limit:
            return

