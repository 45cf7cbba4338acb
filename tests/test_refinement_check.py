"""The one-walk refinement check against a two-pass reference.

``reference_bad_row`` is the check ``partition.validate_partition_matrix``
made before it became one merge walk per row: per row, the group-list
invariants (positive counts, strictly increasing labels in range, total m)
and then a per-parent dict of child counts.  Rows of real m=7 and m=11
records are mutated in every listed way, and the one-walk check must raise
exactly when the reference finds a bad row, and name that row.
"""

from __future__ import annotations

import re

import pytest

from hadamard01.partition import (
    PartitionMatrix,
    root_group_list,
    validate_partition_matrix,
)


def reference_bad_row(p: PartitionMatrix, start: int = 0) -> int | None:
    """The first row (1-based) of p that breaks the refinement invariants,
    or None; rows before index ``start`` are taken as checked.  The total
    m is read off row 1, as the check and the reader do."""
    m = sum(count for _, count in p.rows[0])
    parent = p.rows[start - 1] if start else root_group_list(m)
    for i, g in enumerate(p.rows[start:], start=start + 1):
        prev = -1
        total = 0
        for label, count in g:
            if count < 1 or label <= prev or not 0 <= label < (1 << i):
                return i
            prev = label
            total += count
        if total != m:
            return i
        remaining = dict(parent)
        for label, count in g:
            if label // 2 not in remaining:
                return i
            remaining[label // 2] -= count
            if remaining[label // 2] < 0:
                return i
        if any(remaining.values()):
            return i
        parent = g
    return None


def mutants(groups: tuple[tuple[int, int], ...]):
    """(kind, groups) for every listed mutation of one row's groups."""
    n = len(groups)
    for k, (label, count) in enumerate(groups):
        head, tail = groups[:k], groups[k + 1:]
        yield "drop", head + tail
        yield "duplicate", head + ((label, count),) * 2 + tail
        if k + 1 < n:
            yield "swap", head + (groups[k + 1], (label, count)) + groups[k + 2:]
        for new in (label - 1, label + 1, label + 2, label ^ 1, 2 * label + 2):
            if new >= 0:
                yield "relabel", head + ((new, count),) + tail
        for new in (-1 - label, -label):
            if new < 0:
                yield "negative label", head + ((new, count),) + tail
        for delta in (-1, 1):
            yield "count", head + ((label, count + delta),) + tail
        if label % 2 == 0 and k + 1 < n and groups[k + 1][0] == label + 1:
            sibling = groups[k + 1][1]
            for delta in (-1, 1):
                yield "move column", head + (
                    (label, count + delta), (label + 1, sibling - delta)
                ) + groups[k + 2:]


def check_agrees(pm: PartitionMatrix, start: int = 0) -> int | None:
    expected = reference_bad_row(pm, start)
    if expected is None:
        validate_partition_matrix(pm, start)
        return None
    with pytest.raises(ValueError) as exc:
        validate_partition_matrix(pm, start)
    got = re.match(r"row (\d+): ", str(exc.value))
    assert got, str(exc.value)
    assert int(got[1]) == expected, (str(exc.value), expected)
    return expected


def mutated_records(pm: PartitionMatrix):
    """(row index, kind, mutated matrix) for every mutation of every row."""
    for r, row in enumerate(pm.rows):
        for kind, groups in mutants(row):
            yield r, kind, PartitionMatrix(pm.rows[:r] + (groups,) + pm.rows[r + 1:])


@pytest.mark.parametrize("m", [7, 11])
def test_one_walk_check_agrees_with_two_pass_reference(m, m7_matrices, m11_head):
    records = m7_matrices if m == 7 else m11_head[::100]
    caught = set()
    for pm in records:
        assert check_agrees(pm) is None
        for r, kind, bad in mutated_records(pm):
            if check_agrees(bad) is not None:
                caught.add(kind)
            # the reader validates from the prefix shared with the last record
            check_agrees(bad, r)
    assert caught == {
        "drop", "duplicate", "swap", "relabel", "negative label", "count",
        "move column",
    }


def test_moved_column_fails_on_the_row_below(m7_matrices):
    # a column moved between siblings still refines its own parent, so the
    # row below, whose children no longer add up, is the one named
    pm = m7_matrices[0]
    assert pm.rows[1] == ((0, 2), (1, 2), (2, 2), (3, 1))
    moved = ((0, 3), (1, 1), (2, 2), (3, 1))
    bad = PartitionMatrix(pm.rows[:1] + (moved,) + pm.rows[2:])
    assert check_agrees(bad) == 3
