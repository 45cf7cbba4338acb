"""Group-list (partition-list) encoding of bit-matrix rows.

Row i of an m x m bit matrix is stored as an ordered list of (label, count)
pairs.  Labels are refinement histories: a group with label l at depth d
splits at depth d+1 into the child 2l (columns carrying 1 in the new row)
and 2l+1 (columns carrying 0); even labels therefore mean ones and odd
labels mean zeros, and bit (d - j) of a depth-d label is 0 exactly when the
group's columns carry a 1 in row j; ones_in(row, back) reads that bit for
the row ``back`` rows up, and nothing else in the package reads further
than bit 0.  Zero-count groups are never stored.

The encoding assumes the canonical column layout: within each span covered
by a parent group, all ones precede all zeros.  encode_row rejects rows
that violate this; canonicalize() reorders columns to repair it.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple, Sequence

from .core import BitMatrix, NonCanonicalRow

Group = tuple[int, int]  # (label, count), count >= 1
# One row as its ordered (label, count) pairs; its depth is its row number.
GroupList = tuple[Group, ...]


class PartitionMatrix(NamedTuple):
    """A full matrix in group-list form; row i (rows[i-1]) has depth i, and
    its order m is its row count, ``len(rows)``."""

    rows: tuple[GroupList, ...]


def root_group_list(m: int) -> GroupList:
    """The virtual depth-0 root: all m columns in a single group 0."""
    return ((0, m),)


def decode_row(g: GroupList) -> tuple[int, ...]:
    """Expand a group list into an explicit bit row (even label -> ones)."""
    bits: list[int] = []
    for label, count in g:
        bits.extend((1 if label % 2 == 0 else 0,) * count)
    return tuple(bits)


def ones_in(row: GroupList, back: int) -> tuple[int, ...]:
    """The indices of the groups of ``row`` whose columns carry a 1 in the
    row ``back`` rows above it (``back=0``: in ``row`` itself), i.e. whose
    label has bit ``back`` clear: the one reader of a label's history."""
    return tuple(s for s, (label, _) in enumerate(row) if not label >> back & 1)


def child_row(parent: GroupList, k: Sequence[int]) -> GroupList:
    """Refine ``parent`` by k_s ones per group: group s splits into
    (2l_s, k_s) and (2l_s+1, count_s - k_s), zero counts omitted."""
    groups: list[Group] = []
    for (label, count), ones in zip(parent, k):
        if ones:
            groups.append((2 * label, ones))
        if count - ones:
            groups.append((2 * label + 1, count - ones))
    return tuple(groups)


def encode_row(bits: tuple[int, ...], parent: GroupList) -> GroupList:
    """Refine ``parent`` by one explicit bit row: child_row with k_s the
    ones in the span of group s.  Raises NonCanonicalRow unless the ones
    in every span are contiguous and first (otherwise the counts would
    lose positions).
    """
    ks: list[int] = []
    pos = 0
    for _, count in parent:
        span = bits[pos:pos + count]
        k = sum(span)
        if not all(span[:k]):
            raise NonCanonicalRow(
                f"ones are not contiguous-first within columns {pos}..{pos + count - 1}"
            )
        ks.append(k)
        pos += count
    if pos != len(bits):
        raise NonCanonicalRow(
            f"row length {len(bits)} does not match parent span total {pos}"
        )
    return child_row(parent, ks)


def shared_prefix(rows, last) -> int:
    """How many leading items of ``rows`` equal those of ``last``; the
    same objects are equal without a comparison."""
    d = 0
    for a, b in zip(rows, last):
        if a is not b and a != b:
            break
        d += 1
    return d


class LastRecord:
    """The rows of the last record of a stream and one result per row.

    Successive records of a stream (and successive matrices of a
    depth-first search) share their leading rows, so a layer that keeps
    one result per row, such as a row's text, mask or encoding, redoes
    only the rows after the shared prefix.  Every stream layer keeps its
    results here: the grouplist writer and reader, ``gram.StreamCheck``,
    encode_matrix and decode_matrix.
    """

    def __init__(self):
        self.rows: Sequence = ()
        self.results: list = []

    def keep(self, rows: Sequence) -> int:
        """Make ``rows`` the last record, keeping the results of the prefix
        it shares with the one before; returns how many were kept.  The
        caller appends one result for each row after them.  ``keep(())``
        forgets the record, for a layer that must not reuse it.
        """
        d = shared_prefix(rows, self.rows)
        del self.results[d:]
        self.rows = rows
        return d


def encode_matrix(t: BitMatrix, last: LastRecord | None = None) -> PartitionMatrix:
    """Encode every row of a canonical bit matrix, refining from the root.

    ``last`` holds the bit matrix before ``t`` in a stream and its group
    lists: row i's group list depends only on bit rows 1..i, so the
    leading bit rows shared with it keep its group lists (the same
    objects, which ``formats.write_grouplist`` does not render again), and
    only the rows after them are encoded.  A NonCanonicalRow leaves
    ``last`` holding nothing.
    """
    last = LastRecord() if last is None else last
    d = last.keep(t.rows)
    encoded = last.results
    parent = encoded[-1] if d else root_group_list(t.m)
    for i, row in enumerate(t.rows[d:], start=d + 1):
        try:
            parent = encode_row(row, parent)
        except NonCanonicalRow as exc:
            last.keep(())
            raise NonCanonicalRow(f"row {i}: {exc}", row_index=i) from exc
        encoded.append(parent)
    return PartitionMatrix(tuple(encoded))


def decode_matrix(p: PartitionMatrix, last: LastRecord | None = None) -> BitMatrix:
    """Expand every row of a partition matrix into explicit bits.

    ``last`` holds the partition matrix before ``p`` in a stream and its
    bit rows, as for encode_matrix the other way: a bit row depends only
    on its own group list, so the leading group lists shared with it keep
    its bit rows, and only the rows after them are decoded.
    """
    last = LastRecord() if last is None else last
    d = last.keep(p.rows)
    last.results += map(decode_row, p.rows[d:])
    return BitMatrix(tuple(last.results))


def row_mask(g: GroupList) -> int:
    """One row as an int mask, straight from its runs: the mask
    ``core.pack_row`` gives for the decoded row (leftmost column most
    significant), without building the bits."""
    mask = 0
    for label, count in g:
        mask <<= count
        if not label & 1:
            mask |= (1 << count) - 1
    return mask


def canonicalize(t: BitMatrix) -> BitMatrix:
    """Reorder columns into the canonical ones-first layout.

    Stable sort on the column bit histories read top to bottom, 1 before 0;
    columns with identical histories keep their input order.  The result
    encodes without NonCanonicalRow and decodes back to itself.
    """
    m = t.m
    order = sorted(range(m), key=lambda c: tuple(1 - row[c] for row in t.rows))
    return BitMatrix(tuple(tuple(row[c] for c in order) for row in t.rows))


def validate_partition_matrix(p: PartitionMatrix, start: int = 0) -> None:
    """Check that every row refines the row above it (row 0 is the root
    group of all m columns, m read off row 1, or 0 with no rows); raises
    ValueError naming the first bad row.

    Row i must equal ``child_row(row i-1, k)``, with k_s the count of its
    own child 2l_s (0 if absent), and hold no count below 1: a count above
    its parent's rebuilds as a negative sibling.  Rows before index
    ``start`` are taken as checked: a row's validity depends only on its
    parent row and m, so rows shared with a record already validated at
    the same m need no second look.  The row count is checked last, so a
    row 1 that covers the wrong number of columns is reported at the
    first row that does not refine it.
    """
    m = sum(count for _, count in p.rows[0]) if p.rows else 0
    parent = p.rows[start - 1] if start else root_group_list(m)
    for i, groups in enumerate(p.rows[start:], start=start + 1):
        counts = dict(groups)
        rebuilt = child_row(parent, [counts.get(2 * label, 0) for label, _ in parent])
        if groups != rebuilt:
            j, found, want = next((j, a, b) for j, (a, b) in enumerate(
                zip_longest(groups, rebuilt, fillvalue="nothing")) if a != b)
            raise ValueError(
                f"row {i}: group {j + 1} is {found} where refining row {i - 1} gives {want}"
            )
        if min(counts.values(), default=1) < 1:
            bad = next(g for g in groups if g[1] < 1)
            raise ValueError(f"row {i}: group {bad} has nonpositive count")
        parent = groups
    if len(p.rows) != m:
        raise ValueError(f"expected {m} rows, got {len(p.rows)}")
