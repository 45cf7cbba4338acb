"""Group-list (partition-list) encoding of bit-matrix rows.

Row i of an m x m bit matrix is stored as an ordered list of (label, count)
pairs.  Labels are refinement histories: a group with label l at depth d
splits at depth d+1 into the child 2l (columns carrying 1 in the new row)
and 2l+1 (columns carrying 0); even labels therefore mean ones and odd
labels mean zeros, and bit (d - j) of a depth-d label is 0 exactly when the
group's columns carry a 1 in row j.  Zero-count groups are never stored.

The encoding assumes the canonical column layout: within each span covered
by a parent group, all ones precede all zeros.  encode_row rejects rows
that violate this; canonicalize() reorders columns to repair it.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import BitMatrix, NonCanonicalRow

Group = tuple[int, int]  # (label, count), count >= 1
# One row as its ordered (label, count) pairs; its depth is its row number.
GroupList = tuple[Group, ...]


class PartitionMatrix(NamedTuple):
    """A full m-row matrix in group-list form; row i (rows[i-1]) has depth i."""

    m: int
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


def child_row(parent: GroupList, k: tuple[int, ...]) -> GroupList:
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
    return child_row(parent, tuple(ks))


def shared_prefix(rows, last) -> int:
    """How many leading items of ``rows`` equal those of ``last``.

    Successive records of a stream (and successive matrices of a
    depth-first search) share their leading rows, so a layer that keeps
    its per-row work for the last record redoes only the rows after this
    prefix.  The same objects are equal without a comparison.
    """
    d = 0
    for a, b in zip(rows, last):
        if a is not b and a != b:
            break
        d += 1
    return d


def encode_matrix(
    t: BitMatrix, prev: tuple[BitMatrix, PartitionMatrix] | None = None
) -> PartitionMatrix:
    """Encode every row of a canonical bit matrix, refining from the root.

    ``prev`` is the previous (bit matrix, its encoding) pair of a stream:
    row i's group list depends only on bit rows 1..i, so the leading bit
    rows equal to prev's keep prev's group lists (the same objects, which
    ``formats.write_grouplist`` does not render again), and only the rows
    after them are encoded.
    """
    parent = root_group_list(t.m)
    encoded: list[GroupList] = []
    d = 0
    if prev is not None:
        d = shared_prefix(t.rows, prev[0].rows)
        if d:
            encoded += prev[1].rows[:d]
            parent = encoded[-1]
    for i, row in enumerate(t.rows[d:], start=d + 1):
        try:
            parent = encode_row(row, parent)
        except NonCanonicalRow as exc:
            raise NonCanonicalRow(f"row {i}: {exc}", row_index=i) from exc
        encoded.append(parent)
    return PartitionMatrix(t.m, tuple(encoded))


def decode_matrix(
    p: PartitionMatrix, prev: tuple[PartitionMatrix, BitMatrix] | None = None
) -> BitMatrix:
    """Expand every row of a partition matrix into explicit bits.

    ``prev`` is the previous (partition matrix, its decoding) pair of a
    stream, as for encode_matrix the other way: a bit row depends only on
    its own group list, so the leading group lists shared with prev keep
    prev's bit rows, and only the rows after them are decoded.
    """
    decoded: tuple[tuple[int, ...], ...] = ()
    d = 0
    if prev is not None:
        d = shared_prefix(p.rows, prev[0].rows)
        decoded = prev[1].rows[:d]
    return BitMatrix(decoded + tuple(decode_row(g) for g in p.rows[d:]))


def row_masks(p: PartitionMatrix, start: int = 0) -> list[int]:
    """Every row from index ``start`` on as an int mask, straight from its
    runs: the masks ``core.pack_row`` gives for the decoded rows (leftmost
    column most significant), without building the bits."""
    masks = []
    for g in p.rows[start:]:
        mask = 0
        for label, count in g:
            mask <<= count
            if not label & 1:
                mask |= (1 << count) - 1
        masks.append(mask)
    return masks


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
    """Check that every row refines the row above it (row 1 the root
    group of all m columns); raises ValueError naming the first bad row.

    One walk per row beside its parent: for each parent group (l, c) in
    order, the row holds the children (2l, a) then (2l+1, c-a), each only
    if its count is positive, and nothing else.  Label order, label range
    and the row total m follow from the parent's.  Rows before index
    ``start`` are taken as checked: a row's validity depends only on its
    parent row and m, so rows shared with a record already validated at
    the same m need no second look.
    """
    if len(p.rows) != p.m:
        raise ValueError(f"expected {p.m} rows, got {len(p.rows)}")
    parent = p.rows[start - 1] if start else root_group_list(p.m)
    for i, groups in enumerate(p.rows[start:], start=start + 1):
        j = 0
        for label, count in parent:
            left = count
            for child in (2 * label, 2 * label + 1):
                if j < len(groups) and groups[j][0] == child:
                    if groups[j][1] < 1:
                        raise ValueError(f"row {i}: group {groups[j]} has nonpositive count")
                    left -= groups[j][1]
                    j += 1
            if left:
                raise ValueError(
                    f"row {i}: children of group {label} of row {i - 1} "
                    f"count {count - left}, not {count}"
                )
        if j < len(groups):
            raise ValueError(
                f"row {i}: group {groups[j][0]} is not the next child of a group of row {i - 1}"
            )
        parent = groups
