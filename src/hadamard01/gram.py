"""Gram matrices of rows/columns of a bit matrix and the Hadamard test.

An m x m matrix over {0,1} with m = 4q - 1 is a Hadamard matrix in {0,1}
form exactly when the Gram matrix of its rows is 2q on the diagonal and q
off it.  The same pattern on the column Gram matrix is an equivalent
characterization; both are exposed so tests can assert the duality instead
of trusting it.
"""

from __future__ import annotations

from .core import BitMatrix, dot, pack_row


def gram_rows(t: BitMatrix) -> tuple[tuple[int, ...], ...]:
    """Matrix of mutual scalar products of the rows of t."""
    return tuple(tuple(dot(u, v) for v in t.rows) for u in t.rows)


def gram_cols(t: BitMatrix) -> tuple[tuple[int, ...], ...]:
    """Matrix of mutual scalar products of the columns of t."""
    return gram_rows(t.transpose())


def is_hadamard_zo(t: BitMatrix) -> bool:
    """True iff t is a Hadamard matrix in {0,1} form.

    Checks rows only: m = 3 mod 4 (side 1 therefore returns False) and the
    row Gram matrix is 2q on the diagonal and q off it, q = (m+1)/4.  Rows
    are packed into int masks so the pairwise products are popcounts.
    """
    m = t.m
    if m < 3 or m % 4 != 3:
        return False
    a = (m + 1) // 4
    b = 2 * a
    masks = [pack_row(row) for row in t.rows]
    for i, u in enumerate(masks):
        if u.bit_count() != b:
            return False
        for v in masks[i + 1:]:
            if (u & v).bit_count() != a:
                return False
    return True
