"""Gram matrices of rows/columns of a bit matrix and the Hadamard test.

An m x m matrix over {0,1} with m = 4q - 1 is a Hadamard matrix in {0,1}
form exactly when the Gram matrix of its rows is 2q on the diagonal and q
off it.  The same pattern on the column Gram matrix is an equivalent
characterization; both are exposed so tests can assert the duality instead
of trusting it.

A stream of matrices is checked row by new row: is_hadamard_masks takes
the rows a matrix shares with the last one that passed as checked, and
tests only the rows after them against every earlier row.
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

    Checks rows only, packed into int masks: see is_hadamard_masks.
    """
    return is_hadamard_masks(t.m, [pack_row(row) for row in t.rows])


def is_hadamard_masks(m: int, masks: list[int], start: int = 0) -> bool:
    """True iff ``masks``, m rows of m columns as int masks, form a Hadamard
    matrix in {0,1} form: m = 3 mod 4 (side 1 therefore returns False) and
    the row Gram matrix is 2q on the diagonal and q off it, q = (m+1)/4.
    The pairwise products are popcounts.

    Rows before index ``start`` are taken as already checked, weights and
    pairs, so each row from ``start`` on is tested for weight 2q and for
    overlap q with every earlier row.  A stream of matrices that share
    leading rows passes the length of the prefix it shares with the last
    matrix that passed; after a False verdict that prefix is not known to
    be good (the check stops at the first bad pair), so the next matrix
    starts again from 0.
    """
    if m < 3 or m % 4 != 3 or len(masks) != m:
        return False
    a = (m + 1) // 4
    b = 2 * a
    for i in range(start, m):
        u = masks[i]
        if u.bit_count() != b:
            return False
        for v in masks[:i]:
            if (u & v).bit_count() != a:
                return False
    return True
