"""Transforms between classical +-1 Hadamard matrices and their {0,1} form.

A Hadamard matrix whose first row and first column are all ones maps to an
(n-1) x (n-1) bit matrix by dropping the border, subtracting the all-ones
row and dividing by -2: interior -1 becomes 1 and +1 becomes 0.  The map
is invertible, and orthogonality on one side corresponds to the Gram
pattern on the other.
"""

from __future__ import annotations

from .core import BitMatrix, InvalidOrder, NotHadamard, NotNormalized, SignMatrix


def verify_sign_hadamard(h: SignMatrix) -> bool:
    """True iff the rows of h are pairwise orthogonal with |row|^2 = n.

    |row|^2 = n holds for any row of signs.  Each row packs into a mask of
    its -1 positions; two rows are orthogonal iff they differ in exactly n/2
    places.  The column condition follows for square matrices and is
    deliberately not re-tested here.
    """
    n = h.n
    masks = [sum(1 << k for k, e in enumerate(row) if e < 0) for row in h.rows]
    return all(
        2 * (u ^ v).bit_count() == n for i, u in enumerate(masks) for v in masks[i + 1:]
    )


def normalize(h: SignMatrix) -> SignMatrix:
    """Negate rows, then columns, so the first row and column are all +1.

    Row i is negated when h[i][0] is -1, and then column j when the new
    h[0][j], h[0][0]*h[0][j], is -1: entry (i, j) of the result is
    h[i][0]*h[i][j]*h[0][0]*h[0][j], computed in one pass.  The input must
    be a Hadamard matrix (NotHadamard otherwise); the output is an
    equivalent Hadamard matrix in normalized form.
    """
    if not verify_sign_hadamard(h):
        raise NotHadamard(f"{h.n}x{h.n} sign matrix is not Hadamard")
    signs = [h.rows[0][0] * e for e in h.rows[0]] if h.n else []  # h[0][0]*h[0][j]
    return SignMatrix.of([[row[0] * e * s for e, s in zip(row, signs)] for row in h.rows])


def is_normalized(h: SignMatrix) -> bool:
    """True iff the first row and the first column of h are all +1."""
    return all(e == 1 for e in h.rows[0]) and all(row[0] == 1 for row in h.rows)


def zo_from_pm(h: SignMatrix) -> BitMatrix:
    """{0,1} form of a normalized sign matrix: drop the all-ones border and
    map interior -1 -> 1, +1 -> 0."""
    if h.n < 2:
        raise InvalidOrder(
            f"a {h.n}x{h.n} sign matrix has no {{0,1}} form: removing its "
            "border leaves no row"
        )
    if not is_normalized(h):
        raise NotNormalized("first row and first column must be all +1")
    return BitMatrix.of(
        [[(1 - e) // 2 for e in row[1:]] for row in h.rows[1:]]
    )


def pm_from_zo(t: BitMatrix) -> SignMatrix:
    """Inverse of zo_from_pm: border of ones around interior 1 - 2*t[i][j]."""
    n = t.m + 1
    rows = [[1] * n]
    for row in t.rows:
        rows.append([1] + [1 - 2 * e for e in row])
    return SignMatrix.of(rows)
