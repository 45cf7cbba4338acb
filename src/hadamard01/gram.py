"""Gram matrices of rows/columns of a bit matrix and the Hadamard test.

An m x m matrix over {0,1} with m = 4q - 1 is a Hadamard matrix in {0,1}
form exactly when the Gram matrix of its rows is 2q on the diagonal and q
off it.  The same pattern on the column Gram matrix is an equivalent
characterization; both are exposed so tests can assert the duality instead
of trusting it.

Every {0,1} Gram check goes through one StreamCheck, row by new row: a
stream of matrices through one, a single matrix (is_hadamard_zo) through
a fresh one.  The order the test wants is the row count itself.
"""

from __future__ import annotations

from .core import BitMatrix, InvalidOrder, SearchParams, dot, pack_row
from .partition import LastRecord


def gram_rows(t: BitMatrix) -> tuple[tuple[int, ...], ...]:
    """Matrix of mutual scalar products of the rows of t."""
    return tuple(tuple(dot(u, v) for v in t.rows) for u in t.rows)


def gram_cols(t: BitMatrix) -> tuple[tuple[int, ...], ...]:
    """Matrix of mutual scalar products of the columns of t."""
    return gram_rows(t.transpose())


def is_hadamard_zo(t: BitMatrix) -> bool:
    """True iff t is a Hadamard matrix in {0,1} form.

    Checks rows only, packed into int masks, through a one-matrix
    StreamCheck: every {0,1} Gram check in the package takes that path.
    """
    return StreamCheck(pack_row)(t)


def is_hadamard_masks(masks: list[int], start: int = 0) -> bool:
    """True iff ``masks``, the rows of a square bit matrix as int masks,
    form a Hadamard matrix in {0,1} form: its order m = len(masks) is
    admissible for ``core.SearchParams`` (else False, so 0, 1 and 2 rows
    give False) and the row Gram matrix is b = 2q on the diagonal and q off
    it, with q and b from that SearchParams.  The pairwise products are
    popcounts.

    Rows before index ``start`` are taken as already checked, weights and
    pairs, so each row from ``start`` on is tested for weight 2q and for
    overlap q with every earlier row.  Its one caller is StreamCheck.
    """
    try:
        params = SearchParams(len(masks))
    except InvalidOrder:
        return False
    for i, u in enumerate(masks[start:], start):
        if u.bit_count() != params.b:
            return False
        for v in masks[:i]:
            if (u & v).bit_count() != params.q:
                return False
    return True


class StreamCheck:
    """is_hadamard_masks over a stream of matrices, called on each in turn;
    ``is_hadamard_zo`` is a one-matrix stream.

    ``mask`` turns a row into its int mask: ``partition.row_mask`` for a
    PartitionMatrix, ``core.pack_row`` for a BitMatrix.  A
    ``partition.LastRecord`` holds the last matrix that passed and its
    masks, so only the rows after the prefix a matrix shares with it are
    masked and tested, each against every earlier row.  A False verdict
    leaves nothing to reuse, since the test stops at its first bad pair.
    """

    def __init__(self, mask):
        self.mask = mask
        self.last = LastRecord()

    def __call__(self, t) -> bool:
        d = self.last.keep(t.rows)
        masks = self.last.results
        masks += map(self.mask, t.rows[d:])
        ok = is_hadamard_masks(masks, d)
        if not ok:
            self.last.keep(())
        return ok
