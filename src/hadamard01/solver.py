"""Per-row linear systems over group-occupancy counts, and their solutions.

Extending a partial matrix by row i places k_s ones inside each parent
group s (0 <= k_s <= count_s).  The Gram constraints become i equations
with 0/1 coefficients: the k_s sum to the row weight 2q, and for every
earlier row j the k_s of the groups carrying a 1 in row j sum to the
overlap q.

enumerate_solutions yields every bounded integer solution exactly once, in
a deterministic order: the system is reduced to row-echelon form over the
rationals, free variables are ordered by variable index, and their
assignments are scanned in odometer order from all-zeros with the first
free variable varying fastest; assignments whose dependent values are
fractional or out of bounds are skipped.

The last row (i = m) is forced: once rows 1..m-1 meet the Gram test, every
column ends at weight 2q, so a group of weight w_s takes count_s * (2q - w_s).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .core import SearchParams
from .partition import GroupList


@dataclass(frozen=True)
class RowSystem:
    """Equations for row ``i`` over one variable per parent group.

    Each equation is (variable index subset, rhs); coefficients are
    implicitly 1.  ``bounds[s]`` is the parent group count, the box upper
    bound for k_s.
    """

    i: int
    bounds: tuple[int, ...]
    equations: tuple[tuple[tuple[int, ...], int], ...]


def build_system(parent: GroupList, i: int, params: SearchParams) -> RowSystem:
    """Set up the equations for row i given row i-1's group list.

    One weight equation over all variables (rhs 2q), then one overlap
    equation per earlier row j = i-1 .. 1 (rhs q) over the groups whose
    label has bit (i-1-j) clear, i.e. whose columns carry a 1 in row j.
    """
    labels = [label for label, _ in parent.groups]
    bounds = tuple(count for _, count in parent.groups)
    equations: list[tuple[tuple[int, ...], int]] = [
        (tuple(range(len(labels))), params.b)
    ]
    qq = 1
    for _ in range(i - 1, 0, -1):
        support = tuple(s for s, label in enumerate(labels) if (label // qq) % 2 == 0)
        equations.append((support, params.q))
        qq *= 2
    return RowSystem(i=i, bounds=bounds, equations=tuple(equations))


def _reduced_echelon(
    sys: RowSystem,
) -> tuple[list[tuple[int, int, list[tuple[int, int]], int]], list[int]] | None:
    """Row-reduce the system exactly, keeping integer rows throughout.

    Equivalent to reduced row-echelon form over the rationals with every
    pivot row scaled to clear denominators.  Returns (dependents,
    free_cols) or None when inconsistent.  Each dependent is
    (pivot column, den, coeffs, value) encoding

        den * k_pivot = value - sum(coeff * k_free[f] for f, coeff in coeffs)

    where f indexes into free_cols and den > 0.
    """
    nv = len(sys.bounds)
    mat: list[list[int]] = []
    for support, rhs in sys.equations:
        row = [0] * (nv + 1)
        for c in support:
            row[c] = 1
        row[nv] = rhs
        mat.append(row)

    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(nv):
        pr = next((k for k in range(r, len(mat)) if mat[k][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        p = prow[c]
        for k in range(len(mat)):
            f = mat[k][c]
            if k == r or f == 0:
                continue
            new = [p * e - f * pe for e, pe in zip(mat[k], prow)]
            g = gcd(*new)
            mat[k] = [e // g for e in new] if g > 1 else new
        pivots.append((r, c))
        r += 1
        if r == len(mat):
            break
    for k in range(r, len(mat)):
        if mat[k][nv] != 0:
            return None

    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(nv) if c not in pivot_cols]

    dependents = []
    for pr, pc in pivots:
        prow = mat[pr]
        if prow[pc] < 0:
            prow = [-e for e in prow]
        coeffs = [(f, prow[c]) for f, c in enumerate(free_cols) if prow[c] != 0]
        dependents.append((pc, prow[pc], coeffs, prow[nv]))
    return dependents, free_cols


def contains(sys: RowSystem, k: tuple[int, ...]) -> bool:
    """Whether k is a bounded solution of sys, by direct substitution."""
    return all(0 <= v <= u for v, u in zip(k, sys.bounds)) and all(
        sum(k[s] for s in support) == rhs for support, rhs in sys.equations)


def enumerate_solutions(sys: RowSystem) -> Iterator[tuple[int, ...]]:
    """Yield every bounded nonnegative integer solution exactly once.

    An infeasible system yields nothing.  The order is the documented
    odometer scan over free-variable assignments; whole odometer blocks
    that cannot contain a solution are skipped by interval arithmetic,
    which never changes the yielded sequence.

    At the last row (i = m = sum of bounds) only the forced candidate is
    checked: exact when rows 1..m-1 meet the Gram test, as search prefixes do.
    """
    if sys.i == sum(sys.bounds):
        two_q = sys.equations[0][1]
        weight = [0] * len(sys.bounds)  # w_s: overlap equations holding s
        for support, _ in sys.equations[1:]:
            for s in support:
                weight[s] += 1
        k = tuple(c * (two_q - w) for c, w in zip(sys.bounds, weight))
        if contains(sys, k):  # 2q - w_s not 0 or 1 fails the bounds
            yield k
        return
    reduced = _reduced_echelon(sys)
    if reduced is None:
        return
    dependents, free_cols = reduced
    bounds = sys.bounds
    nv = len(bounds)
    nfree = len(free_cols)

    # For each dependent, den*k_pivot must land in [0, den*bound], so the
    # numerator value - sum(coeff*digit) must too.  pre_lo/pre_hi[d][j]
    # bound the sum over digits below level j, for pruning once the digits
    # at level j and above are fixed.
    ndep = len(dependents)
    coeff_matrix = [[0] * nfree for _ in range(ndep)]
    for d, (_, _, coeffs, _) in enumerate(dependents):
        for f, coeff in coeffs:
            coeff_matrix[d][f] = coeff

    windows = []
    pre_lo = []
    pre_hi = []
    for d, (pc, den, _, value) in enumerate(dependents):
        windows.append((0, den * bounds[pc]))
        lo = [0] * (nfree + 1)
        hi = [0] * (nfree + 1)
        for j in range(nfree):
            coeff = coeff_matrix[d][j]
            ub = bounds[free_cols[j]]
            lo[j + 1] = lo[j] + (coeff * ub if coeff < 0 else 0)
            hi[j + 1] = hi[j] + (coeff * ub if coeff > 0 else 0)
        pre_lo.append(lo)
        pre_hi.append(hi)

    digits = [0] * nfree

    def scan(j: int, sums: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # digits at levels >= j are fixed with coefficient sums per
        # dependent in ``sums``; level 0 varies fastest
        if j == 0:
            k = [0] * nv
            for f, c in enumerate(free_cols):
                k[c] = digits[f]
            for d in range(ndep):
                pc, den, _, value = dependents[d]
                num = value - sums[d]
                if num % den != 0:
                    return
                v = num // den
                if v < 0 or v > bounds[pc]:
                    return
                k[pc] = v
            yield tuple(k)
            return
        level = j - 1
        ub = bounds[free_cols[level]]
        for v in range(ub + 1):
            digits[level] = v
            new_sums = tuple(
                sums[d] + coeff_matrix[d][level] * v for d in range(ndep)
            )
            ok = True
            for d in range(ndep):
                value = dependents[d][3]
                w_lo, w_hi = windows[d]
                num_hi = value - new_sums[d] - pre_lo[d][level]
                num_lo = value - new_sums[d] - pre_hi[d][level]
                if num_hi < w_lo or num_lo > w_hi:
                    ok = False
                    break
            if ok:
                yield from scan(level, new_sums)
        digits[level] = 0

    try:
        yield from scan(nfree, (0,) * ndep)
    finally:
        del scan  # scan refers to itself; free it without the cyclic GC
