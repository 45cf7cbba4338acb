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

Once row i-1 splits no group, row i keeps its variables and its system is
the parent's plus one equation, the row just chosen; its echelon form extends
the parent's by that equation.  That form is unique, so nothing else changes.

The last row (i = m) is forced: once rows 1..m-1 meet the Gram test, every
column ends at weight 2q, so a group of weight w_s takes count_s * (2q - w_s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Iterator

from .core import SearchParams
from .partition import GroupList


@dataclass(frozen=True)
class RowSystem:
    """Equations for row ``i`` over one variable per parent group.

    Each equation is (variable index subset, rhs); coefficients are
    implicitly 1.  ``bounds[s]`` is the parent group count, the box upper
    bound for k_s.  ``prev``, set when the system is that parent system
    plus ``equations[1]``, takes no part in equality.
    """

    i: int
    bounds: tuple[int, ...]
    equations: tuple[tuple[tuple[int, ...], int], ...]
    prev: RowSystem | None = field(default=None, compare=False, repr=False)

    @cached_property
    def echelon(self) -> tuple[tuple[int, list[int]], ...] | None:
        """Reduced echelon form (see _add_equation), None if inconsistent:
        prev's form plus one equation, or every equation added to ()."""
        form = () if self.prev is None else self.prev.echelon
        new = self.equations if self.prev is None else self.equations[1:2]
        for support, rhs in new:
            form = None if form is None else _add_equation(form, support, rhs, len(self.bounds))
        return form


def build_system(
    parent: GroupList, i: int, params: SearchParams, prev: RowSystem | None = None
) -> RowSystem:
    """Set up the equations for row i given row i-1's group list.

    One weight equation over all variables (rhs 2q), then one overlap
    equation per earlier row j = i-1 .. 1 (rhs q) over the groups whose
    label has bit (i-1-j) clear, i.e. whose columns carry a 1 in row j.

    ``prev`` is the system that produced ``parent``.  If their variable
    counts agree, row i-1 split no group: bounds and earlier supports carry
    over, only the row i-1 equation is new, and the result is the same.
    """
    labels = [label for label, _ in parent.groups]

    def overlap(qq: int) -> tuple[tuple[int, ...], int]:
        return tuple(s for s, label in enumerate(labels) if (label // qq) % 2 == 0), params.q

    if prev is not None and len(labels) == len(prev.bounds):
        eqs = prev.equations
        return RowSystem(i, prev.bounds, eqs[:1] + (overlap(1),) + eqs[1:], prev)
    equations = [(tuple(range(len(labels))), params.b)]
    equations += [overlap(2**t) for t in range(i - 1)]
    return RowSystem(i, tuple(count for _, count in parent.groups), tuple(equations))


def _combine(a: int, x: list[int], b: int, y: list[int]) -> list[int]:
    """a*x - b*y, divided by the gcd of its entries."""
    new = [a * u - b * v for u, v in zip(x, y)]
    g = gcd(*new)
    return [e // g for e in new] if g > 1 else new


def _add_equation(form, support: tuple[int, ...], rhs: int, nv: int):
    """Add one 0/1 equation to a fraction-free reduced echelon form, or
    return None if it contradicts it.  ``form`` is ((pivot column, row),
    ...) by pivot column; each row is nv coefficients and the rhs, primitive,
    with a positive pivot and 0 in every other pivot column: the unique
    reduced echelon form over the rationals, scaled.  Rows stay unchanged.
    """
    e = [0] * nv + [rhs]
    for c in support:
        e[c] = 1
    for pc, row in form:
        if e[pc]:
            e = _combine(row[pc], e, e[pc], row)
    pc = next((c for c in range(nv) if e[c]), None)
    if pc is None:
        return None if e[nv] else form
    if e[pc] < 0:
        e = [-v for v in e]
    rows = [(c, _combine(e[pc], row, row[pc], e) if row[pc] else row) for c, row in form]
    return tuple(sorted(rows + [(pc, e)]))  # pivot columns are distinct


def _reduced_echelon(
    sys: RowSystem,
) -> tuple[list[tuple[int, int, list[int], int]], list[int]] | None:
    """``sys.echelon`` as (dependents, free_cols), or None if inconsistent.

    Each dependent (pivot column, den, coeffs, value) encodes
    den * k_pivot = value - sum(coeffs[f] * k[free_cols[f]]), with den > 0.
    With ``sys.prev`` set (its parent row split no group) the form extends
    prev's by one equation; being unique, it is the form a rebuild gives.
    """
    form = sys.echelon
    if form is None:
        return None
    nv = len(sys.bounds)
    pivot_cols = {c for c, _ in form}
    free_cols = [c for c in range(nv) if c not in pivot_cols]
    return [(pc, row[pc], [row[c] for c in free_cols], row[nv]) for pc, row in form], free_cols


def contains(sys: RowSystem, k: tuple[int, ...]) -> bool:
    """Whether k is a bounded solution of sys, by direct substitution."""
    return all(0 <= v <= u for v, u in zip(k, sys.bounds)) and all(
        sum(k[s] for s in support) == rhs for support, rhs in sys.equations)


def enumerate_solutions(sys: RowSystem) -> Iterator[tuple[int, ...]]:
    """Yield every bounded nonnegative integer solution exactly once.

    An infeasible system yields nothing.  The order is the documented
    odometer scan over free-variable assignments; whole odometer blocks
    that cannot contain a solution are skipped by interval arithmetic,
    which never changes the yielded sequence.  A system built from its
    parent's (``prev`` set) reuses the parent's echelon form; the form is
    unique, so the free variables and hence the order are a rebuild's.

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
    ndep = len(dependents)

    # For each dependent, den*k_pivot must land in [0, den*bound], so the
    # numerator value - sum(coeff*digit) must too.  pre_lo/pre_hi[d][j]
    # bound the sum over digits below level j, for pruning once the digits
    # at level j and above are fixed.
    coeff_matrix = [coeffs for _, _, coeffs, _ in dependents]
    values = [value for _, _, _, value in dependents]
    windows = [den * bounds[pc] for pc, den, _, _ in dependents]
    pre_lo = []
    pre_hi = []
    for coeffs in coeff_matrix:
        lo = [0] * (nfree + 1)
        hi = [0] * (nfree + 1)
        for j, coeff in enumerate(coeffs):
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
            for (pc, den, _, value), s in zip(dependents, sums):
                v, r = divmod(value - s, den)
                if r or v < 0 or v > bounds[pc]:
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
            for d in range(ndep):
                num = values[d] - new_sums[d]
                if num < pre_lo[d][level] or num - pre_hi[d][level] > windows[d]:
                    break
            else:
                yield from scan(level, new_sums)
        digits[level] = 0

    try:
        yield from scan(nfree, (0,) * ndep)
    finally:
        del scan  # scan refers to itself; free it without the cyclic GC
