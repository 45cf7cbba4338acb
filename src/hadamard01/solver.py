"""Per-row linear systems over group-occupancy counts, and their solutions.

Extending a partial matrix by row i places k_s ones inside each parent
group s (0 <= k_s <= count_s).  The Gram constraints become i equations
with 0/1 coefficients: the k_s sum to the row weight 2q, and for every
earlier row j the k_s of the groups carrying a 1 in row j sum to the
overlap q.

A system's bounded integer solutions are computed once, as the tuple
``RowSystem.solutions``, in colex order: compare k from the highest index
down, ascending.  The system is reduced to row-echelon form over the
rationals and its free variables are scanned with the lowest varying
fastest; assignments whose dependent values are fractional or out of
bounds are skipped.  That is colex order: a pivot's value is fixed by the
free columns above it, so two solutions first differ, from the top, in a
free column, and the scan steps the higher free columns more slowly.

Once row i-1 splits no group, row i keeps its variables and its system is
its parent's, ``prev``, plus one equation, the row just chosen.  Its
solutions are prev's solutions k with sum_{s in support} k_s = q, and
a sublist of a colex-sorted list is colex-sorted, so it is never reduced.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from typing import Iterator

from .core import Frozen, SearchParams
from .partition import GroupList, ones_in


class RowSystem(Frozen):
    """Equations for row ``i`` over one variable per parent group.

    Each equation is (variable index subset, rhs); coefficients are
    implicitly 1.  ``bounds[s]`` is the parent group count, the box upper
    bound for k_s.  ``prev``, set when the system is that parent system
    plus ``equations[1]``, takes no part in equality.
    """

    __slots__ = ("i", "bounds", "equations", "prev", "_solutions")
    _fields = ("i", "bounds", "equations")
    i: int
    bounds: tuple[int, ...]
    equations: tuple[tuple[tuple[int, ...], int], ...]
    prev: RowSystem | None

    def __init__(self, i: int, bounds: tuple[int, ...],
                 equations: tuple[tuple[tuple[int, ...], int], ...],
                 prev: RowSystem | None = None):
        self._set("i", i)
        self._set("bounds", bounds)
        self._set("equations", equations)
        self._set("prev", prev)
        self._set("_solutions", None)

    @property
    def solutions(self) -> tuple[tuple[int, ...], ...]:
        """Every bounded solution in colex order: prev's list filtered,
        or the scan; computed on first use and kept."""
        if self._solutions is None:
            if self.prev is not None:
                support, rhs = self.equations[1]
                found = tuple(
                    k for k in self.prev.solutions if sum(map(k.__getitem__, support)) == rhs
                )
            else:
                found = _scan(self)
            self._set("_solutions", found)
        return self._solutions


def build_system(
    parent: GroupList, i: int, params: SearchParams, prev: RowSystem | None = None
) -> RowSystem:
    """Set up the equations for row i given row i-1's group list.

    One weight equation over all variables (rhs 2q), then one overlap
    equation per earlier row j = i-1 .. 1 (rhs q) over the groups whose
    columns carry a 1 in row j: ``partition.ones_in(parent, i-1-j)``, the
    one function that reads a label's history.

    ``prev`` is the system that produced ``parent``.  If their variable
    counts agree, row i-1 split no group: bounds and earlier supports carry
    over, only the row i-1 equation is new, and the result is the same.
    """
    if prev is not None and len(parent) == len(prev.bounds):
        eqs, newest = prev.equations, (ones_in(parent, 0), params.q)
        return RowSystem(i, prev.bounds, eqs[:1] + (newest,) + eqs[1:], prev)
    equations = [(tuple(range(len(parent))), params.b)]
    equations += [(ones_in(parent, back), params.q) for back in range(i - 1)]
    return RowSystem(i, tuple(count for _, count in parent), tuple(equations))


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
    """The echelon form of sys (every equation folded in by _add_equation)
    as (dependents, free_cols), or None if inconsistent.

    Each dependent (pivot column, den, coeffs, value) encodes
    den * k_pivot = value - sum(coeffs[f] * k[free_cols[f]]), with den > 0.
    """
    nv = len(sys.bounds)
    form = ()
    for support, rhs in sys.equations:
        form = _add_equation(form, support, rhs, nv)
        if form is None:
            return None
    pivot_cols = {c for c, _ in form}
    free_cols = [c for c in range(nv) if c not in pivot_cols]
    return [(pc, row[pc], [row[c] for c in free_cols], row[nv]) for pc, row in form], free_cols


def enumerate_solutions(sys: RowSystem) -> Iterator[tuple[int, ...]]:
    """Yield every bounded nonnegative integer solution exactly once, in
    colex order; nothing if infeasible.

    The list is ``sys.solutions``, computed whole on the first ``next()``:
    prev's list filtered by the new equation when ``prev`` is set, else
    the scan.
    """
    yield from sys.solutions


def _scan(sys: RowSystem) -> tuple[tuple[int, ...], ...]:
    """The odometer scan over free-variable assignments; whole odometer
    blocks that cannot contain a solution are skipped by interval
    arithmetic, which never changes the result."""
    reduced = _reduced_echelon(sys)
    if reduced is None:
        return ()
    dependents, free_cols = reduced
    bounds = sys.bounds
    ndep = len(dependents)

    # For each dependent, den*k_pivot must land in [0, den*bound], so the
    # numerator value - sum(coeff*digit) must too.  pre_lo/pre_hi[d][j]
    # bound the sum over digits below level j, for pruning once the digits
    # at level j and above are fixed.
    coeff_matrix = [coeffs for _, _, coeffs, _ in dependents]
    values = [value for _, _, _, value in dependents]
    windows = [den * bounds[pc] for pc, den, _, _ in dependents]
    free_bounds = [bounds[c] for c in free_cols]
    pre_lo = [list(accumulate((min(a, 0) * u for a, u in zip(coeffs, free_bounds)), initial=0))
              for coeffs in coeff_matrix]
    pre_hi = [list(accumulate((max(a, 0) * u for a, u in zip(coeffs, free_bounds)), initial=0))
              for coeffs in coeff_matrix]

    k = [0] * len(bounds)
    found: list[tuple[int, ...]] = []

    def scan(j: int, sums: tuple[int, ...]) -> None:
        # the free variables at levels >= j are set in k, with coefficient
        # sums per dependent in ``sums``; level 0 varies fastest
        if j == 0:
            for (pc, den, _, value), s in zip(dependents, sums):
                v, r = divmod(value - s, den)
                if r or v < 0 or v > bounds[pc]:
                    return
                k[pc] = v
            found.append(tuple(k))
            return
        level = j - 1
        for v in range(free_bounds[level] + 1):
            k[free_cols[level]] = v
            new_sums = tuple(s + coeffs[level] * v for s, coeffs in zip(sums, coeff_matrix))
            if all(pre_lo[d][level] <= values[d] - new_sums[d] <= windows[d] + pre_hi[d][level]
                   for d in range(ndep)):
                scan(level, new_sums)

    try:
        scan(len(free_cols), (0,) * ndep)
    finally:
        del scan  # scan refers to itself; free it without the cyclic GC
    return tuple(found)
