import gc

import pytest

from hadamard01 import GenConfig, dot, iter_matrices, validate_order
from hadamard01 import solver
from hadamard01.cli import main as cli_main
from hadamard01.generator import child_row, initial_rows
from hadamard01.partition import decode_row
from hadamard01.solver import RowSystem, build_system, enumerate_solutions

from conftest import brute_force_solutions, walk_systems


def test_build_system_m7_row3():
    params = validate_order(7)
    parent = ((0, 2), (1, 2), (2, 2), (3, 1))
    sys = build_system(parent, 3, params)
    assert sys.bounds == (2, 2, 2, 1)
    assert sys.equations == (
        ((0, 1, 2, 3), 4),  # row weight
        ((0, 2), 2),        # overlap with row 2
        ((0, 1), 2),        # overlap with row 1
    )


def test_build_system_m3_row3():
    params = validate_order(3)
    parent = ((0, 1), (1, 1), (2, 1))
    sys = build_system(parent, 3, params)
    assert sys.equations == (
        ((0, 1, 2), 2),
        ((0, 2), 1),
        ((0, 1), 1),
    )


@pytest.mark.parametrize("m,i", [(7, 3), (11, 3), (15, 3), (7, 4)])
def test_system_has_i_equations(m, i):
    params = validate_order(m)
    parent = initial_rows(params)[1]
    if i > 3:
        # walk one level down to get a depth-3 parent
        sys3 = build_system(parent, 3, params)
        k = next(enumerate_solutions(sys3))
        parent = child_row(parent, k)
    assert len(build_system(parent, i, params).equations) == i


def test_solutions_m7_row3():
    params = validate_order(7)
    parent = ((0, 2), (1, 2), (2, 2), (3, 1))
    sys = build_system(parent, 3, params)
    assert set(enumerate_solutions(sys)) == {(0, 2, 2, 0), (1, 1, 1, 1)}
    assert set(enumerate_solutions(sys)) == brute_force_solutions(sys)


def test_solutions_m3_row3():
    params = validate_order(3)
    parent = ((0, 1), (1, 1), (2, 1))
    sys = build_system(parent, 3, params)
    sols = list(enumerate_solutions(sys))
    assert sols == [(0, 1, 1)]
    # decoding that solution gives the third row of the unique order-3 matrix
    assert decode_row(child_row(parent, sols[0])) == (0, 1, 1)


def test_contradictory_system_is_empty():
    sys = RowSystem(
        i=3, bounds=(2, 2, 2), equations=(((0, 1, 2), 4), ((0, 1, 2), 2))
    )
    assert list(enumerate_solutions(sys)) == []


def test_unbounded_rhs_is_empty():
    # rhs beyond the reach of the box
    sys = RowSystem(i=3, bounds=(1, 1), equations=(((0, 1), 5),))
    assert list(enumerate_solutions(sys)) == []


def test_enumeration_is_deterministic():
    params = validate_order(11)
    parent = initial_rows(params)[1]
    sys = build_system(parent, 3, params)
    assert list(enumerate_solutions(sys)) == list(enumerate_solutions(sys))


def test_every_m7_system_matches_brute_force():
    count = 0
    for _, sys in walk_systems(7):
        sols = list(enumerate_solutions(sys))
        assert len(sols) == len(set(sols)), "duplicate solution"
        assert set(sols) == brute_force_solutions(sys)
        count += 1
    assert count > 30  # dead ends included


def test_m11_prefix_systems_match_brute_force():
    checked = 0
    for _, sys in walk_systems(11, max_depth=7):
        assert set(enumerate_solutions(sys)) == brute_force_solutions(sys)
        checked += 1
    assert checked >= 100


def test_solutions_give_valid_rows():
    # every solution decodes to a row of weight 2q overlapping each earlier
    # row in exactly q columns
    params = validate_order(7)
    for rows, sys in walk_systems(7):
        decoded_prev = [decode_row(g) for g in rows]
        for k in enumerate_solutions(sys):
            new_row = decode_row(child_row(rows[-1], k))
            assert sum(new_row) == params.b
            for prev in decoded_prev:
                assert dot(new_row, prev) == params.q


@pytest.mark.parametrize("m,limit,expected", [(7, None, 3), (15, 3000, 3)])
def test_extended_systems_are_filtered_not_reduced(monkeypatch, tmp_path, m, limit, expected):
    # a system built from its parent's filters the parent's solution list,
    # so only the systems after a row that split a group are reduced
    reduced = []
    reduce = solver._reduced_echelon

    def recording(sys):
        reduced.append(sys)
        return reduce(sys)

    monkeypatch.setattr(solver, "_reduced_echelon", recording)
    argv = ["generate", "-m", str(m), "-o", str(tmp_path / "out.gl")]
    assert cli_main(argv + (["--limit", str(limit)] if limit else [])) == 0
    assert len(reduced) == expected
    assert all(sys.prev is None for sys in reduced)


def _garbage_after_m7_search(limit):
    """Objects the cyclic collector finds after a search run with gc off."""
    gc.collect()
    gc.disable()
    try:
        for _ in iter_matrices(GenConfig(validate_order(7), limit=limit)):
            pass
        return gc.collect()
    finally:
        gc.enable()


def test_search_leaves_no_garbage_per_system():
    # reference cycles would grow with the number of systems solved
    assert _garbage_after_m7_search(None) <= _garbage_after_m7_search(1)


def _search_with_prev(m, max_depth=None, matrices=None):
    """Yield (parent row, i, system built from its parent system) at every
    node the search visits, in search order, down to ``max_depth`` and up
    to the ``matrices``-th complete matrix."""
    params = validate_order(m)
    emitted = 0

    def extend(rows, i, prev):
        nonlocal emitted
        system = build_system(rows[-1], i, params, prev)
        yield rows[-1], i, system
        for k in enumerate_solutions(system):
            if matrices is not None and emitted >= matrices:
                return
            if i == m:
                emitted += 1
            elif max_depth is None or i < max_depth:
                yield from extend(rows + [child_row(rows[-1], k)], i + 1, system)

    yield from extend(list(initial_rows(params)), 3, None)


@pytest.mark.parametrize(
    "m,max_depth,matrices",
    [(7, None, None), (11, 8, None), (15, None, 300)],
)
def test_reused_system_equals_rebuilt_system(m, max_depth, matrices):
    params = validate_order(m)
    nodes = reused = 0
    for parent, i, system in _search_with_prev(m, max_depth, matrices):
        fresh = build_system(parent, i, params)
        assert system == fresh
        assert list(enumerate_solutions(system)) == list(enumerate_solutions(fresh))
        nodes += 1
        reused += system.prev is not None
    assert reused > 0 and nodes > reused


@pytest.mark.parametrize("systems", [
    lambda: (sys for _, sys in walk_systems(7)),
    lambda: (sys for _, sys in walk_systems(11, max_depth=8)),
    lambda: (sys for _, _, sys in _search_with_prev(15, matrices=300)),
], ids=["walk-m7", "walk-m11-depth8", "prev-m15-300"])
def test_solutions_are_in_colex_order(systems):
    # colex: compare k from the highest index down, ascending
    for sys in systems():
        assert list(sys.solutions) == sorted(set(sys.solutions), key=lambda k: k[::-1])
