"""Shared fixtures: a known 15x15 Hadamard matrix in {0,1} form, its
group-list encoding, and small test oracles."""

from __future__ import annotations

import io
import itertools

import pytest

from hadamard01 import BitMatrix, validate_order
from hadamard01.formats import write_grouplist
from hadamard01.solver import RowSystem

# A 15x15 Hadamard matrix in {0,1} form whose rows 1-2 are in the canonical
# layout; every later row is ones-first within the spans of the previous
# rows, so it encodes to group lists without reordering.
KNOWN_15_ROWS = (
    "111111110000000",
    "111100001111000",
    "111010001000111",
    "100101101100110",
    "010011011110100",
    "100010111011010",
    "110001100011101",
    "001100111010101",
    "100110010101101",
    "001011101101001",
    "010110100110011",
    "001111000011110",
    "011000110101110",
    "010101011001011",
    "101001010110011",
)

# The same matrix in group-list text form, wrapped across lines the way a
# human would print it; exercises the parser's whitespace tolerance.
KNOWN_15_LISTING = """\
H:[[[0,8],[1,7]],
   [[0,4],[1,4],[2,4],[3,3]],
   [[0,3],[1,1],[2,1],[3,3],[4,1],[5,3],[6,3]],
   [[0,1],[1,2],[2,1],[5,1],[6,2],[7,1],[8,1],[10,1],[11,2],
    [12,2],[13,1]],
   [[1,1],[2,1],[3,1],[5,1],[10,1],[12,1],[13,1],[14,1],[16,1],
    [20,1],[22,1],[23,1],[24,1],[25,1],[27,1]],
   [[2,1],[5,1],[7,1],[11,1],[20,1],[25,1],[26,1],[28,1],[32,1],
    [41,1],[44,1],[46,1],[49,1],[50,1],[55,1]],
   [[4,1],[10,1],[15,1],[23,1],[41,1],[50,1],[52,1],[57,1],[65,1],
    [83,1],[88,1],[92,1],[98,1],[101,1],[110,1]],
   [[9,1],[21,1],[30,1],[46,1],[83,1],[101,1],[104,1],[114,1],
    [130,1],[167,1],[176,1],[185,1],[196,1],[203,1],[220,1]],
   [[18,1],[43,1],[61,1],[92,1],[166,1],[203,1],[209,1],[228,1],
    [261,1],[334,1],[353,1],[370,1],[392,1],[407,1],[440,1]],
   [[37,1],[87,1],[122,1],[185,1],[332,1],[406,1],[418,1],[457,1],
    [522,1],[668,1],[707,1],[740,1],[785,1],[815,1],[880,1]],
   [[75,1],[174,1],[245,1],[370,1],[664,1],[813,1],[836,1],
    [915,1],[1045,1],[1336,1],[1414,1],[1481,1],[1571,1],
    [1630,1],[1760,1]],
   [[151,1],[349,1],[490,1],[740,1],[1328,1],[1626,1],[1673,1],
    [1831,1],[2091,1],[2673,1],[2828,1],[2962,1],[3142,1],
    [3260,1],[3521,1]],
   [[303,1],[698,1],[980,1],[1481,1],[2657,1],[3253,1],[3346,1],
    [3662,1],[4183,1],[5346,1],[5657,1],[5924,1],[6284,1],
    [6520,1],[7043,1]],
   [[607,1],[1396,1],[1961,1],[2962,1],[5315,1],[6506,1],[6693,1],
    [7324,1],[8366,1],[10693,1],[11315,1],[11848,1],[12569,1],
    [13040,1],[14086,1]],
   [[1214,1],[2793,1],[3922,1],[5925,1],[10631,1],[13012,1],
    [13387,1],[14648,1],[16733,1],[21386,1],[22630,1],[23697,1],
    [25139,1],[26080,1],[28172,1]]]$
"""

# The unique order-3 matrix and its encoding.
KNOWN_3 = BitMatrix.of([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
KNOWN_3_GROUPS = (
    ((0, 2), (1, 1)),
    ((0, 1), (1, 1), (2, 1)),
    ((1, 1), (2, 1), (4, 1)),
)


def bits(s: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in s)


def grouplist_lines(matrices) -> list[str]:
    """The record lines ``write_grouplist`` writes for ``matrices``
    (named HM_<m>_1, HM_<m>_2, ...), without their line breaks."""
    out = io.StringIO()
    write_grouplist(out, matrices)
    return out.getvalue().splitlines()


@pytest.fixture(scope="session")
def known15() -> BitMatrix:
    return BitMatrix.of([bits(row) for row in KNOWN_15_ROWS])


@pytest.fixture(scope="session")
def params15():
    return validate_order(15)


@pytest.fixture(scope="session")
def m7_matrices():
    from hadamard01 import GenConfig, iter_matrices

    return tuple(iter_matrices(GenConfig(validate_order(7))))


@pytest.fixture(scope="session")
def m11_head():
    """The first 1500 matrices of the m=11 search."""
    from hadamard01 import GenConfig, iter_matrices

    return tuple(iter_matrices(GenConfig(validate_order(11), limit=1500)))


def brute_force_solutions(system: RowSystem) -> set[tuple[int, ...]]:
    """Nested-loop oracle: scan the whole bounded box, keep assignments
    satisfying every equation.  Exponential; test-scale systems only."""
    hits = set()
    for cand in itertools.product(*(range(u + 1) for u in system.bounds)):
        if all(sum(cand[c] for c in sup) == rhs for sup, rhs in system.equations):
            hits.add(cand)
    return hits


def walk_systems(m: int, max_depth: int | None = None):
    """Yield (prefix rows, system) for every row system a search of order m
    encounters, dead ends included, optionally truncated by depth."""
    from hadamard01.generator import child_row, initial_rows
    from hadamard01.solver import build_system, enumerate_solutions

    params = validate_order(m)
    row1, row2 = initial_rows(params)
    stack = [([row1, row2], 3)]
    while stack:
        rows, i = stack.pop()
        system = build_system(rows[-1], i, params)
        yield rows, system
        if i == m or (max_depth is not None and i >= max_depth):
            continue
        for k in enumerate_solutions(system):
            stack.append((rows + [child_row(rows[-1], k)], i + 1))
