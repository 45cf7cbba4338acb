"""Completeness evidence past m=11: known Hadamard matrices lie on a
search path.

The search cannot finish at m >= 15, so this checks the other direction
for constructions: Sylvester n=16 (m=15) and Paley I for p=19 and 23
(m=19, 23), as built and under seeded random row and column permutations
and sign flips.  Each is taken through ``normalize``, ``zo_from_pm``,
``canonicalize`` and ``encode_matrix``.  Its rows 1-2 must be the search's
``initial_rows``, and each later row's k (ones per group of the row above)
must be a solution of the row system the search builds along that path.
Sylvester n=32 and Paley p=31 pass too but take seconds each, so they are
not run here.
"""

from __future__ import annotations

import random

import pytest

from hadamard01 import SignMatrix, canonicalize, encode_matrix, validate_order
from hadamard01.generator import initial_rows
from hadamard01.presentation import normalize, zo_from_pm
from hadamard01.solver import build_system


def sylvester(n: int) -> SignMatrix:
    """H_1 = [1], H_2k = [[H_k, H_k], [H_k, -H_k]]; entry (i, j) is -1 to
    the popcount of i & j."""
    return SignMatrix.of([[-1 if (i & j).bit_count() % 2 else 1 for j in range(n)]
                          for i in range(n)])


def paley1(p: int) -> SignMatrix:
    """Paley's first construction for a prime p = 3 mod 4: I + S with S the
    bordered Jacobsthal matrix [[0, 1], [-1, Q]], Q[i][j] the quadratic
    character of j - i mod p."""
    squares = {x * x % p for x in range(1, p)}

    def chi(a: int) -> int:
        return 0 if a % p == 0 else 1 if a % p in squares else -1

    n = p + 1
    s = [[0] + [1] * p] + [[-1] + [chi(j - i) for j in range(p)] for i in range(p)]
    return SignMatrix.of([[s[i][j] + (i == j) for j in range(n)] for i in range(n)])


def scrambled(h: SignMatrix, seed: int) -> SignMatrix:
    """h under a seeded random row and column permutation and sign flips
    of rows and columns: an equivalent Hadamard matrix."""
    rng = random.Random(seed)
    n = h.n
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    rsign = [rng.choice((1, -1)) for _ in range(n)]
    csign = [rng.choice((1, -1)) for _ in range(n)]
    return SignMatrix.of([[rsign[i] * csign[j] * h.rows[rows[i]][cols[j]] for j in range(n)]
                          for i in range(n)])


CONSTRUCTIONS = {
    "sylvester-16": lambda: sylvester(16),
    "paley-19": lambda: paley1(19),
    "paley-23": lambda: paley1(23),
}


def assert_on_search_path(h: SignMatrix) -> None:
    # normalize raises NotHadamard unless h is Hadamard
    pm = encode_matrix(canonicalize(zo_from_pm(normalize(h))))
    params = validate_order(pm.m)
    assert pm.rows[:2] == initial_rows(params)
    system = None
    for i in range(3, pm.m + 1):
        parent, row = pm.rows[i - 2], pm.rows[i - 1]
        system = build_system(parent, i, params, system)
        ones = dict(row)
        k = tuple(ones.get(2 * label, 0) for label, _ in parent)
        assert k in system.solutions, f"row {i}"


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_construction_lies_on_a_search_path(name):
    assert_on_search_path(CONSTRUCTIONS[name]())


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_scrambled_construction_lies_on_a_search_path(name, seed):
    assert_on_search_path(scrambled(CONSTRUCTIONS[name](), seed))
