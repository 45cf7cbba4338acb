import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadamard01 import (
    BitMatrix,
    NotHadamard,
    NotNormalized,
    SignMatrix,
    dot,
    is_hadamard_zo,
    normalize,
    pm_from_zo,
    verify_sign_hadamard,
    zo_from_pm,
)
from hadamard01.presentation import is_normalized
from test_constructions import paley1, scrambled, sylvester

H2 = SignMatrix.of([[1, 1], [1, -1]])
ZO3 = BitMatrix.of([[1, 1, 0], [1, 0, 1], [0, 1, 1]])


def columns_orthogonal(h: SignMatrix) -> bool:
    # the transposed condition, kept test-side on purpose
    n = h.n
    return all(
        sum(h.rows[k][i] * h.rows[k][j] for k in range(n)) == (n if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


def test_verify_order2():
    assert verify_sign_hadamard(H2)


def test_verify_rejects_rank_one():
    assert not verify_sign_hadamard(SignMatrix.of([[1, 1], [1, 1]]))


def test_verify_known15(known15):
    assert verify_sign_hadamard(pm_from_zo(known15))


def test_normalize_forced_flips():
    h = SignMatrix.of([[-1, 1], [1, 1]])
    assert normalize(h) == H2


def test_normalize_fixpoint():
    h4 = pm_from_zo(ZO3)
    assert normalize(h4) == h4


def test_normalize_rejects_non_hadamard():
    with pytest.raises(NotHadamard):
        normalize(SignMatrix.of([[1, 1], [1, 1]]))


@pytest.mark.parametrize("seed", range(10))
def test_normalize_undoes_random_sign_flips(seed):
    # flip random rows/columns of a normalized order-4 matrix, then check
    # normalize restores a valid all-ones border (the flips are the oracle)
    rng = random.Random(seed)
    base = pm_from_zo(ZO3)
    rows = [list(r) for r in base.rows]
    for i in range(4):
        if rng.random() < 0.5:
            rows[i] = [-e for e in rows[i]]
    for j in range(4):
        if rng.random() < 0.5:
            for row in rows:
                row[j] = -row[j]
    back = normalize(SignMatrix.of(rows))
    assert verify_sign_hadamard(back)
    assert all(e == 1 for e in back.rows[0])
    assert all(row[0] == 1 for row in back.rows)


def two_pass_normalize(h: SignMatrix) -> SignMatrix:
    # the flips written out, kept test-side as the reference for the
    # closed form: negate each row that starts with -1, then each column
    # whose new first entry is -1
    rows = [list(r) if r[0] == 1 else [-e for e in r] for r in h.rows]
    for j in range(h.n):
        if rows[0][j] == -1:
            for row in rows:
                row[j] = -row[j]
    return SignMatrix.of(rows)


SCRAMBLE_BASES = {
    "sylvester-4": lambda: sylvester(4),
    "sylvester-8": lambda: sylvester(8),
    "sylvester-16": lambda: sylvester(16),
    "paley-11": lambda: paley1(11),
    "paley-19": lambda: paley1(19),
    "paley-23": lambda: paley1(23),
}


@pytest.mark.parametrize("name", SCRAMBLE_BASES)
def test_normalize_matches_the_two_pass_flips_on_scrambled_constructions(name):
    h = SCRAMBLE_BASES[name]()
    for seed in range(20):
        g = scrambled(h, seed)
        assert normalize(g) == two_pass_normalize(g), f"seed {seed}"


def test_normalize_matches_the_two_pass_flips_on_small_sides():
    # every Hadamard sign matrix of side 0, 1 and 2, the empty one included
    for n in range(3):
        for entries in itertools.product((1, -1), repeat=n * n):
            h = SignMatrix.of([entries[i * n:(i + 1) * n] for i in range(n)])
            if verify_sign_hadamard(h):
                assert normalize(h) == two_pass_normalize(h), h
                assert is_normalized(normalize(h)), h


def test_zo_from_pm_order2():
    assert zo_from_pm(H2) == BitMatrix.of([[1]])


def test_zo_from_pm_requires_normal_form():
    with pytest.raises(NotNormalized):
        zo_from_pm(SignMatrix.of([[1, -1], [1, 1]]))


def test_pm_from_zo_single_entry():
    assert pm_from_zo(BitMatrix.of([[1]])) == H2


def test_pm_from_zo_order3():
    h = pm_from_zo(ZO3)
    assert h == SignMatrix.of(
        [[1, 1, 1, 1], [1, -1, -1, 1], [1, -1, 1, -1], [1, 1, -1, -1]]
    )
    assert verify_sign_hadamard(h)


def test_round_trip_known15(known15):
    assert zo_from_pm(pm_from_zo(known15)) == known15


bit_rows = st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m),
        min_size=m,
        max_size=m,
    )
)


@given(bit_rows)
def test_round_trip_any_bit_matrix(rows):
    t = BitMatrix.of(rows)
    assert zo_from_pm(pm_from_zo(t)) == t


sign_rows = st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.lists(
        st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m),
        min_size=m,
        max_size=m,
    )
)


@given(sign_rows)
def test_round_trip_any_normalized_sign_matrix(interior):
    # build an arbitrary normalized sign matrix from a free interior block
    n = len(interior) + 1
    rows = [[1] * n] + [[1] + list(r) for r in interior]
    h = SignMatrix.of(rows)
    assert pm_from_zo(zo_from_pm(h)) == h


bit_rows_2up = st.integers(min_value=2, max_value=8).flatmap(
    lambda m: st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m),
        min_size=m,
        max_size=m,
    )
)


@given(bit_rows_2up)
def test_characterizations_agree(rows):
    # m = 1 is excluded: its sign image is the order-2 Hadamard matrix but
    # the {0,1} characterization starts at m = 3
    t = BitMatrix.of(rows)
    assert verify_sign_hadamard(pm_from_zo(t)) == is_hadamard_zo(t)


@given(sign_rows)
def test_row_and_column_orthogonality_agree(interior):
    n = len(interior) + 1
    h = SignMatrix.of([[1] * n] + [[1] + list(r) for r in interior])
    assert verify_sign_hadamard(h) == columns_orthogonal(h)


def test_row_and_column_orthogonality_agree_on_hadamard(known15):
    h = pm_from_zo(known15)
    assert verify_sign_hadamard(h) and columns_orthogonal(h)


def test_characterizations_agree_on_generated_matrices(m7_matrices):
    from hadamard01 import decode_matrix

    for pm in m7_matrices:
        t = decode_matrix(pm)
        assert is_hadamard_zo(t)
        assert verify_sign_hadamard(pm_from_zo(t))


def orthogonal_by_definition(h: SignMatrix) -> bool:
    n = h.n
    return all(
        dot(h.rows[i], h.rows[j]) == (n if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


@given(sign_rows)
def test_verify_matches_definition(rows):
    h = SignMatrix.of(rows)
    assert verify_sign_hadamard(h) == orthogonal_by_definition(h)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_matches_definition_on_every_small_matrix(n):
    # sides 1 and 2 hold Hadamard matrices, side 3 (odd) none
    found = 0
    for entries in itertools.product([1, -1], repeat=n * n):
        h = SignMatrix.of([entries[r * n:(r + 1) * n] for r in range(n)])
        assert verify_sign_hadamard(h) == orthogonal_by_definition(h)
        found += verify_sign_hadamard(h)
    assert found == {1: 2, 2: 8, 3: 0}[n]
