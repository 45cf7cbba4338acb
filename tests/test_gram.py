import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadamard01 import (
    BitMatrix,
    canonicalize,
    decode_matrix,
    encode_matrix,
    gram_cols,
    gram_rows,
    is_hadamard_zo,
)
from hadamard01.core import pack_row
from hadamard01.gram import is_hadamard_masks
from hadamard01.partition import row_mask

ZO3 = BitMatrix.of([[1, 1, 0], [1, 0, 1], [0, 1, 1]])


def pattern(m, a, b):
    return tuple(
        tuple(b if i == j else a for j in range(m)) for i in range(m)
    )


def test_gram_rows_known15(known15):
    assert gram_rows(known15) == pattern(15, 4, 8)


def test_gram_rows_order3():
    assert gram_rows(ZO3) == ((2, 1, 1), (1, 2, 1), (1, 1, 2))


def test_gram_rows_zero_matrix():
    z = BitMatrix.of([[0] * 3] * 3)
    assert gram_rows(z) == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_gram_cols_known15(known15):
    assert gram_cols(known15) == pattern(15, 4, 8)


def test_gram_cols_identity():
    i2 = BitMatrix.of([[1, 0], [0, 1]])
    assert gram_cols(i2) == ((1, 0), (0, 1))


bit_rows = st.integers(min_value=1, max_value=7).flatmap(
    lambda m: st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m),
        min_size=m,
        max_size=m,
    )
)


@given(bit_rows)
def test_gram_cols_is_gram_of_transpose(rows):
    t = BitMatrix.of(rows)
    assert gram_cols(t) == gram_rows(t.transpose())


@given(bit_rows)
def test_gram_symmetry_and_bounds(rows):
    t = BitMatrix.of(rows)
    g = gram_rows(t)
    m = t.m
    for i in range(m):
        for j in range(m):
            assert g[i][j] == g[j][i]
            assert 0 <= g[i][j] <= m


def test_is_hadamard_known15(known15):
    assert is_hadamard_zo(known15)


def test_is_hadamard_order3():
    assert is_hadamard_zo(ZO3)


def test_all_ones_is_not_hadamard():
    assert not is_hadamard_zo(BitMatrix.of([[1] * 3] * 3))


def test_side_one_is_not_hadamard():
    assert not is_hadamard_zo(BitMatrix.of([[1]]))
    assert not is_hadamard_zo(BitMatrix.of([[0]]))


@pytest.mark.parametrize("m", [4, 5, 6, 8])
def test_wrong_side_is_not_hadamard(m):
    assert not is_hadamard_zo(BitMatrix.of([[0] * m] * m))


def test_predicate_equals_gram_pattern_check(known15):
    # the packed-int predicate and the explicit gram computation must agree
    for t in (known15, ZO3, BitMatrix.of([[1] * 3] * 3)):
        a, b = (t.m + 1) // 4, (t.m + 1) // 2
        assert is_hadamard_zo(t) == (gram_rows(t) == pattern(t.m, a, b))


@pytest.mark.parametrize("m", [3, 7, 11])
def test_row_column_duality_on_random_matrices(m):
    rng = random.Random(m)
    target = pattern(m, (m + 1) // 4, (m + 1) // 2)
    for _ in range(1000):
        t = BitMatrix.of(
            [[rng.randint(0, 1) for _ in range(m)] for _ in range(m)]
        )
        assert (gram_rows(t) == target) == (gram_cols(t) == target)
        assert is_hadamard_zo(t) == (gram_rows(t) == target)


def test_scaling_identity_on_generated_matrices(m7_matrices):
    # every Gram entry of a valid matrix is n*(delta+1)/4, checked exactly
    from hadamard01 import decode_matrix

    for pm in m7_matrices:
        t = decode_matrix(pm)
        n = t.m + 1
        g = gram_rows(t)
        for i in range(t.m):
            for j in range(t.m):
                assert 4 * g[i][j] == n * ((1 if i == j else 0) + 1)


def test_row_column_duality_on_generated_matrices(m7_matrices):
    from hadamard01 import decode_matrix

    target = pattern(7, 2, 4)
    for pm in m7_matrices:
        t = decode_matrix(pm)
        assert gram_rows(t) == target
        assert gram_cols(t) == target


def assert_mask_check_matches_decoded(pm):
    t = decode_matrix(pm)
    masks = [row_mask(g) for g in pm.rows]
    assert masks == [pack_row(row) for row in t.rows]
    assert is_hadamard_masks(masks) == is_hadamard_zo(t)


def test_mask_check_matches_decoded_check_on_generated_matrices(m7_matrices, known15):
    for pm in m7_matrices:
        assert_mask_check_matches_decoded(pm)
        assert is_hadamard_masks([row_mask(g) for g in pm.rows])
    assert_mask_check_matches_decoded(encode_matrix(known15))


@given(
    st.sampled_from([3, 7, 11]).flatmap(
        lambda m: st.lists(
            st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m),
            min_size=m,
            max_size=m,
        )
    )
)
def test_mask_check_matches_decoded_check_on_random_matrices(rows):
    # almost every draw is non-Hadamard, so the False verdicts get checked
    assert_mask_check_matches_decoded(encode_matrix(canonicalize(BitMatrix.of(rows))))


def gram_pattern_rows(m):
    """m masks with weight 2q and pairwise overlap q, q = (m+1)//4: q ones
    shared by every row, then q ones of each row's own."""
    q = (m + 1) // 4
    ones = (1 << q) - 1
    return [ones | ones << (q * (i + 1)) for i in range(m)]


def test_mask_check_wants_m_rows():
    assert is_hadamard_masks([0b110, 0b101, 0b011])
    assert not is_hadamard_masks([0b110, 0b101])
    assert not is_hadamard_masks([0b1])
    # an inadmissible row count gives False without raising, even when the
    # rows meet the Gram pattern its q = (m+1)//4 would ask for
    for m in (0, 1, 2, 4, 5, 6, 8, 9, 10, 12):
        q = (m + 1) // 4
        rows = gram_pattern_rows(m)
        assert all(u.bit_count() == 2 * q for u in rows)
        assert all((u & v).bit_count() == q for i, u in enumerate(rows) for v in rows[:i])
        for masks in (rows, [0] * m, [(1 << m) - 1] * m):
            for start in (0, m):
                assert is_hadamard_masks(masks, start) is False, (m, masks, start)
