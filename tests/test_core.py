import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadamard01 import InvalidOrder, LengthMismatch, SearchParams, dot, validate_order
from hadamard01.core import pack_row

from conftest import bits


def test_validate_order_m15():
    p = validate_order(15)
    assert (p.m, p.q, p.b) == (15, 4, 8)


def test_validate_order_smallest():
    p = validate_order(3)
    assert (p.m, p.q, p.b) == (3, 1, 2)


@pytest.mark.parametrize("bad", [14, 13, 12, 4, 2, 1, 0, -1, -5])
def test_validate_order_rejects(bad):
    with pytest.raises(InvalidOrder) as exc:
        validate_order(bad)
    assert str(bad) in str(exc.value)
    assert "incorrect size for Hadamard matrices" in str(exc.value)


def test_validate_order_rejects_non_integer():
    with pytest.raises(InvalidOrder):
        validate_order(7.0)


@pytest.mark.parametrize("m", range(3, 64, 4))
def test_search_params_follow_from_m(m):
    p = validate_order(m)
    assert (p.m, 4 * p.q - 1, p.b) == (m, m, 2 * p.q)
    again = pickle.loads(pickle.dumps(p))
    assert again == p and (again.q, again.b) == (p.q, p.b)
    assert hash(SearchParams(m)) == hash(p) and SearchParams(m) == p


@pytest.mark.parametrize("bad", [0, 1, 4, 8, -1, 7.0, True, "7"])
def test_search_params_reject_what_validate_order_rejects(bad):
    with pytest.raises(InvalidOrder, match="incorrect size for Hadamard matrices"):
        SearchParams(bad)
    with pytest.raises(InvalidOrder, match="incorrect size for Hadamard matrices"):
        validate_order(bad)


def test_dot_known_rows():
    # rows 1 and 2 of the known 15x15 matrix overlap in exactly 4 columns
    assert dot(bits("111111110000000"), bits("111100001111000")) == 4


def test_dot_disjoint():
    assert dot(bits("000"), bits("111")) == 0


def test_dot_self_is_weight():
    assert dot(bits("1111000"), bits("1111000")) == 4


def test_dot_length_mismatch():
    with pytest.raises(LengthMismatch):
        dot((1, 0), (1, 0, 1))


bit_vectors = st.lists(st.sampled_from([0, 1]), min_size=0, max_size=24).map(tuple)


@given(st.tuples(bit_vectors, bit_vectors))
def test_dot_symmetric(pair):
    u, v = pair
    if len(u) != len(v):
        return
    assert dot(u, v) == dot(v, u)


@given(bit_vectors)
def test_dot_self_counts_ones(u):
    assert dot(u, u) == sum(u)


@given(bit_vectors)
def test_pack_row_popcount_matches_dot(u):
    assert pack_row(u).bit_count() == dot(u, u)


@given(st.integers(min_value=0, max_value=200).map(lambda k: 4 * k + 3))
def test_weight_is_twice_overlap(m):
    p = validate_order(m)
    assert p.b == 2 * p.q
