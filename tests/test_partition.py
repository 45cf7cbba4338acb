import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadamard01 import (
    BitMatrix,
    NonCanonicalRow,
    canonicalize,
    decode_matrix,
    decode_row,
    encode_matrix,
    encode_row,
)
from hadamard01.partition import (
    PartitionMatrix,
    root_group_list,
    validate_partition_matrix,
)

from conftest import KNOWN_3_GROUPS, bits


def test_decode_row_two_groups():
    g = ((0, 8), (1, 7))
    assert decode_row(g) == bits("111111110000000")


def test_decode_row_parity_rule():
    g = ((1, 1), (2, 1), (4, 1))
    assert decode_row(g) == (0, 1, 1)


@pytest.mark.parametrize("m", [3, 7, 15])
def test_decode_row_single_even_group(m):
    assert decode_row(((0, m),)) == (1,) * m


def test_encode_row_depth2(known15):
    parent = ((0, 8), (1, 7))
    g = encode_row(known15.rows[1], parent)
    assert g == ((0, 4), (1, 4), (2, 4), (3, 3))


def test_encode_row_depth3(known15):
    parent = ((0, 4), (1, 4), (2, 4), (3, 3))
    g = encode_row(known15.rows[2], parent)
    assert g == ((0, 3), (1, 1), (2, 1), (3, 3), (4, 1), (5, 3), (6, 3))


def test_encode_row_all_zeros():
    parent = ((0, 2), (1, 2), (2, 2), (3, 1))
    g = encode_row((0,) * 7, parent)
    assert g == ((1, 2), (3, 2), (5, 2), (7, 1))


def test_encode_row_rejects_scattered_ones():
    parent = root_group_list(4)
    with pytest.raises(NonCanonicalRow):
        encode_row((1, 0, 1, 0), parent)


def test_encode_row_rejects_a_row_of_another_length():
    # a whole-matrix encode never gets here (BitMatrix is square), so the
    # error carries no row index
    message = "row length 4 does not match parent span total 3"
    with pytest.raises(NonCanonicalRow, match=message) as exc:
        encode_row((1, 1, 0, 0), root_group_list(3))
    assert exc.value.row_index is None


def test_encode_matrix_known15(known15):
    pm = encode_matrix(known15)
    validate_partition_matrix(pm)
    assert pm.rows[0] == ((0, 8), (1, 7))
    assert pm.rows[1] == ((0, 4), (1, 4), (2, 4), (3, 3))
    assert decode_matrix(pm) == known15


def test_encode_matrix_order3():
    t = BitMatrix.of([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    pm = encode_matrix(t)
    assert pm.rows == KNOWN_3_GROUPS
    assert decode_matrix(pm) == t


def test_encode_matrix_reports_offending_row():
    t = BitMatrix.of([[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # row 2 breaks the layout
    with pytest.raises(NonCanonicalRow) as exc:
        encode_matrix(t)
    assert exc.value.row_index == 2


def test_decode_single_group_row_is_all_ones():
    assert decode_row(((0, 7),)) == (1,) * 7


bit_square = st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m),
        min_size=m,
        max_size=m,
    )
)


@given(bit_square)
def test_canonicalize_then_round_trip(rows):
    t = canonicalize(BitMatrix.of(rows))
    assert decode_matrix(encode_matrix(t)) == t


@given(bit_square)
def test_canonicalize_is_idempotent(rows):
    t = canonicalize(BitMatrix.of(rows))
    assert canonicalize(t) == t


@given(bit_square)
def test_canonicalize_preserves_row_weights(rows):
    t = BitMatrix.of(rows)
    c = canonicalize(t)
    assert [sum(r) for r in c.rows] == [sum(r) for r in t.rows]


def test_encode_decode_row_is_identity(known15):
    pm = encode_matrix(known15)
    parent = root_group_list(15)
    for g in pm.rows:
        assert encode_row(decode_row(g), parent) == g
        parent = g


def test_label_bits_record_membership_history(known15):
    # column c sits in a row-i group whose label has bit (i-j) clear exactly
    # when row j carries a 1 at c, for every j <= i
    pm = encode_matrix(known15)
    for i, g in enumerate(pm.rows, start=1):
        pos = 0
        for label, count in g:
            for c in range(pos, pos + count):
                for j in range(1, i + 1):
                    bit = (label >> (i - j)) & 1
                    assert (bit == 0) == (known15.rows[j - 1][c] == 1)
            pos += count


def test_row_invariants_on_known15(known15):
    pm = encode_matrix(known15)
    validate_partition_matrix(pm)
    for i, g in enumerate(pm.rows, start=1):
        assert sum(c for _, c in g) == 15
        assert len(g) <= min(2 ** i, 15)


def test_validate_rejects_refinement_breaks():
    rows = (
        ((0, 2), (1, 1)),
        ((0, 1), (5, 1), (3, 1)),  # label 5 out of range, order broken
    )
    with pytest.raises(ValueError):
        validate_partition_matrix(PartitionMatrix(3, rows))


def test_validate_rejects_orphan_child():
    rows = (
        ((0, 3),),
        ((0, 2), (3, 1)),  # parent group 1 never existed
    )
    with pytest.raises(ValueError):
        validate_partition_matrix(PartitionMatrix(3, rows))


def test_validate_rejects_bad_child_counts():
    rows = (
        ((0, 2), (1, 1)),
        ((0, 2), (1, 1)),  # children of group 0 sum to 3 != 2
    )
    with pytest.raises(ValueError):
        validate_partition_matrix(PartitionMatrix(3, rows))


def test_random_column_shuffles_canonicalize_to_same_matrix(known15):
    rng = random.Random(5)
    cols = list(range(15))
    for _ in range(10):
        rng.shuffle(cols)
        shuffled = BitMatrix.of(
            [[row[c] for c in cols] for row in known15.rows]
        )
        assert canonicalize(shuffled) == known15
