from itertools import takewhile

import pytest

from hadamard01 import (
    GenConfig,
    OrderTooLarge,
    canonicalize,
    decode_matrix,
    encode_matrix,
    is_hadamard_zo,
    iter_matrices,
    validate_order,
)
from hadamard01.oracle import brute_force_canonical


def test_m3_single_matrix():
    params = validate_order(3)
    found = brute_force_canonical(params)
    assert found == set(iter_matrices(GenConfig(params)))
    assert len(found) == 1


def test_m7_equals_generator_output(m7_matrices):
    found = brute_force_canonical(validate_order(7))
    assert found == set(m7_matrices)


def test_members_decode_to_hadamard_matrices():
    for pm in brute_force_canonical(validate_order(7)):
        assert is_hadamard_zo(decode_matrix(pm))


def test_closed_under_canonicalization():
    for pm in brute_force_canonical(validate_order(7)):
        t = decode_matrix(pm)
        assert canonicalize(t) == t
        assert encode_matrix(t) == pm


def test_sampled_generator_outputs_are_members(m7_matrices):
    found = brute_force_canonical(validate_order(7))
    for pm in m7_matrices[::3]:
        assert pm in found


def test_cost_cap():
    with pytest.raises(OrderTooLarge):
        brute_force_canonical(validate_order(11))


@pytest.mark.parametrize("m, r, count", [(11, 5, 1440), (11, 6, 120),
                                         (15, 9, 4320), (15, 11, 48)])
def test_subtree_of_the_first_path_equals_the_search(m, r, count):
    # fix rows 1..r of the first emitted matrix; depth-first order puts the
    # search's whole subtree under them at the head of the stream
    params = validate_order(m)
    stream = iter_matrices(GenConfig(params, verify_each=False))
    first = next(stream)
    prefix = first.rows[:r]
    subtree = [first, *takewhile(lambda pm: pm.rows[:r] == prefix, stream)]
    assert len(subtree) == count
    found = brute_force_canonical(params, rows=prefix, allow_large=True)
    assert found == set(subtree)
