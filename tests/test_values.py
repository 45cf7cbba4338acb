"""Value semantics of the immutable domain types: fields cannot be
assigned, equality holds only within one class, the hash follows
equality, and the repr names every field that makes up the value."""

import importlib
import pickle
import pkgutil

import pytest

import hadamard01
from hadamard01 import (
    BitMatrix,
    GenConfig,
    PartitionMatrix,
    SearchParams,
    SignMatrix,
    initial_rows,
    validate_order,
)
from hadamard01.core import Frozen
from hadamard01.partition import child_row
from hadamard01.solver import RowSystem, build_system

# name: (a fresh value, its repr, one of its fields)
VALUES = {
    "BitMatrix": (lambda: BitMatrix(((1, 0), (0, 1))),
                  "BitMatrix(rows=((1, 0), (0, 1)))", "rows"),
    "SignMatrix": (lambda: SignMatrix(((1, 1), (1, -1))),
                   "SignMatrix(rows=((1, 1), (1, -1)))", "rows"),
    "SearchParams": (lambda: validate_order(7), "SearchParams(m=7)", "q"),
    "GenConfig": (lambda: GenConfig(validate_order(7), limit=5),
                  "GenConfig(params=SearchParams(m=7), limit=5, "
                  "verify_each=True, progress=False)", "limit"),
    "RowSystem": (lambda: RowSystem(3, (1, 1), (((0, 1), 1),)),
                  "RowSystem(i=3, bounds=(1, 1), equations=(((0, 1), 1),))", "prev"),
    "PartitionMatrix": (lambda: PartitionMatrix((((0, 2), (1, 1)),)),
                        "PartitionMatrix(rows=(((0, 2), (1, 1)),))", "rows"),
}


def test_every_public_value_type_is_covered():
    # a value type is a public subclass of core.Frozen, at any depth
    for info in pkgutil.iter_modules(hadamard01.__path__):
        importlib.import_module(f"hadamard01.{info.name}")
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("hadamard01.") and not sub.__name__.startswith("_"):
                found.add(sub.__name__)
    assert found == set(VALUES)


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, _, field = VALUES[name]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict either


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_hash_alike(name):
    make, _, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", VALUES)
def test_repr_names_every_field(name):
    make, expected, _ = VALUES[name]
    assert repr(make()) == expected


def test_equality_needs_the_same_class():
    rows = ((1,),)
    assert BitMatrix(rows) != SignMatrix(rows)
    assert SignMatrix(rows) != BitMatrix(rows)
    assert BitMatrix(rows) != (rows,)
    assert validate_order(7) != (7, 2, 4)
    assert BitMatrix(rows) != BitMatrix(((0,),))
    assert GenConfig(validate_order(7)) != GenConfig(validate_order(7), limit=1)
    groups = (((0, 1),),)
    assert PartitionMatrix(groups) != (groups,)
    with pytest.raises(TypeError):
        len(PartitionMatrix(groups))


def test_the_order_is_the_one_stored_value(m7_matrices):
    # q and b follow from m, and a matrix's order is its row count, so
    # neither can be passed beside them
    with pytest.raises(TypeError):
        SearchParams(7, 3, 5)
    with pytest.raises(TypeError):
        PartitionMatrix(7, m7_matrices[0].rows)


def test_matrix_constructors_validate():
    with pytest.raises(ValueError, match="not square"):
        BitMatrix(((1, 0),))
    with pytest.raises(ValueError, match="not a bit"):
        BitMatrix(((2,),))
    with pytest.raises(ValueError, match="not a sign"):
        SignMatrix(((0,),))


def test_systems_built_from_prev_equal_and_hash_like_their_rebuild():
    params = validate_order(7)
    stack = [(list(initial_rows(params)), 3, None)]
    reused = 0
    while stack:
        rows, i, prev = stack.pop()
        system = build_system(rows[-1], i, params, prev)
        rebuilt = build_system(rows[-1], i, params)
        assert system == rebuilt and hash(system) == hash(rebuilt)
        assert repr(system) == repr(rebuilt)
        reused += system.prev is not None
        if i < params.m:
            stack += [([*rows, child_row(rows[-1], k)], i + 1, system) for k in system.solutions]
    assert reused > 0


def test_prev_takes_no_part_in_equality_and_solutions_are_kept():
    base = RowSystem(3, (2, 2), (((0, 1), 2),))
    extended = RowSystem(4, (2, 2), (((0, 1), 2), ((0,), 1)), base)
    rebuilt = RowSystem(4, (2, 2), (((0, 1), 2), ((0,), 1)))
    assert extended == rebuilt and hash(extended) == hash(rebuilt)
    assert extended.prev is base and rebuilt.prev is None
    assert extended.solutions == rebuilt.solutions == ((1, 1),)
    assert extended.solutions is extended.solutions  # computed once
