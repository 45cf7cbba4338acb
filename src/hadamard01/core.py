"""Shared domain types, errors, and elementary predicates.

Everything in this package is exact integer arithmetic: matrices over
{0,1} or {-1,+1}, scalar products, and small linear systems.  No floats
anywhere.
"""

from __future__ import annotations

from typing import Sequence


class HadamardError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrder(HadamardError):
    """The order m is not admissible: the search needs m >= 3 and
    m = 3 mod 4, and a {0,1} form needs m >= 1."""


class LengthMismatch(HadamardError):
    """Two vectors passed to a scalar product differ in length."""


class NotHadamard(HadamardError):
    """A sign matrix expected to be Hadamard fails the orthogonality check."""


class NotNormalized(HadamardError):
    """A sign matrix whose first row/column should be all ones is not."""


class NonCanonicalRow(HadamardError):
    """A bit row is not ones-first within the spans of its parent groups;
    raised by encode_matrix, its message starts ``row <i>: `` (1-based)."""


class OrderTooLarge(HadamardError):
    """A brute-force enumeration was requested beyond its cost cap."""


class InternalInvariantViolation(HadamardError):
    """The generator emitted a matrix that failed verification (a bug)."""


class FormatError(HadamardError):
    """A text record could not be parsed.  Carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Frozen:
    """Base of the package's immutable value types: ``BitMatrix`` and
    ``SignMatrix`` (on ``_Square``), ``SearchParams``,
    ``partition.PartitionMatrix``, ``solver.RowSystem`` and
    ``generator.GenConfig``.

    A subclass keeps its fields in ``__slots__``, sets each once in
    ``__init__`` with ``_set``, and names in ``_fields`` the ones that make
    up its value.  Those give equality (only with an instance of the same
    class), the hash and the repr, as for a frozen dataclass; assigning or
    deleting a field raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _set = object.__setattr__  # self._set(name, value), for __init__ only

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Square(Frozen):
    """A square matrix, its value its rows: a tuple of row tuples, each
    entry one of the subclass's two ``_entries`` (by value, so True and
    1.0 pass as 1).  Construction raises ValueError at the first row or
    entry that is not."""

    __slots__ = _fields = ("rows",)
    _entries: tuple[int, int]
    _kind: str  # what an entry is, for the error message
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        side, entries = len(rows), self._entries
        for row in rows:
            if len(row) != side:
                raise ValueError(f"matrix is not square: side {side}, row of length {len(row)}")
            for e in row:
                if e not in entries:
                    raise ValueError(f"entry {e!r} is not a {self._kind}")
        self._set("rows", rows)

    @classmethod
    def of(cls, rows: Sequence[Sequence[int]]) -> _Square:
        return cls(tuple(tuple(r) for r in rows))


class BitMatrix(_Square):
    """Square matrix over {0,1}: a candidate or confirmed Hadamard matrix
    in {0,1} form (side m)."""

    __slots__ = ()
    _entries, _kind = (0, 1), "bit"

    @property
    def m(self) -> int:
        return len(self.rows)

    def transpose(self) -> "BitMatrix":
        return BitMatrix(tuple(zip(*self.rows)))


class SignMatrix(_Square):
    """Square matrix over {-1,+1}: a classical Hadamard matrix candidate
    (side n)."""

    __slots__ = ()
    _entries, _kind = (1, -1), "sign"

    @property
    def n(self) -> int:
        return len(self.rows)


class SearchParams(Frozen):
    """The search constants of an admissible order m, the one place they
    are derived: q = (m+1)/4 is the quarter, which is also the pairwise
    row overlap, and b = 2q is the row weight.  The value is m alone.

    Raises InvalidOrder unless m is an integer >= 3 with m = 3 mod 4.
    """

    __slots__ = ("m", "q", "b")
    _fields = ("m",)
    m: int
    q: int
    b: int

    def __init__(self, m: int):
        if not isinstance(m, int) or isinstance(m, bool) or m < 3 or m % 4 != 3:
            raise InvalidOrder(f"m={m} is incorrect size for Hadamard matrices")
        self._set("m", m)
        self._set("q", (m + 1) // 4)
        self._set("b", 2 * self.q)


def validate_order(m: int) -> SearchParams:
    """The search constants of order m: ``SearchParams(m)``, which raises
    InvalidOrder unless m is an integer >= 3 with m = 3 mod 4."""
    return SearchParams(m)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Standard scalar product of two equal-length integer vectors."""
    if len(u) != len(v):
        raise LengthMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def pack_row(bits: Sequence[int]) -> int:
    """Pack a bit row into an int mask, leftmost bit most significant.

    With this convention dot(u, v) == (pack_row(u) & pack_row(v)).bit_count()
    for bit rows, which the hot verification paths rely on.
    """
    mask = 0
    for b in bits:
        mask = (mask << 1) | b
    return mask
