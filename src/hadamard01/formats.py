"""Text formats for matrix files.

Three record formats, all line-oriented ASCII:

grouplist   one record per line, ``HM_<m>_<k>:<nested lists>$`` with no
            interior whitespace.  The parser is tolerant: whitespace and
            line breaks may appear anywhere between tokens, record names
            are any identifier, so hand-wrapped listings parse too.
dense01     one matrix per block, rows as contiguous 0/1 characters, one
            row per line, blocks separated by a blank line.
densepm     same block layout with entries + and - for +1 and -1.
"""

from __future__ import annotations

import re
from typing import Iterable

from .core import BitMatrix, FormatError, SignMatrix
from .partition import (
    GroupList,
    PartitionMatrix,
    validate_partition_matrix,
)

FORMATS = ("grouplist", "dense01", "densepm")

_TOKEN = re.compile(r"([ \t]+)|(\n)|([\[\],:$])|(\d+)|([A-Za-z_][A-Za-z0-9_]*)")


def render_grouplist(pm: PartitionMatrix) -> str:
    """The compact nested-list body of a record, no whitespace."""
    rows = ",".join(
        "[" + ",".join(f"[{label},{count}]" for label, count in g.groups) + "]"
        for g in pm.rows
    )
    return f"[{rows}]"


def grouplist_record(pm: PartitionMatrix, index: int) -> str:
    """One canonical record line: HM_<m>_<index>:<body>$"""
    return f"HM_{pm.m}_{index}:{render_grouplist(pm)}$"


def write_grouplist(out, matrices: Iterable[PartitionMatrix]) -> int:
    count = 0
    for pm in matrices:
        count += 1
        out.write(grouplist_record(pm, count) + "\n")
    return count


class _Tokens:
    """Token stream over a record file, tracking line numbers."""

    def __init__(self, text: str):
        self.toks: list[tuple[str, int]] = []
        line = 1
        pos = 0
        for match in _TOKEN.finditer(text):
            if match.start() != pos:
                raise FormatError(
                    f"unexpected character {text[pos]!r}", line=line
                )
            pos = match.end()
            if match.group(1):
                continue
            if match.group(2):
                line += 1
                continue
            self.toks.append((match.group(0), line))
        if pos != len(text):
            raise FormatError(f"unexpected character {text[pos]!r}", line=line)
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    @property
    def line(self) -> int:
        if self.i < len(self.toks):
            return self.toks[self.i][1]
        return self.toks[-1][1] if self.toks else 1

    def take(self, expected: str | None = None) -> str:
        if self.i >= len(self.toks):
            raise FormatError("unexpected end of file", line=self.line)
        tok, line = self.toks[self.i]
        if expected is not None and tok != expected:
            raise FormatError(f"expected {expected!r}, found {tok!r}", line=line)
        self.i += 1
        return tok


def parse_grouplist(text: str) -> list[tuple[str, PartitionMatrix]]:
    """Parse all records of a grouplist file into (name, matrix) pairs.

    Raises FormatError (with line number) on malformed syntax and on group
    lists that violate the refinement invariants.
    """
    toks = _Tokens(text)
    records: list[tuple[str, PartitionMatrix]] = []
    while toks.peek() is not None:
        start_line = toks.line
        name = toks.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise FormatError(f"expected record name, found {name!r}", line=start_line)
        toks.take(":")
        rows = []
        toks.take("[")
        while True:
            rows.append(_parse_row(toks, depth=len(rows) + 1))
            if toks.peek() == ",":
                toks.take(",")
                continue
            break
        toks.take("]")
        toks.take("$")
        m = sum(count for _, count in rows[0].groups)
        pm = PartitionMatrix(m, tuple(rows))
        try:
            validate_partition_matrix(pm)
        except ValueError as exc:
            raise FormatError(f"record {name}: {exc}", line=start_line) from exc
        records.append((name, pm))
    return records


def _parse_row(toks: _Tokens, depth: int) -> GroupList:
    groups = []
    toks.take("[")
    while True:
        toks.take("[")
        try:
            label = int(toks.take())
            toks.take(",")
            count = int(toks.take())
        except ValueError:
            # int() rejected the token take() just returned
            tok, line = toks.toks[toks.i - 1]
            raise FormatError(f"expected an integer, found {tok!r}", line=line) from None
        toks.take("]")
        groups.append((label, count))
        if toks.peek() == ",":
            toks.take(",")
            continue
        break
    toks.take("]")
    return GroupList(depth, tuple(groups))


def write_dense01(out, matrices: Iterable[BitMatrix]) -> int:
    count = 0
    for t in matrices:
        if count:
            out.write("\n")
        count += 1
        for row in t.rows:
            out.write("".join(str(e) for e in row) + "\n")
    return count


def parse_dense01(text: str) -> list[BitMatrix]:
    """Parse blank-line-separated blocks of 0/1 rows into square matrices."""
    blocks = _blocks(text, alphabet="01", kind="dense01")
    matrices = []
    for block, start_line in blocks:
        _require_square(block, start_line)
        matrices.append(
            BitMatrix.of([[int(ch) for ch in line] for line, _ in block])
        )
    return matrices


_PM_ENTRY = {"+": 1, "-": -1}


def write_densepm(out, matrices: Iterable[SignMatrix]) -> int:
    count = 0
    for h in matrices:
        if count:
            out.write("\n")
        count += 1
        for row in h.rows:
            out.write("".join("+" if e == 1 else "-" for e in row) + "\n")
    return count


def parse_densepm(text: str) -> list[SignMatrix]:
    """Parse blank-line-separated blocks of +/- rows into square matrices."""
    blocks = _blocks(text, alphabet="+-", kind="densepm")
    matrices = []
    for block, start_line in blocks:
        _require_square(block, start_line)
        matrices.append(
            SignMatrix.of([[_PM_ENTRY[ch] for ch in line] for line, _ in block])
        )
    return matrices


def _blocks(
    text: str, alphabet: str, kind: str
) -> list[tuple[list[tuple[str, int]], int]]:
    """Split into (block, start line) pairs of consecutive data lines."""
    blocks: list[list[tuple[str, int]]] = []
    current: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        bad = next((ch for ch in line if ch not in alphabet), None)
        if bad is not None:
            raise FormatError(
                f"invalid character {bad!r} in {kind} row", line=lineno
            )
        current.append((line, lineno))
    if current:
        blocks.append(current)
    return [(block, block[0][1]) for block in blocks]


def _require_square(block: list[tuple[str, int]], start_line: int) -> None:
    m = len(block)
    for line, lineno in block:
        if len(line) != m:
            raise FormatError(
                f"block starting here is not square: {m} rows but a row of "
                f"length {len(line)}",
                line=start_line,
            )
