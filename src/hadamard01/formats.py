"""Text formats for matrix files.

Three record formats, all line-oriented ASCII:

grouplist   one record per line, ``HM_<m>_<k>:<nested lists>$`` with no
            interior whitespace.  The parser is tolerant: whitespace and
            line breaks may appear anywhere between tokens, record names
            are any identifier, so hand-wrapped listings parse too.  A
            line holding exactly one record takes a one-regex fast path.
dense01     one matrix per block, rows as contiguous 0/1 characters, one
            row per line, blocks separated by a blank line.
densepm     same block layout with entries + and - for +1 and -1.

The parsers take an iterable of lines (such as an open text file) and
yield one record at a time, so a file of any size is read in bounded
memory.  They take ASCII only: any other character, Unicode digits and
spaces included, is a FormatError on its line.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Iterator

from .core import BitMatrix, FormatError, SignMatrix
from .partition import (
    GroupList,
    PartitionMatrix,
    shared_prefix,
    validate_partition_matrix,
)

FORMATS = ("grouplist", "dense01", "densepm")

# ASCII digits only: \d and int() would take other scripts' digits too
_TOKEN = re.compile(r"([ \t]+)|(\n)|([\[\],:$])|([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)")
# numbers short enough for int(); a longer one goes to the tokenizer, which reports it
_PAIR = r"\[[0-9]{1,999},[0-9]{1,999}\]"
_ROW = rf"\[{_PAIR}(?:,{_PAIR})*\]"
# one whole record on one line, as the writer emits it: (name, rows)
_RECORD = re.compile(rf"([A-Za-z_][A-Za-z0-9_]*):\[({_ROW}(?:,{_ROW})*)\]\$\n?")


def _bad_char(ch: str, message: str, line: int) -> FormatError:
    """``message`` for a character a reader does not take; a non-ASCII one
    is named by its code, as a byte where it can be one (read as latin-1)."""
    if ch.isascii():
        return FormatError(message, line=line)
    code = ord(ch)
    what = f"byte {code:#04x}" if code < 0x100 else f"character U+{code:04X}"
    return FormatError(f"non-ASCII {what}", line=line)


def _render_row(g: GroupList) -> str:
    return "[" + ",".join(f"[{label},{count}]" for label, count in g) + "]"


def render_grouplist(pm: PartitionMatrix) -> str:
    """The compact nested-list body of a record, no whitespace."""
    return "[" + ",".join(map(_render_row, pm.rows)) + "]"


def grouplist_record(pm: PartitionMatrix, index: int) -> str:
    """One canonical record line: HM_<m>_<index>:<body>$"""
    return f"HM_{pm.m}_{index}:{render_grouplist(pm)}$"


def write_grouplist(out, matrices: Iterable[PartitionMatrix]) -> int:
    """Write canonical record lines.  Successive matrices of a depth-first
    search share the row objects of their common prefix, so the leading
    rows equal to those of the last record keep their text and only the
    rows after them are rendered."""
    count = 0
    last: tuple[GroupList, ...] = ()  # the rows of the last record written
    texts: list[str] = []  # and their text
    for pm in matrices:
        count += 1
        rows = pm.rows
        d = shared_prefix(rows, last)
        last = rows
        del texts[d:]
        texts += map(_render_row, rows[d:])
        out.write(f"HM_{pm.m}_{count}:[{','.join(texts)}]$\n")
    return count


class _Tokens:
    """Token stream over numbered lines of a record file.

    Tokens are read one at a time, only as far as the parser looks, so a
    long line of many records is parsed in memory bounded by one record.
    A line is pulled from ``lines`` only when the tokens of the lines
    before it are used up.
    """

    def __init__(self, lines: Iterator[tuple[int, str]]):
        self.lines = lines
        self.text = ""  # the line being read
        self.at = 0  # its number
        self.pos = 0  # where its unread part starts
        self.tok: str | None = None  # the next token, once read ahead
        self.line = 1  # the line of the last token read

    def feed(self, text: str, line: int) -> None:
        """Read tokens from this line next."""
        self.text, self.at, self.pos = text, line, 0

    def buffered(self) -> bool:
        """Whether the line being read has a token left (read ahead)."""
        text = self.text
        while self.tok is None and self.pos < len(text):
            match = _TOKEN.match(text, self.pos)
            if match is None:
                ch = text[self.pos]
                raise _bad_char(ch, f"unexpected character {ch!r}", self.at)
            self.pos = match.end()
            if match.lastindex > 2:  # not whitespace or a line break
                self.tok, self.line = match.group(), self.at
        return self.tok is not None

    def peek(self) -> str | None:
        while not self.buffered():
            line, text = next(self.lines, (0, None))
            if text is None:
                return None
            self.feed(text, line)
        return self.tok

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise FormatError("unexpected end of file", line=self.line)
        if expected is not None and tok != expected:
            raise FormatError(f"expected {expected!r}, found {tok!r}", line=self.line)
        self.tok = None
        return tok

    def number(self) -> int:
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"expected an integer, found {tok!r}", line=self.line) from None


def parse_grouplist(lines: Iterable[str]) -> Iterator[tuple[str, PartitionMatrix]]:
    """Parse the records of a grouplist file into (name, matrix) pairs,
    pulling lines only as far as the record being yielded.

    A line that is one canonical record is matched whole by ``_RECORD``;
    any other line goes to the tolerant tokenizer, which reads on until
    its record ends.  Raises FormatError (with line number) on malformed
    syntax and on group lists that violate the refinement invariants.

    Successive canonical records share leading rows, as a depth-first
    search writes them.  The leading rows whose text equals that of the
    last canonical record keep that record's row tuples, and only the
    rows after them are decoded and validated: a row's validity depends
    only on its parent row and m, which the shared text fixes, and the
    last record was validated whole (a record that fails ends the
    stream).  Reused rows are the same objects, so consumers that keep
    per-row work, such as the writer and the Gram check of ``verify``,
    redo only the new rows too.
    """
    numbered = enumerate(lines, start=1)
    toks = _Tokens(numbered)  # shares the line iterator with this loop
    last: list[str] = []  # the row texts of the last canonical record
    rows: list[GroupList] = []  # and its rows
    for line, text in numbered:
        if match := _RECORD.fullmatch(text):
            texts = match[2][2:-2].split("]],[[")
            d = shared_prefix(texts, last)
            rows = rows[:d]
            for row in texts[d:]:
                nums = map(int, row.replace("],[", ",").split(","))
                rows.append(tuple(zip(nums, nums)))  # (label, count)
            last = texts
            yield _checked(match[1], rows, line, d)
            continue
        toks.feed(text, line)
        while toks.buffered():
            yield _parse_record(toks)


def _parse_record(toks: _Tokens) -> tuple[str, PartitionMatrix]:
    start_line = toks.line
    name = toks.take()
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise FormatError(f"expected record name, found {name!r}", line=start_line)
    toks.take(":")
    rows = []
    toks.take("[")
    while True:
        rows.append(_parse_row(toks))
        if toks.peek() == ",":
            toks.take(",")
            continue
        break
    toks.take("]")
    toks.take("$")
    return _checked(name, rows, start_line)


def _checked(
    name: str, rows: list[GroupList], line: int, start: int = 0
) -> tuple[str, PartitionMatrix]:
    m = sum(count for _, count in rows[0])
    pm = PartitionMatrix(m, tuple(rows))
    try:
        validate_partition_matrix(pm, start)
    except ValueError as exc:
        raise FormatError(f"record {name}: {exc}", line=line) from exc
    return name, pm


def _parse_row(toks: _Tokens) -> GroupList:
    groups = []
    toks.take("[")
    while True:
        toks.take("[")
        label = toks.number()
        toks.take(",")
        count = toks.number()
        toks.take("]")
        groups.append((label, count))
        if toks.peek() == ",":
            toks.take(",")
            continue
        break
    toks.take("]")
    return tuple(groups)


# dense01 and densepm are one block format with two alphabets.  Entries are
# written by value, so a BitMatrix entry True or 1.0 is written as "1".
_BITS = {0: "0", 1: "1"}
_SIGNS = {1: "+", -1: "-"}
_ASCII_SPACE = " \t\n\r\f\v"  # str.strip() would strip Unicode spaces too


def write_dense01(out, matrices: Iterable[BitMatrix]) -> int:
    return _write_blocks(out, matrices, _BITS)


def write_densepm(out, matrices: Iterable[SignMatrix]) -> int:
    return _write_blocks(out, matrices, _SIGNS)


def parse_dense01(lines: Iterable[str]) -> Iterator[BitMatrix]:
    """Parse blank-line-separated blocks of 0/1 rows into square matrices."""
    yield from _read_blocks(lines, _BITS, BitMatrix, "dense01")


def parse_densepm(lines: Iterable[str]) -> Iterator[SignMatrix]:
    """Parse blank-line-separated blocks of +/- rows into square matrices."""
    yield from _read_blocks(lines, _SIGNS, SignMatrix, "densepm")


def _write_blocks(out, matrices: Iterable, chars: dict[int, str]) -> int:
    count = 0
    for t in matrices:
        if count:
            out.write("\n")
        count += 1
        for row in t.rows:
            out.write("".join(map(chars.__getitem__, row)) + "\n")
    return count


def _read_blocks(lines: Iterable[str], chars: dict[int, str], matrix_type, kind: str) -> Iterator:
    """Yield each block of ``lines`` as a ``matrix_type`` as soon as it ends.
    A block fails at the first row that shows it is not square, so a
    malformed block is rejected in bounded memory."""
    value = {ch: v for v, ch in chars.items()}
    alphabet = "".join(value)
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(chain(lines, [""]), start=1):  # "" ends the last block
        line = raw.strip(_ASCII_SPACE)
        if bad := line.lstrip(alphabet)[:1]:  # the first character not in alphabet
            raise _bad_char(bad, f"invalid character {bad!r} in {kind} row", lineno)
        if line and not rows:
            start, side = lineno, len(line)
        if line and len(line) == side and len(rows) < side:
            rows.append(tuple(map(value.__getitem__, line)))
        elif line or 0 < len(rows) < side:
            found = (f"row {len(rows) + 1} has length {len(line)}" if line
                     else f"it has only {len(rows)} rows")
            raise FormatError(f"block starting here is not square: side {side} from "
                              f"its first row, but {found}", line=start)
        elif rows:
            yield matrix_type(tuple(rows))
            rows = []
