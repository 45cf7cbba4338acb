"""Text formats for matrix files.

Three record formats, all line-oriented ASCII:

grouplist   one record per line, ``HM_<m>_<k>:<nested lists>$`` with no
            interior whitespace.  The parser is tolerant: ASCII
            whitespace and line breaks may appear anywhere between tokens,
            record names are any identifier, so hand-wrapped listings parse
            too.  A record with no interior whitespace is read by one regex
            match, wherever it sits on its line.
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
from typing import Iterable, Iterator, Sequence

from .core import BitMatrix, FormatError, SignMatrix
from .partition import GroupList, LastRecord, PartitionMatrix, validate_partition_matrix

FORMATS = ("grouplist", "dense01", "densepm")

_SPACE = " \t\n\r\f\v"  # ASCII whitespace: str.strip() and \s would take Unicode spaces too
_NAME = "[A-Za-z_][A-Za-z0-9_]*"
# whitespace, then a token if one follows; ASCII digits only: \d and int()
# would take other scripts' digits too
_TOKEN = re.compile(rf"[{_SPACE}]*([\[\],:$]|[0-9]+|{_NAME})?")
# numbers short enough for int(); a longer one goes to the tokenizer, which reports it
_PAIR = r"\[[0-9]{1,999},[0-9]{1,999}\]"
_ROW = rf"\[{_PAIR}(?:,{_PAIR})*\]"
# whitespace, then one record as the writer emits it if one follows: (name, rows)
_RECORD = re.compile(rf"[{_SPACE}]*(?:({_NAME}):\[({_ROW}(?:,{_ROW})*)\]\$)?")


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


def write_grouplist(out, matrices: Iterable[PartitionMatrix]) -> int:
    """Write canonical record lines.  Successive matrices of a depth-first
    search share the row objects of their common prefix, so the leading
    rows equal to those of the last record keep their text (one
    ``partition.LastRecord``) and only the rows after them are rendered."""
    count = 0
    last = LastRecord()
    for pm in matrices:
        count += 1
        d = last.keep(pm.rows)
        last.results += map(_render_row, pm.rows[d:])
        out.write(f"HM_{len(pm.rows)}_{count}:[{','.join(last.results)}]$\n")
    return count


class _Tokens:
    """A cursor over the numbered lines of a record file: the line being
    read, its number and a position in it, plus one token of lookahead.

    Tokens are read one at a time, only as far as the parser looks, so a
    long line of many records is parsed in memory bounded by one record.
    A line is pulled from ``lines`` only when the line before it is used up.
    """

    def __init__(self, lines: Iterator[tuple[int, str]]):
        self.lines = lines
        self.text = ""  # the line being read
        self.at = 0  # its number
        self.pos = 0  # where its unread part starts
        self.tok: str | None = None  # the next token, once read ahead
        self.line = 1  # the line of the last token read

    def pull(self) -> bool:
        """Read the next line from its start; False at the end of the file."""
        self.at, text = next(self.lines, (self.at, None))
        if text is None:
            return False
        self.text, self.pos = text, 0
        return True

    def peek(self) -> str | None:
        while self.tok is None:
            match = _TOKEN.match(self.text, self.pos)
            self.pos = match.end()
            if match.lastindex:
                self.tok, self.line = match[1], self.at
            elif self.pos < len(self.text):
                ch = self.text[self.pos]
                raise _bad_char(ch, f"unexpected character {ch!r}", self.at)
            elif not self.pull():
                return None
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

    At each record boundary ``_RECORD`` tries the text at the cursor: a
    canonical record, one with no interior whitespace, is matched whole
    wherever it sits on its line.  Only when that match fails does the
    record go to the tolerant tokenizer, which reads on until it ends.
    Raises FormatError (with line number) on malformed syntax and on
    group lists that violate the refinement invariants.

    Successive canonical records share leading rows, as a depth-first
    search writes them.  The leading rows whose text equals that of the
    last canonical record keep that record's row tuples (one
    ``partition.LastRecord``), and only the rows after them are decoded
    and validated: a row's validity depends only on its parent row and
    m, which the shared text fixes, and the last record was validated
    whole (a record that fails ends the stream).  Reused rows are the
    same objects, so consumers that keep per-row work, such as the
    writer and the Gram check of ``verify``, redo only the new rows too.
    """
    toks = _Tokens(enumerate(lines, start=1))
    last = LastRecord()  # the row texts of the last canonical record, and its rows
    while True:
        match = _RECORD.match(toks.text, toks.pos)
        if match[1]:
            toks.pos = match.end()
            texts = match[2][2:-2].split("]],[[")
            d = last.keep(texts)
            for row in texts[d:]:
                nums = map(int, row.replace("],[", ",").split(","))
                last.results.append(tuple(zip(nums, nums)))  # (label, count)
            yield _checked(match[1], last.results, toks.at, d)
        elif match.end() < len(toks.text):
            yield _parse_record(toks)
        elif not toks.pull():
            return


def _parse_record(toks: _Tokens) -> tuple[str, PartitionMatrix]:
    name = toks.take()
    line = toks.line
    if not re.fullmatch(_NAME, name):
        raise FormatError(f"expected record name, found {name!r}", line=line)
    toks.take(":")
    rows = _parse_list(toks, lambda toks: _parse_list(toks, _parse_pair))
    toks.take("$")
    return _checked(name, rows, line)


def _parse_list(toks: _Tokens, item) -> tuple:
    """A bracketed, comma-separated list of one or more ``item``s."""
    toks.take("[")
    items = [item(toks)]
    while toks.peek() == ",":
        toks.take()
        items.append(item(toks))
    toks.take("]")
    return tuple(items)


def _parse_pair(toks: _Tokens) -> tuple[int, int]:
    toks.take("[")
    label = toks.number()
    toks.take(",")
    count = toks.number()
    toks.take("]")
    return label, count


def _checked(
    name: str, rows: Sequence[GroupList], line: int, start: int = 0
) -> tuple[str, PartitionMatrix]:
    pm = PartitionMatrix(tuple(rows))
    try:
        validate_partition_matrix(pm, start)
    except ValueError as exc:
        raise FormatError(f"record {name}: {exc}", line=line) from exc
    return name, pm


# dense01 and densepm are one block format with two alphabets.  Entries are
# written by value, so a BitMatrix entry True or 1.0 is written as "1".
_BITS = {0: "0", 1: "1"}
_SIGNS = {1: "+", -1: "-"}


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
        line = raw.strip(_SPACE)
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
