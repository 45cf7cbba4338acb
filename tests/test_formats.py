import io
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadamard01 import (
    BitMatrix,
    GenConfig,
    SignMatrix,
    decode_matrix,
    encode_matrix,
    iter_matrices,
    pm_from_zo,
    validate_order,
)
from hadamard01.core import FormatError
from hadamard01.formats import (
    grouplist_record,
    parse_dense01,
    parse_densepm,
    parse_grouplist,
    render_grouplist,
    write_dense01,
    write_densepm,
    write_grouplist,
)

from conftest import KNOWN_15_LISTING


def test_golden_record_m3():
    pm = next(iter_matrices(GenConfig(validate_order(3))))
    assert grouplist_record(pm, 1) == (
        "HM_3_1:[[[0,2],[1,1]],[[0,1],[1,1],[2,1]],[[1,1],[2,1],[4,1]]]$"
    )


def test_grouplist_round_trip(m7_matrices):
    out = io.StringIO()
    assert write_grouplist(out, m7_matrices) == 30
    parsed = list(parse_grouplist(io.StringIO(out.getvalue())))
    assert [name for name, _ in parsed] == [f"HM_7_{k}" for k in range(1, 31)]
    assert tuple(pm for _, pm in parsed) == m7_matrices


def test_writer_reuses_row_text_only_for_the_same_objects(m7_matrices, known15):
    # search output shares prefix rows, a repeat shares every row, and
    # parsed copies and other orders share none
    m3 = next(iter_matrices(GenConfig(validate_order(3))))
    copies = [pm for _, pm in parse_grouplist(io.StringIO(grouplist_record(m7_matrices[1], 1)))]
    stream = [*m7_matrices, m7_matrices[-1], *copies, m3, encode_matrix(known15), m3]
    out = io.StringIO()
    assert write_grouplist(out, stream) == len(stream)
    assert out.getvalue() == "".join(
        grouplist_record(pm, k) + "\n" for k, pm in enumerate(stream, 1)
    )


def test_parser_accepts_wrapped_listing(known15):
    records = list(parse_grouplist(io.StringIO(KNOWN_15_LISTING)))
    assert len(records) == 1
    name, pm = records[0]
    assert name == "H"
    assert pm == encode_matrix(known15)
    assert decode_matrix(pm) == known15


def test_render_is_whitespace_free(known15):
    body = render_grouplist(encode_matrix(known15))
    assert " " not in body and "\n" not in body
    reparsed = list(parse_grouplist(io.StringIO(f"X:{body}$")))
    assert reparsed[0][1] == encode_matrix(known15)


@pytest.mark.parametrize("last_row", [
    "[[1,1],[2,1],[4,?]]", "[[1,1],[2,1],[4,x]]", "[[1,1],[x,1],[4,1]]",
], ids=["bad-character", "count-not-integer", "label-not-integer"])
def test_parse_reports_line_numbers(last_row):
    bad = f"HM_3_1:[[[0,2],[1,1]],\n[[0,1],[1,1],[2,1]],\n{last_row}]$"
    with pytest.raises(FormatError) as exc:
        list(parse_grouplist(io.StringIO(bad)))
    assert exc.value.line == 3


def test_parse_rejects_refinement_breaks():
    # child label 5 has no parent group 2 in row 1
    bad = "X:[[[0,2],[1,1]],[[0,1],[1,1],[5,1]]]$"
    with pytest.raises(FormatError):
        list(parse_grouplist(io.StringIO(bad)))


def test_parse_rejects_truncated_record():
    with pytest.raises(FormatError):
        list(parse_grouplist(io.StringIO("X:[[[0,2],[1,1]]")))


def test_parse_reports_overlong_integer_on_canonical_line():
    # too many digits for int(): the fast path hands the line on to the
    # tokenizer, which names it
    line = f"X:[[[0,{'1' * 5000}]]]$"
    with pytest.raises(FormatError, match="expected an integer") as exc:
        list(parse_grouplist(io.StringIO(f"X:[[[0,1]]]$\n{line}\n")))
    assert exc.value.line == 2


@pytest.mark.parametrize("text, line, message", [
    ("X:[[[0,1]]]$\nX\n[[[0,1]]]$\n", 3, "expected ':', found '['"),
    ("X:[[[0,1]]]$\n\n[[[0,1]]]$\n", 3, "expected record name, found '['"),
    ("X:[[[0,1]]]$ 1:[[[0,1]]]$\n", 1, "expected record name, found '1'"),
], ids=["no-colon", "no-name", "number-for-name"])
def test_parse_reports_a_missing_name_or_colon(text, line, message):
    with pytest.raises(FormatError, match=re.escape(message)) as exc:
        list(parse_grouplist(io.StringIO(text)))
    assert exc.value.line == line


def test_long_line_of_records_parses_in_bounded_memory(m7_matrices):
    # records on one line go to the tokenizer, which reads tokens only as
    # far as the parser looks: peak memory is about one record, not the line
    records = itertools.islice(itertools.cycle(m7_matrices), 1000)
    line = " ".join(grouplist_record(pm, k) for k, pm in enumerate(records, 1)) + "\n"
    tracemalloc.start()
    try:
        parsed = sum(1 for _ in parse_grouplist([line]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == 1000
    assert peak < len(line) / 2, (peak, len(line))


def test_tokenizer_reports_a_bad_character_after_whole_records(m7_matrices):
    line = " ".join(grouplist_record(pm, k) for k, pm in enumerate(m7_matrices[:3], 1))
    got = []
    with pytest.raises(FormatError, match="unexpected character '#'") as exc:
        got.extend(parse_grouplist(io.StringIO(f"{line}\n{line} #\n")))
    assert exc.value.line == 2
    assert [pm for _, pm in got] == list(m7_matrices[:3]) * 2


_GROUPLIST_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[\[\],:$]")


@given(st.data())
def test_wrapped_record_parses_like_its_canonical_line(m7_matrices, data):
    k = data.draw(st.integers(1, len(m7_matrices)))
    pm = m7_matrices[k - 1]
    toks = _GROUPLIST_TOKEN.findall(grouplist_record(pm, k))
    seps = data.draw(st.lists(st.text(" \t\n", max_size=2),
                              min_size=len(toks), max_size=len(toks)))
    text = "".join(sep + tok for sep, tok in zip(seps, toks))
    assert list(parse_grouplist(io.StringIO(text))) == [(f"HM_7_{k}", pm)]


def _mixed_file(m7_matrices):
    """Records 1-2 canonical, 3 wrapped over lines 3-9, 4 and 5 on line 10,
    6 and 7 canonical on lines 11-12."""
    lines = [grouplist_record(pm, k) for k, pm in enumerate(m7_matrices[:7], 1)]
    wrapped = lines[2].replace("]],", "]],\n  ")
    assert wrapped.count("\n") == 6
    return [lines[0], lines[1], wrapped, lines[3] + " " + lines[4], lines[5], lines[6]]


def test_mixed_file_parses_every_record(m7_matrices):
    text = "\n".join(_mixed_file(m7_matrices)) + "\n"
    parsed = list(parse_grouplist(io.StringIO(text)))
    assert parsed == [(f"HM_7_{k}", pm) for k, pm in enumerate(m7_matrices[:7], 1)]


def test_mixed_file_errors_name_their_line(m7_matrices):
    lines = _mixed_file(m7_matrices)
    # a malformed record on line 11, right after the two on line 10
    bad = lines[:4] + ["HM_7_6:[[[0,4],[1,3]],[[0,2],[1,x]]]$"] + lines[5:]
    got = []
    with pytest.raises(FormatError, match="expected an integer") as exc:
        got.extend(parse_grouplist(io.StringIO("\n".join(bad) + "\n")))
    assert exc.value.line == 11
    # a refinement break on the canonical line 12: row 2 moves a column from
    # group 1 to group 0, so row 3 overfills group 1
    broken = lines[:5] + [
        lines[5].replace("[[0,2],[1,2],[2,2],[3,1]]", "[[0,3],[1,1],[2,2],[3,1]]")
    ]
    with pytest.raises(FormatError, match="record HM_7_7: row 3") as exc:
        got.extend(parse_grouplist(io.StringIO("\n".join(broken) + "\n")))
    assert exc.value.line == 12
    # records before an error were yielded first
    assert [name for name, _ in got] == [f"HM_7_{k}" for k in (1, 2, 3, 4, 5)] * 2 + ["HM_7_6"]


def test_parse_pulls_lines_only_as_far_as_the_record(m7_matrices):
    pulled = []

    def lines():
        for line in _mixed_file(m7_matrices):
            for part in line.split("\n"):
                pulled.append(part)
                yield part + "\n"

    records = parse_grouplist(lines())
    assert next(records) == ("HM_7_1", m7_matrices[0])
    assert len(pulled) == 1
    next(records)
    assert next(records) == ("HM_7_3", m7_matrices[2])
    assert len(pulled) == 9  # the wrapped record ends on line 9


def test_dense01_round_trip(m7_matrices):
    mats = [decode_matrix(pm) for pm in m7_matrices[:5]]
    out = io.StringIO()
    write_dense01(out, mats)
    assert list(parse_dense01(io.StringIO(out.getvalue()))) == mats


@pytest.mark.parametrize("kind", [bool, float])
def test_dense01_writes_entries_by_value(kind):
    # BitMatrix accepts any entry equal to 0 or 1, such as True or 1.0
    rows = [[1, 1, 1], [1, 0, 0], [1, 0, 1]]
    t = BitMatrix.of([[kind(e) for e in row] for row in rows])
    out = io.StringIO()
    write_dense01(out, [t])
    assert out.getvalue() == "111\n100\n101\n"
    assert list(parse_dense01(io.StringIO(out.getvalue()))) == [BitMatrix.of(rows)]


def test_dense01_tolerates_extra_blank_lines():
    text = "\n\n10\n01\n\n\n11\n10\n\n"
    mats = list(parse_dense01(io.StringIO(text)))
    assert mats == [
        BitMatrix.of([[1, 0], [0, 1]]),
        BitMatrix.of([[1, 1], [1, 0]]),
    ]


def test_dense01_rejects_bad_characters():
    with pytest.raises(FormatError) as exc:
        list(parse_dense01(io.StringIO("10\n0x\n")))
    assert exc.value.line == 2


def test_dense01_rejects_non_square():
    with pytest.raises(FormatError):
        list(parse_dense01(io.StringIO("101\n010\n")))


def test_densepm_round_trip(m7_matrices):
    mats = [pm_from_zo(decode_matrix(pm)) for pm in m7_matrices[:3]]
    out = io.StringIO()
    write_densepm(out, mats)
    assert list(parse_densepm(io.StringIO(out.getvalue()))) == mats


def test_densepm_parses_signs():
    h = list(parse_densepm(io.StringIO("++\n+-\n")))
    assert h == [SignMatrix.of([[1, 1], [1, -1]])]


def test_densepm_rejects_digits():
    with pytest.raises(FormatError) as exc:
        list(parse_densepm(io.StringIO("++\n+1\n")))
    assert exc.value.line == 2


@pytest.mark.parametrize("parse, text, line, message", [
    # an Arabic-Indic four, on the one-line fast path and in a wrapped record
    (parse_grouplist, "X:[[[0,1]]]$\nX:[[[\u0664,1]]]$\n", 2, "character U+0664"),
    (parse_grouplist, "X:[[\n[0,\n\u0661]]]$\n", 3, "character U+0661"),
    # Unicode spaces are not stripped from dense rows
    (parse_dense01, "110\n101\n011\xa0\n", 3, "byte 0xa0"),
    (parse_densepm, "++\n+-\u3000\n", 2, "character U+3000"),
], ids=["grouplist-canonical", "grouplist-wrapped", "dense01", "densepm"])
def test_readers_reject_non_ascii(parse, text, line, message):
    with pytest.raises(FormatError, match=f"non-ASCII {re.escape(message)}$") as exc:
        list(parse(io.StringIO(text)))
    assert exc.value.line == line


def test_non_square_block_fails_at_the_row_that_breaks_it():
    pulled = 0

    def lines():
        nonlocal pulled
        for line in itertools.chain(["11\n"], itertools.repeat("11\n", 200000)):
            pulled += 1
            yield line

    with pytest.raises(FormatError, match="not square") as exc:
        list(parse_dense01(lines()))
    assert exc.value.line == 1
    assert pulled <= 3
