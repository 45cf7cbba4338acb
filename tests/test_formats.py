import io

import pytest

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
    parsed = parse_grouplist(out.getvalue())
    assert [name for name, _ in parsed] == [f"HM_7_{k}" for k in range(1, 31)]
    assert tuple(pm for _, pm in parsed) == m7_matrices


def test_parser_accepts_wrapped_listing(known15):
    records = parse_grouplist(KNOWN_15_LISTING)
    assert len(records) == 1
    name, pm = records[0]
    assert name == "H"
    assert pm == encode_matrix(known15)
    assert decode_matrix(pm) == known15


def test_render_is_whitespace_free(known15):
    body = render_grouplist(encode_matrix(known15))
    assert " " not in body and "\n" not in body
    reparsed = parse_grouplist(f"X:{body}$")
    assert reparsed[0][1] == encode_matrix(known15)


@pytest.mark.parametrize("last_row", [
    "[[1,1],[2,1],[4,?]]", "[[1,1],[2,1],[4,x]]", "[[1,1],[x,1],[4,1]]",
], ids=["bad-character", "count-not-integer", "label-not-integer"])
def test_parse_reports_line_numbers(last_row):
    bad = f"HM_3_1:[[[0,2],[1,1]],\n[[0,1],[1,1],[2,1]],\n{last_row}]$"
    with pytest.raises(FormatError) as exc:
        parse_grouplist(bad)
    assert exc.value.line == 3


def test_parse_rejects_refinement_breaks():
    # child label 5 has no parent group 2 in row 1
    bad = "X:[[[0,2],[1,1]],[[0,1],[1,1],[5,1]]]$"
    with pytest.raises(FormatError):
        parse_grouplist(bad)


def test_parse_rejects_truncated_record():
    with pytest.raises(FormatError):
        parse_grouplist("X:[[[0,2],[1,1]]")


def test_dense01_round_trip(m7_matrices):
    mats = [decode_matrix(pm) for pm in m7_matrices[:5]]
    out = io.StringIO()
    write_dense01(out, mats)
    assert parse_dense01(out.getvalue()) == mats


def test_dense01_tolerates_extra_blank_lines():
    text = "\n\n10\n01\n\n\n11\n10\n\n"
    mats = parse_dense01(text)
    assert mats == [
        BitMatrix.of([[1, 0], [0, 1]]),
        BitMatrix.of([[1, 1], [1, 0]]),
    ]


def test_dense01_rejects_bad_characters():
    with pytest.raises(FormatError) as exc:
        parse_dense01("10\n0x\n")
    assert exc.value.line == 2


def test_dense01_rejects_non_square():
    with pytest.raises(FormatError):
        parse_dense01("101\n010\n")


def test_densepm_round_trip(m7_matrices):
    mats = [pm_from_zo(decode_matrix(pm)) for pm in m7_matrices[:3]]
    out = io.StringIO()
    write_densepm(out, mats)
    assert parse_densepm(out.getvalue()) == mats


def test_densepm_parses_signs():
    h = parse_densepm("++\n+-\n")
    assert h == [SignMatrix.of([[1, 1], [1, -1]])]


def test_densepm_rejects_digits():
    with pytest.raises(FormatError) as exc:
        parse_densepm("++\n+1\n")
    assert exc.value.line == 2
