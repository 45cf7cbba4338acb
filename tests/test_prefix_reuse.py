"""Per-row reuse across a stream: the Gram check, the grouplist reader, the
encoder and the decoder keep the last record's rows and redo only the rows
after the prefix a record shares with it.  Every verdict, record and error
must be what the same record gives on its own."""

import io
import random

import pytest

from hadamard01 import (
    GenConfig, decode_matrix, encode_matrix, initial_rows, iter_matrices, validate_order,
)
from hadamard01.cli import _verify_records, main
from hadamard01.core import BitMatrix, FormatError, NonCanonicalRow
from hadamard01.formats import grouplist_record, parse_grouplist, write_dense01, write_grouplist
from hadamard01.gram import is_hadamard_masks
from hadamard01.partition import (
    PartitionMatrix,
    child_row,
    row_masks,
    shared_prefix,
    validate_partition_matrix,
)

# consistent group lists that are not a Hadamard matrix: rows 1 and 2 overlap in 2
NOT_HADAMARD = "[[[0,2],[1,1]],[[0,2],[3,1]],[[0,1],[1,1],[6,1]]]"
M3 = "[[[0,2],[1,1]],[[0,1],[1,1],[2,1]],[[1,1],[2,1],[4,1]]]"
# two m=7 records that share rows 1-6, where row 6 has weight 0; row 7 of
# the second has weight 4 and overlap 2 with each of rows 1-6
SHARED_7 = (
    "[[[0,4],[1,3]],[[0,2],[1,2],[2,2],[3,1]],[[1,2],[2,2],[4,2],[7,1]],"
    "[[2,1],[3,1],[4,1],[5,1],[8,1],[9,1],[14,1]],"
    "[[5,1],[6,1],[9,1],[10,1],[16,1],[19,1],[28,1]],"
    "[[11,1],[13,1],[19,1],[21,1],[33,1],[38,1],[56,1]],"
)
BAD_ROW_7 = "[[23,1],[27,1],[39,1],[43,1],[67,1],[77,1],[113,1]]]"
GOOD_ROW_7 = "[[23,1],[26,1],[38,1],[43,1],[67,1],[76,1],[112,1]]]"


def full_check(pm):
    return is_hadamard_masks(pm.m, row_masks(pm))


def with_random_tail(pm, keep, rng):
    """pm's first ``keep`` row objects, then random refinements: a
    consistent matrix that is almost never Hadamard."""
    rows = list(pm.rows[:keep])
    while len(rows) < pm.m:
        parent = rows[-1]
        rows.append(child_row(parent, tuple(rng.randint(0, c) for _, c in parent)))
    return PartitionMatrix(pm.m, tuple(rows))


def with_copies(matrices, seed):
    """Search output interleaved with copies that keep a prefix of a matrix
    and replace the rows after it.  A failing copy is followed by a repeat
    and by a copy of it that replaces only its last row, both of which
    share the failing prefix."""
    rng = random.Random(seed)
    stream = []
    for pm in matrices:
        stream.append(pm)
        if rng.random() < 0.5:
            continue
        copy = with_random_tail(pm, rng.randrange(2, pm.m), rng)
        stream.append(copy)
        if not full_check(copy):
            stream += [copy, with_random_tail(copy, pm.m - 1, rng)]
    return stream


def grouplist_text(matrices):
    out = io.StringIO()
    write_grouplist(out, matrices)
    return out.getvalue()


@pytest.fixture(scope="module")
def streams(m7_matrices, m11_head):
    return {7: with_copies(m7_matrices, 1), 11: with_copies(m11_head, 2)}


# the Gram check ---------------------------------------------------------------


@pytest.mark.parametrize("m", [7, 11])
def test_verify_gives_the_full_check_verdict_on_every_record(streams, m):
    stream = streams[m]
    expected = [full_check(pm) for pm in stream]
    assert True in expected and False in expected
    lines = io.StringIO(grouplist_text(stream))
    assert [ok for _, ok in _verify_records(lines, "grouplist")] == expected


def test_start_takes_the_prefix_as_checked():
    masks = [0b110, 0b101, 0b011]
    assert is_hadamard_masks(3, masks, 0) and is_hadamard_masks(3, masks, 2)
    # the bad pair (rows 1 and 2) lies before start, so only row 3 is tested
    assert not is_hadamard_masks(3, [0b110, 0b110, 0b011], 0)
    assert is_hadamard_masks(3, [0b110, 0b110, 0b011], 2)
    assert not is_hadamard_masks(3, [0b110, 0b101, 0b111], 2)


def test_generator_checks_every_row_of_every_matrix(monkeypatch):
    import hadamard01.generator as generator_module

    seen = []

    def spy(m, masks, start):
        seen.append((list(masks), start))
        return is_hadamard_masks(m, masks, start)

    monkeypatch.setattr(generator_module, "is_hadamard_masks", spy)
    matrices = list(iter_matrices(GenConfig(validate_order(11), limit=300, verify_each=True)))
    assert [masks for masks, _ in seen] == [row_masks(pm) for pm in matrices]
    starts = [shared_prefix(pm.rows, last.rows) for last, pm in zip(matrices, matrices[1:])]
    assert [start for _, start in seen] == [0, *starts]
    assert min(starts) >= 2


@pytest.mark.parametrize("records, expected", [
    ([f"A:{NOT_HADAMARD}$", f"B:{NOT_HADAMARD}$"], ["A: FAIL", "B: FAIL"]),
    # C shares A's rows 1-6, and row 6 fails; C's own last row would pass
    ([f"A:{SHARED_7}{BAD_ROW_7}$", f"C:{SHARED_7}{GOOD_ROW_7}$"], ["A: FAIL", "C: FAIL"]),
    ([f"A:{M3}$", f"B:{NOT_HADAMARD}$", f"C:{M3}$", f"D:{M3}$"],
     ["A: PASS", "B: FAIL", "C: PASS", "D: PASS"]),
], ids=["repeat", "shared-failing-prefix", "pass-after-fail"])
def test_verify_forgets_the_rows_of_a_failed_record(tmp_path, capsys, records, expected):
    src = tmp_path / "in.gl"
    src.write_text("".join(record + "\n" for record in records))
    code = main(["verify", str(src)])
    assert capsys.readouterr().out.splitlines() == expected
    assert code == (1 if any(line.endswith("FAIL") for line in expected) else 0)


# the reader ---------------------------------------------------------------------


def assert_parses_as_lines_alone(text):
    whole = list(parse_grouplist(io.StringIO(text)))
    alone = [next(parse_grouplist([line])) for line in text.splitlines(keepends=True)]
    assert whole == alone
    return whole


def test_reader_matches_lines_alone_on_the_m7_stream(m7_matrices, streams):
    records = assert_parses_as_lines_alone(grouplist_text(m7_matrices))
    assert tuple(pm for _, pm in records) == m7_matrices
    # rows shared with the record before are handed on as the same objects
    assert all(b.rows[1] is a.rows[1] for (_, a), (_, b) in zip(records, records[1:]))
    assert_parses_as_lines_alone(grouplist_text(streams[7]))


def test_reader_matches_lines_alone_on_a_shuffled_m11_sample(m11_head, streams):
    sample = random.Random(3).sample(m11_head, 1000)
    records = assert_parses_as_lines_alone(grouplist_text(sample))
    assert [pm for _, pm in records] == sample
    assert_parses_as_lines_alone(grouplist_text(streams[11]))


def test_reader_reuses_only_canonical_records(m7_matrices):
    # a wrapped record between two canonical ones neither breaks nor feeds reuse
    first, second, third = (grouplist_record(pm, k) for k, pm in enumerate(m7_matrices[:3], 1))
    wrapped = second.replace("],[[", "],\n [[")
    text = f"{first}\n{wrapped}\n{third}\n"
    records = list(parse_grouplist(io.StringIO(text)))
    assert [pm for _, pm in records] == list(m7_matrices[:3])
    assert records[2][1].rows[0] is records[0][1].rows[0]


def test_shared_prefix_does_not_hide_a_later_refinement_error(m7_matrices):
    good = grouplist_record(m7_matrices[0], 1)
    rows = good[good.index(":[") + 3:-3].split("]],[[")
    # row 5 of a matrix whose row 4 differs: its labels have other parents
    other = next(pm for pm in m7_matrices if pm.rows[3] != m7_matrices[0].rows[3])
    bad_row = grouplist_record(other, 2).split(":[")[1][2:-3].split("]],[[")[4]
    assert bad_row != rows[4]
    bad = "HM_7_2:[[" + "]],[[".join(rows[:4] + [bad_row] + rows[5:]) + "]]$"
    with pytest.raises(FormatError) as whole:
        list(parse_grouplist(io.StringIO(f"{good}\n{bad}\n")))
    with pytest.raises(FormatError) as alone:
        list(parse_grouplist(io.StringIO(f"\n{bad}\n")))
    assert whole.value.line == alone.value.line == 2
    assert str(whole.value) == str(alone.value)
    assert str(whole.value).startswith("line 2: record HM_7_2: row 5: ")


def test_validate_from_start_checks_only_later_rows(m7_matrices):
    pm = m7_matrices[0]
    broken = PartitionMatrix(7, pm.rows[:6] + (m7_matrices[-1].rows[6],))
    with pytest.raises(ValueError, match="row 7"):
        validate_partition_matrix(broken, 6)
    validate_partition_matrix(pm, 6)
    with pytest.raises(ValueError, match="expected 7 rows"):
        validate_partition_matrix(PartitionMatrix(7, pm.rows[:6]), 6)


# the row producers --------------------------------------------------------------


def test_every_row_producer_gives_equal_plain_tuples(m7_matrices):
    # shared_prefix compares rows across producers, so a row wrapped in
    # another type on one path would silently stop matching the others
    wrapped = "\n".join(grouplist_record(pm, k).replace("],[", "],\n[")
                        for k, pm in enumerate(m7_matrices, 1))
    producers = {
        "search": m7_matrices,  # initial_rows, then child_row
        "encoder": [encode_matrix(decode_matrix(pm)) for pm in m7_matrices],
        "fast path": [pm for _, pm in parse_grouplist(io.StringIO(grouplist_text(m7_matrices)))],
        "tokenizer": [pm for _, pm in parse_grouplist(io.StringIO(wrapped))],
    }
    for name, matrices in producers.items():
        assert list(matrices) == list(m7_matrices), name
        for pm in matrices:
            assert type(pm.rows) is tuple, name
            for row in pm.rows:
                assert type(row) is tuple, name
                assert all(type(pair) is tuple and len(pair) == 2 for pair in row), name
    params = validate_order(7)
    assert all(type(row) is tuple for row in initial_rows(params))
    assert m7_matrices[0].rows[:2] == initial_rows(params)


# the encoder --------------------------------------------------------------------


def test_encoding_from_prev_equals_encoding_alone(m7_matrices, m11_head, known15):
    m3 = next(iter_matrices(GenConfig(validate_order(3))))
    sample = random.Random(4).sample(m11_head, 300)
    stream = [*m7_matrices, *sample, m3, encode_matrix(known15), m3, *m11_head[:50]]
    prev = None
    for pm in stream:
        t = decode_matrix(pm)
        encoded = encode_matrix(t, prev)
        assert encoded == encode_matrix(t) == pm
        if prev is not None:
            d = shared_prefix(t.rows, prev[0].rows)
            assert all(a is b for a, b in zip(encoded.rows[:d], prev[1].rows))
        prev = t, encoded


def test_encoding_from_prev_raises_the_same_error(m7_matrices, m11_head):
    rng = random.Random(5)
    raised = 0
    for pm in m7_matrices + m11_head[:100]:
        t = decode_matrix(pm)
        prev = (t, pm)
        j = rng.randrange(2, 6)  # rows before j stay, row j + 1 is scrambled
        row = list(t.rows[j])
        rng.shuffle(row)
        bad = BitMatrix(t.rows[:j] + (tuple(row),) + t.rows[j + 1:])
        try:
            encode_matrix(bad)
        except NonCanonicalRow as exc:
            expected = (str(exc), exc.row_index)
        else:
            continue
        with pytest.raises(NonCanonicalRow) as got:
            encode_matrix(bad, prev)
        assert (str(got.value), got.value.row_index) == expected
        raised += 1
    assert raised >= 10


# the decoder --------------------------------------------------------------------


@pytest.mark.parametrize("stream", [
    lambda m7, m11: list(m7),
    lambda m7, m11: random.Random(6).sample(m11, 300),
    lambda m7, m11: [m7[0], m7[0], m7[0], m11[0], m11[0], m7[1], m7[1], m7[0]],
], ids=["m7-stream", "shuffled-m11-sample", "repeated-records"])
def test_decoding_from_prev_equals_decoding_alone(m7_matrices, m11_head, stream):
    prev = None
    for pm in stream(m7_matrices, m11_head):
        t = decode_matrix(pm, prev)
        assert t == decode_matrix(pm)
        if prev is not None:
            d = shared_prefix(pm.rows, prev[0].rows)
            assert all(a is b for a, b in zip(t.rows[:d], prev[1].rows))
        prev = pm, t


def test_convert_decodes_each_record_from_the_one_before(tmp_path, capsys, m7_matrices,
                                                          monkeypatch):
    import hadamard01.cli as cli

    calls = []
    decode = cli.decode_matrix
    monkeypatch.setattr(cli, "decode_matrix",
                        lambda pm, prev=None: calls.append(prev) or decode(pm, prev))
    src = tmp_path / "in.gl"
    src.write_text(grouplist_text(m7_matrices))
    assert main(["convert", str(src), "--from", "grouplist", "--to", "dense01"]) == 0
    expected = io.StringIO()
    write_dense01(expected, map(decode_matrix, m7_matrices))
    assert capsys.readouterr().out == expected.getvalue()
    assert calls[0] is None and all(prev is not None for prev in calls[1:])
