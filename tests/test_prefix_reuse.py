"""Per-row reuse across a stream: the Gram check (one gram.StreamCheck for
``generate`` and for grouplist and dense01 ``verify``), the grouplist
reader, the encoder and the decoder keep the last record's rows in a
partition.LastRecord and redo only the rows after the prefix a record
shares with it.  Every verdict, record and error must be what the same
record gives on its own."""

import io
import random

import pytest

from hadamard01 import (
    GenConfig, decode_matrix, encode_matrix, initial_rows, iter_matrices, validate_order,
)
from hadamard01.cli import _verify_records, main
from hadamard01.core import BitMatrix, FormatError, NonCanonicalRow
from hadamard01.formats import parse_grouplist, write_dense01, write_grouplist
from hadamard01.gram import is_hadamard_masks, is_hadamard_zo
from hadamard01.partition import (
    LastRecord,
    PartitionMatrix,
    child_row,
    row_mask,
    shared_prefix,
    validate_partition_matrix,
)

from conftest import grouplist_lines

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


def row_masks(pm):
    return [row_mask(g) for g in pm.rows]


def full_check(pm):
    return is_hadamard_masks(row_masks(pm))


def with_random_tail(pm, keep, rng):
    """pm's first ``keep`` row objects, then random refinements: a
    consistent matrix that is almost never Hadamard."""
    rows = list(pm.rows[:keep])
    while len(rows) < len(pm.rows):
        parent = rows[-1]
        rows.append(child_row(parent, tuple(rng.randint(0, c) for _, c in parent)))
    return PartitionMatrix(tuple(rows))


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
        copy = with_random_tail(pm, rng.randrange(2, len(pm.rows)), rng)
        stream.append(copy)
        if not full_check(copy):
            stream += [copy, with_random_tail(copy, len(pm.rows) - 1, rng)]
    return stream


def grouplist_text(matrices):
    out = io.StringIO()
    write_grouplist(out, matrices)
    return out.getvalue()


def dense01_text(matrices):
    out = io.StringIO()
    write_dense01(out, map(decode_matrix, matrices))
    return out.getvalue()


@pytest.fixture(scope="module")
def streams(m7_matrices, m11_head):
    return {7: with_copies(m7_matrices, 1), 11: with_copies(m11_head, 2)}


# the Gram check ---------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["grouplist", "dense01"])
@pytest.mark.parametrize("m", [7, 11])
def test_verify_gives_the_full_check_verdict_on_every_record(streams, m, fmt):
    stream = streams[m]
    if fmt == "grouplist":
        expected = [full_check(pm) for pm in stream]
        text = grouplist_text(stream)
    else:
        expected = [is_hadamard_zo(decode_matrix(pm)) for pm in stream]
        text = dense01_text(stream)
    assert True in expected and False in expected
    assert [ok for _, ok in _verify_records(io.StringIO(text), fmt)] == expected


def test_start_takes_the_prefix_as_checked():
    masks = [0b110, 0b101, 0b011]
    assert is_hadamard_masks(masks, 0) and is_hadamard_masks(masks, 2)
    # the bad pair (rows 1 and 2) lies before start, so only row 3 is tested
    assert not is_hadamard_masks([0b110, 0b110, 0b011], 0)
    assert is_hadamard_masks([0b110, 0b110, 0b011], 2)
    assert not is_hadamard_masks([0b110, 0b101, 0b111], 2)


def spy_on_gram_check(monkeypatch):
    """The (masks, start) of every gram.is_hadamard_masks call from now on."""
    import hadamard01.gram as gram_module

    seen = []

    def spy(masks, start):
        seen.append((list(masks), start))
        return is_hadamard_masks(masks, start)

    monkeypatch.setattr(gram_module, "is_hadamard_masks", spy)
    return seen


def test_generator_checks_every_row_of_every_matrix(monkeypatch):
    seen = spy_on_gram_check(monkeypatch)
    matrices = list(iter_matrices(GenConfig(validate_order(11), limit=300, verify_each=True)))
    assert [masks for masks, _ in seen] == [row_masks(pm) for pm in matrices]
    starts = [shared_prefix(pm.rows, last.rows) for last, pm in zip(matrices, matrices[1:])]
    assert [start for _, start in seen] == [0, *starts]
    assert min(starts) >= 2


def test_generate_and_verify_make_the_same_gram_checks(tmp_path, monkeypatch):
    # one check for every {0,1} stream: the search, the grouplist file it
    # writes and that file's dense01 form test the same rows from the same start
    seen = spy_on_gram_check(monkeypatch)
    grouplist, dense = str(tmp_path / "m11.gl"), str(tmp_path / "m11.d01")
    calls = {}
    for name, argv in [
        ("generate", ["generate", "-m", "11", "--limit", "500", "-o", grouplist]),
        ("convert", ["convert", grouplist, "--from", "grouplist", "--to", "dense01",
                     "-o", dense]),
        ("grouplist verify", ["verify", grouplist]),
        ("dense01 verify", ["verify", "--format", "dense01", dense]),
    ]:
        seen.clear()
        assert main(argv) == 0, name
        calls[name] = list(seen)
    assert calls.pop("convert") == []
    assert len(calls["generate"]) == 500
    assert calls["grouplist verify"] == calls["generate"]
    assert calls["dense01 verify"] == calls["generate"]
    starts = [start for _, start in calls["generate"]]
    assert starts[0] == 0 and min(starts[1:]) >= 2


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
    # rows shared with the record before are handed on as the same objects,
    # also when the records are joined on one line
    joined = list(parse_grouplist([" ".join(grouplist_lines(m7_matrices))]))
    assert joined == records
    for parsed in records, joined:
        assert all(b.rows[1] is a.rows[1] for (_, a), (_, b) in zip(parsed, parsed[1:]))
    assert_parses_as_lines_alone(grouplist_text(streams[7]))


def test_reader_matches_lines_alone_on_a_shuffled_m11_sample(m11_head, streams):
    sample = random.Random(3).sample(m11_head, 1000)
    records = assert_parses_as_lines_alone(grouplist_text(sample))
    assert [pm for _, pm in records] == sample
    assert_parses_as_lines_alone(grouplist_text(streams[11]))


def test_reader_reuses_only_canonical_records(m7_matrices):
    # a wrapped record between two canonical ones neither breaks nor feeds reuse
    first, second, third = grouplist_lines(m7_matrices[:3])
    wrapped = second.replace("],[[", "],\n [[")
    text = f"{first}\n{wrapped}\n{third}\n"
    records = list(parse_grouplist(io.StringIO(text)))
    assert [pm for _, pm in records] == list(m7_matrices[:3])
    assert records[2][1].rows[0] is records[0][1].rows[0]


def test_shared_prefix_does_not_hide_a_later_refinement_error(m7_matrices):
    good = grouplist_lines(m7_matrices[:1])[0]
    rows = good[good.index(":[") + 3:-3].split("]],[[")
    # row 5 of a matrix whose row 4 differs: its labels have other parents
    other = next(pm for pm in m7_matrices if pm.rows[3] != m7_matrices[0].rows[3])
    bad_row = grouplist_lines([other])[0].split(":[")[1][2:-3].split("]],[[")[4]
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
    broken = PartitionMatrix(pm.rows[:6] + (m7_matrices[-1].rows[6],))
    with pytest.raises(ValueError, match="row 7"):
        validate_partition_matrix(broken, 6)
    validate_partition_matrix(pm, 6)
    with pytest.raises(ValueError, match="expected 7 rows"):
        validate_partition_matrix(PartitionMatrix(pm.rows[:6]), 6)


# the row producers --------------------------------------------------------------


def test_every_row_producer_gives_equal_plain_tuples(m7_matrices, monkeypatch):
    # shared_prefix compares rows across producers, so a row wrapped in
    # another type on one path would silently stop matching the others
    import hadamard01.formats as formats

    tokenized = []
    parse_record = formats._parse_record
    monkeypatch.setattr(formats, "_parse_record",
                        lambda toks: tokenized.append(toks.at) or parse_record(toks))
    wrapped = "\n".join(line.replace("],[", "],\n[") for line in grouplist_lines(m7_matrices))
    producers = {
        "search": m7_matrices,  # initial_rows, then child_row
        "encoder": [encode_matrix(decode_matrix(pm)) for pm in m7_matrices],
        "fast path": [pm for _, pm in parse_grouplist(io.StringIO(grouplist_text(m7_matrices)))],
        "tokenizer": [pm for _, pm in parse_grouplist(io.StringIO(wrapped))],
    }
    assert len(tokenized) == len(m7_matrices)  # each wrapped record, and no other
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
    last = LastRecord()
    before = None  # the bit matrix before and its encoding
    for pm in stream:
        t = decode_matrix(pm)
        encoded = encode_matrix(t, last)
        assert encoded == encode_matrix(t) == pm
        if before is not None:
            d = shared_prefix(t.rows, before[0].rows)
            assert all(a is b for a, b in zip(encoded.rows[:d], before[1].rows))
        before = t, encoded


def scrambled(t, j, rng):
    """t with row j + 1 shuffled; the rows before it stay."""
    row = list(t.rows[j])
    rng.shuffle(row)
    return BitMatrix(t.rows[:j] + (tuple(row),) + t.rows[j + 1:])


def test_encoding_from_prev_raises_the_same_error(m7_matrices, m11_head):
    rng = random.Random(5)
    raised = 0
    for pm in m7_matrices + m11_head[:100]:
        t = decode_matrix(pm)
        last = LastRecord()
        encode_matrix(t, last)
        bad = scrambled(t, rng.randrange(2, 6), rng)
        try:
            encode_matrix(bad)
        except NonCanonicalRow as exc:
            expected = (str(exc), exc.row_index)
        else:
            continue
        with pytest.raises(NonCanonicalRow) as got:
            encode_matrix(bad, last)
        assert (str(got.value), got.value.row_index) == expected
        raised += 1
    assert raised >= 10


def test_a_failed_encoding_leaves_nothing_to_reuse(m7_matrices, m11_head):
    # a record that fails part-way has no encoding for its later rows, so a
    # helper still holding it would let the same rows "keep" encodings
    # that were never made: the record again would come back short of rows
    rng = random.Random(7)
    raised = 0
    for pm in m7_matrices + m11_head[:100]:
        t = decode_matrix(pm)
        last = LastRecord()
        encode_matrix(t, last)
        bad = scrambled(t, rng.randrange(2, t.m - 1), rng)
        try:
            encode_matrix(bad, last)
        except NonCanonicalRow as exc:
            error = str(exc)
        else:
            continue
        raised += 1
        assert (last.rows, last.results) == ((), [])
        with pytest.raises(NonCanonicalRow) as again:
            encode_matrix(bad, last)
        assert str(again.value) == error
        assert encode_matrix(t, last) == encode_matrix(t) == pm
    assert raised >= 30


# the decoder --------------------------------------------------------------------


@pytest.mark.parametrize("stream", [
    lambda m7, m11: list(m7),
    lambda m7, m11: random.Random(6).sample(m11, 300),
    lambda m7, m11: [m7[0], m7[0], m7[0], m11[0], m11[0], m7[1], m7[1], m7[0]],
], ids=["m7-stream", "shuffled-m11-sample", "repeated-records"])
def test_decoding_from_prev_equals_decoding_alone(m7_matrices, m11_head, stream):
    last = LastRecord()
    before = None  # the partition matrix before and its decoding
    for pm in stream(m7_matrices, m11_head):
        t = decode_matrix(pm, last)
        assert t == decode_matrix(pm)
        if before is not None:
            d = shared_prefix(pm.rows, before[0].rows)
            assert all(a is b for a, b in zip(t.rows[:d], before[1].rows))
        before = pm, t


def test_convert_decodes_each_record_from_the_one_before(tmp_path, capsys, m7_matrices,
                                                          monkeypatch):
    import hadamard01.cli as cli

    calls = []
    decode = cli.decode_matrix
    monkeypatch.setattr(cli, "decode_matrix",
                        lambda pm, last=None: calls.append(last) or decode(pm, last))
    src = tmp_path / "in.gl"
    src.write_text(grouplist_text(m7_matrices))
    assert main(["convert", str(src), "--from", "grouplist", "--to", "dense01"]) == 0
    expected = io.StringIO()
    write_dense01(expected, map(decode_matrix, m7_matrices))
    assert capsys.readouterr().out == expected.getvalue()
    # one helper for the whole stream, passed to every call
    assert len(calls) == len(m7_matrices) and isinstance(calls[0], LastRecord)
    assert all(last is calls[0] for last in calls)
