import hashlib

import pytest

from hadamard01 import (
    BitMatrix,
    GenConfig,
    InternalInvariantViolation,
    decode_matrix,
    initial_rows,
    is_hadamard_zo,
    iter_matrices,
    validate_order,
)
from hadamard01.cli import main as cli_main
from hadamard01.generator import child_row


def test_initial_rows_m15(params15):
    row1, row2 = initial_rows(params15)
    assert row1 == ((0, 8), (1, 7))
    assert row2 == ((0, 4), (1, 4), (2, 4), (3, 3))


def test_initial_rows_m3():
    row1, row2 = initial_rows(validate_order(3))
    assert row1 == ((0, 2), (1, 1))
    assert row2 == ((0, 1), (1, 1), (2, 1))


def test_initial_rows_m7():
    row1, row2 = initial_rows(validate_order(7))
    assert row1 == ((0, 4), (1, 3))
    assert row2 == ((0, 2), (1, 2), (2, 2), (3, 1))


def test_child_row_splits_every_group():
    parent = ((0, 2), (1, 2), (2, 2), (3, 1))
    assert child_row(parent, (1, 1, 1, 1)) == (
        (0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)
    )


def test_child_row_drops_empty_children():
    parent = ((0, 2), (1, 2), (2, 2), (3, 1))
    assert child_row(parent, (0, 2, 2, 0)) == ((1, 2), (2, 2), (4, 2), (7, 1))


def test_child_row_m3():
    parent = ((0, 1), (1, 1), (2, 1))
    assert child_row(parent, (0, 1, 1)) == ((1, 1), (2, 1), (4, 1))


def test_m3_generates_the_unique_matrix():
    mats = list(iter_matrices(GenConfig(validate_order(3))))
    assert len(mats) == 1
    assert decode_matrix(mats[0]) == BitMatrix.of(
        [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    )


def test_m7_count_and_soundness(m7_matrices):
    assert len(m7_matrices) == 30
    for pm in m7_matrices:
        assert is_hadamard_zo(decode_matrix(pm))


def test_m7_no_duplicates(m7_matrices):
    assert len(set(m7_matrices)) == len(m7_matrices)


def test_m7_rows_start_with_initial_rows(m7_matrices):
    row1, row2 = initial_rows(validate_order(7))
    for pm in m7_matrices:
        assert pm.rows[0] == row1
        assert pm.rows[1] == row2


def test_runs_are_deterministic(m7_matrices):
    again = tuple(iter_matrices(GenConfig(validate_order(7))))
    assert again == m7_matrices


def test_soundness_holds_without_verify_flag():
    mats = list(iter_matrices(GenConfig(validate_order(7), verify_each=False)))
    assert all(is_hadamard_zo(decode_matrix(pm)) for pm in mats)


def test_limit_cuts_the_stream(m7_matrices):
    limited = list(iter_matrices(GenConfig(validate_order(7), limit=10)))
    assert len(limited) == 10
    assert tuple(limited) == m7_matrices[:10]


def test_limit_must_be_positive():
    with pytest.raises(ValueError):
        GenConfig(validate_order(7), limit=0)


def test_verify_policy_defaults():
    assert GenConfig(validate_order(15)).verify_resolved
    assert not GenConfig(validate_order(19)).verify_resolved
    assert GenConfig(validate_order(19), verify_each=True).verify_resolved


def test_verification_failure_aborts(monkeypatch):
    import hadamard01.generator as generator_module

    monkeypatch.setattr(generator_module, "is_hadamard_masks", lambda m, masks, start: False)
    with pytest.raises(InternalInvariantViolation):
        list(iter_matrices(GenConfig(validate_order(7), verify_each=True)))


def test_progress_writes_rate_limited_status_lines(capsys, monkeypatch):
    import hadamard01.generator as generator_module

    config = GenConfig(validate_order(7), progress=True)
    assert len(list(iter_matrices(config))) == 30
    # m=7 ends well inside one period: only the line at the first row entry
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("i=3 emitted=0 t=")
    # with no period every row entry writes a line, the deepest ones too
    monkeypatch.setattr(generator_module, "PROGRESS_PERIOD_S", 0)
    assert len(list(iter_matrices(config))) == 30
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 53
    assert {line.split()[0] for line in lines} == {f"i={i}" for i in range(3, 8)}
    assert lines[-1].startswith("i=7 emitted=29 t=")


def test_deadline_stops_search_promptly():
    import time

    start = time.monotonic()
    mats = list(
        iter_matrices(
            GenConfig(validate_order(19), verify_each=False),
            deadline=time.monotonic() + 0.2,
        )
    )
    assert time.monotonic() - start < 2.0
    # whatever was emitted before the cut is a valid prefix
    for pm in mats:
        assert is_hadamard_zo(decode_matrix(pm))


def test_deadline_holds_at_order_23():
    # a whole solution list is one step between deadline checks
    import time

    start = time.monotonic()
    for _ in iter_matrices(GenConfig(validate_order(23)), deadline=start + 1.0):
        pass
    assert time.monotonic() - start < 5.0


def test_expired_deadline_yields_nothing():
    import time

    assert (
        list(
            iter_matrices(
                GenConfig(validate_order(7)), deadline=time.monotonic() - 1
            )
        )
        == []
    )


def test_m15_stream_prefix_is_pinned(tmp_path):
    # order pin for the first 1000 m=15 matrices, where the solver most
    # often extends a parent system instead of rebuilding it
    out = tmp_path / "m15.gl"
    assert cli_main(["generate", "-m", "15", "--limit", "1000", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7a0374d019124ce2609cd9c5db15351efa770cef43ac2a7e7278291d32c7e53a"
    )
