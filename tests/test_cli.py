import re
import subprocess
import sys
from pathlib import Path

import pytest

from hadamard01 import GenConfig, validate_order
from hadamard01.cli import build_parser, main
from hadamard01.generator import VERIFY_DEFAULT_MAX_ORDER


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_m3_golden(tmp_path, capsys):
    out = tmp_path / "m3.txt"
    code, _, err = run(capsys, "generate", "-m", "3", "-o", str(out))
    assert code == 0
    assert out.read_text() == (
        "HM_3_1:[[[0,2],[1,1]],[[0,1],[1,1],[2,1]],[[1,1],[2,1],[4,1]]]$\n"
    )
    assert "1 matrices" in err


@pytest.mark.parametrize("argv, message", [
    (["generate", "-m", "14"], "m=14 is incorrect size for Hadamard matrices"),
    (["generate", "-m", "7", "--limit", "0"], "--limit: must be at least 1"),
    (["bench", "-m", "7", "--limit", "-1"], "--limit: must be at least 1"),
    (["bench", "-m", "7", "--duration", "0"],
     "--duration: must be finite and positive"),
    (["bench", "-m", "7", "--duration", "nan"],
     "--duration: must be finite and positive"),
    (["bench", "-m", "7", "--duration", "-1"],
     "--duration: must be finite and positive"),
    (["bench", "-m", "7", "--duration", "inf"],
     "--duration: must be finite and positive"),
    (["generate", "-m", "7", "--limit", "1.5"], "--limit: must be an integer, got '1.5'"),
    (["bench", "-m", "7", "--duration", "abc"], "--duration: must be a number, got 'abc'"),
    # numbers are ASCII only, as in the input files: int() and float() also
    # take other scripts' digits, surrounding space and "_"
    (["generate", "-m", "\u0667"], "-m: must be an integer, got '\u0667'"),
    (["generate", "-m", " 7"], "-m: must be an integer, got ' 7'"),
    (["generate", "-m", "7", "--limit", " 2 "], "--limit: must be an integer, got ' 2 '"),
    (["generate", "-m", "7", "--limit", "\u0663"], "--limit: must be an integer, got '\u0663'"),
    (["generate", "-m", "7", "--limit", "1_000"],
     "--limit: must be an integer, got '1_000'"),
    (["bench", "-m", "7", "--duration", "\u0663"],
     "--duration: must be a number, got '\u0663'"),
], ids=["order", "generate-limit", "bench-limit", "bench-duration-zero",
        "bench-duration-nan", "bench-duration-negative", "bench-duration-inf",
        "generate-limit-not-integer", "bench-duration-not-number",
        "generate-order-non-ascii", "generate-order-space", "generate-limit-spaces",
        "generate-limit-non-ascii", "generate-limit-underscore",
        "bench-duration-non-ascii"])
def test_generate_rejects_bad_order(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert message in err


def test_generate_m7_labels(tmp_path, capsys):
    out = tmp_path / "m7.txt"
    code, _, _ = run(capsys, "generate", "-m", "7", "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 30
    assert lines[0].startswith("HM_7_1:")
    assert lines[-1].startswith("HM_7_30:")


@pytest.mark.parametrize("fmt", ["dense01", "densepm"])
def test_generate_limit_and_formats(tmp_path, capsys, fmt):
    dense = tmp_path / "m7.dense"
    code, _, _ = run(
        capsys, "generate", "-m", "7", "--limit", "4", "--format", fmt,
        "-o", str(dense),
    )
    assert code == 0
    blocks = dense.read_text().split("\n\n")
    assert len(blocks) == 4
    # densepm carries the all-ones border, so its side is m + 1
    side = 7 if fmt == "dense01" else 8
    assert all(len(b.strip().splitlines()) == side for b in blocks)
    # generate writes through the same writer as convert
    gl = tmp_path / "m7.gl"
    converted = tmp_path / "m7.converted"
    run(capsys, "generate", "-m", "7", "--limit", "4", "-o", str(gl))
    assert run(capsys, "convert", str(gl), "--from", "grouplist", "--to", fmt,
               "-o", str(converted))[0] == 0
    assert dense.read_bytes() == converted.read_bytes()


def test_generate_progress_goes_to_diagnostics(tmp_path, capsys):
    out = tmp_path / "m7.txt"
    code, _, err = run(
        capsys, "generate", "-m", "7", "-o", str(out), "--progress"
    )
    assert code == 0
    assert "i=3" in err
    # the output stream carries records only
    assert "i=3" not in out.read_text()


def test_verify_passes_generated_file(tmp_path, capsys):
    out = tmp_path / "m7.txt"
    run(capsys, "generate", "-m", "7", "-o", str(out))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert stdout.count(": PASS") == 30
    assert ": FAIL" not in stdout


def test_verify_fails_on_broken_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.d01"
    bad.write_text("111\n111\n111\n")
    code, stdout, _ = run(capsys, "verify", str(bad), "--format", "dense01")
    assert code == 1
    assert "matrix 1: FAIL" in stdout


def test_verify_fails_on_non_hadamard_grouplist_record(tmp_path, capsys):
    # a well-formed record whose rows are all ones
    bad = tmp_path / "bad.gl"
    bad.write_text("X:[[[0,3]],[[0,3]],[[0,3]]]$\n")
    code, stdout, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert stdout == "X: FAIL\n"


def test_verify_names_the_row_of_a_refinement_error(tmp_path, capsys):
    # row 3 lists the children of row 2's groups out of order
    bad = tmp_path / "bad.gl"
    bad.write_text("HM_3_1:[[[0,2],[1,1]],[[0,1],[1,1],[2,1]],[[1,1],[5,1],[4,1]]]$\n")
    code, stdout, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert stdout == ""
    assert "line 1: record HM_3_1: row 3: " in err


def test_verify_mixed_blocks(tmp_path, capsys):
    f = tmp_path / "mix.d01"
    f.write_text("110\n101\n011\n\n111\n111\n111\n")
    code, stdout, _ = run(capsys, "verify", str(f), "--format", "dense01")
    assert code == 1
    assert "matrix 1: PASS" in stdout and "matrix 2: FAIL" in stdout


@pytest.mark.parametrize("command, content, where", [
    (["verify"], b"HM_3_1:[[[0,2],[1,1]]\n", "line"),
    (["verify"], b"HM_3_1:[[[0,2],[1,1]],\n\xff[[0,1],[1,1],[2,1]]]$\n",
     "line 2"),
    (["convert", "--from", "dense01", "--to", "grouplist"],
     b"110\n1\xff1\n011\n", "line 2"),
], ids=["syntax", "verify-non-ascii", "convert-non-ascii"])
def test_verify_reports_parse_error_line(tmp_path, capsys, command, content,
                                         where):
    f = tmp_path / "broken.txt"
    f.write_bytes(content)
    code, _, err = run(capsys, command[0], str(f), *command[1:])
    assert code == 2
    assert where in err


M3_RECORD = "HM_3_1:[[[0,2],[1,1]],[[0,1],[1,1],[2,1]],[[1,1],[2,1],[4,1]]]$\n"


# Input is streamed: records before a malformed one are already reported
# or written when the parse error stops the command.
TRUNCATED_SECOND = M3_RECORD + "HM_3_2:[[[0,2],[1,1]]\n"


def test_verify_takes_a_form_feed_line_between_records(tmp_path, capsys):
    # grouplist takes the same ASCII whitespace as the dense readers
    f = tmp_path / "ff.gl"
    f.write_text(M3_RECORD + "\f\n" + M3_RECORD.replace("HM_3_1", "HM_3_2"))
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0
    assert out == "HM_3_1: PASS\nHM_3_2: PASS\n"


def test_verify_reports_records_before_a_parse_error(tmp_path, capsys):
    f = tmp_path / "two.gl"
    f.write_text(TRUNCATED_SECOND)
    code, out, err = run(capsys, "verify", str(f))
    assert code == 2
    assert "line 2" in err
    assert out == "HM_3_1: PASS\n"


def test_convert_writes_records_before_a_parse_error(tmp_path, capsys):
    f = tmp_path / "two.gl"
    f.write_text(TRUNCATED_SECOND)
    dst = tmp_path / "out.d01"
    code, _, err = run(capsys, "convert", str(f), "--from", "grouplist",
                       "--to", "dense01", "-o", str(dst))
    assert code == 2
    assert "line 2" in err
    assert dst.read_text() == "110\n101\n011\n"


def test_convert_refuses_to_overwrite_its_input(tmp_path, capsys):
    f = tmp_path / "m3.gl"
    f.write_text(M3_RECORD)
    code, _, err = run(capsys, "convert", str(f), "--from", "grouplist",
                       "--to", "grouplist", "-o", str(f))
    assert code == 2
    assert "is the input file" in err
    assert f.read_text() == M3_RECORD


@pytest.mark.parametrize("to", ["grouplist", "dense01"])
def test_convert_rejects_one_by_one_sign_matrix(tmp_path, capsys, to):
    # the 1x1 Hadamard matrix "+" has an empty {0,1} form
    src = tmp_path / "one.pm"
    src.write_text("+\n")
    code, out, err = run(capsys, "convert", str(src), "--from", "densepm",
                         "--to", to)
    assert code == 2
    assert "1x1 sign matrix has no {0,1} form" in err
    assert out == ""
    code, out, _ = run(capsys, "verify", str(src), "--format", "densepm")
    assert code == 0
    assert out == "matrix 1: PASS\n"


@pytest.mark.parametrize("fmt, second, to, extra, message", [
    ("dense01", "110\n011\n101\n", "grouplist", (),
     "row 2: ones are not contiguous-first within columns 0..1"),
    ("densepm", "++++\n-+-+\n++--\n+--+\n", "dense01", (),
     "first row and first column must be all +1"),
    ("densepm", "++++\n++-+\n++--\n+--+\n", "dense01", ("--normalize",),
     "4x4 sign matrix is not Hadamard"),
], ids=["dense01-encode", "densepm-border", "densepm-normalize"])
def test_convert_error_names_the_matrix(tmp_path, capsys, fmt, second, to, extra,
                                        message):
    # the first block converts; the second fails after it is parsed
    first = "110\n101\n011\n" if fmt == "dense01" else "++++\n+--+\n+-+-\n++--\n"
    one, two = tmp_path / "one.txt", tmp_path / "two.txt"
    one.write_text(first)
    two.write_text(first + "\n" + second)
    argv = ("--from", fmt, "--to", to, *extra)
    code, first_out, _ = run(capsys, "convert", str(one), *argv)
    assert code == 0
    code, out, err = run(capsys, "convert", str(two), *argv)
    assert code == 2
    assert err == f"Error: matrix 2: {message}\n"
    assert out == first_out


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_input_lines_end_at_any_newline(tmp_path, capsys, newline):
    f = tmp_path / "mix.d01"
    f.write_bytes("110\n101\n011\n\n111\n111\n111\n".replace("\n", newline).encode())
    code, out, _ = run(capsys, "verify", str(f), "--format", "dense01")
    assert code == 1
    assert out == "matrix 1: PASS\nmatrix 2: FAIL\n"
    f.write_bytes(("110" + newline).encode() + b"1\xff1" + newline.encode())
    code, _, err = run(capsys, "verify", str(f), "--format", "dense01")
    assert code == 2
    assert "line 2: non-ASCII byte 0xff" in err


def test_verify_densepm(tmp_path, capsys):
    f = tmp_path / "h.pm"
    f.write_text("++\n+-\n\n++\n++\n")
    code, stdout, _ = run(capsys, "verify", str(f), "--format", "densepm")
    assert code == 1
    assert "matrix 1: PASS" in stdout and "matrix 2: FAIL" in stdout


def test_convert_round_trips_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.gl"
    run(capsys, "generate", "-m", "7", "-o", str(a))
    b = tmp_path / "b.d01"
    c = tmp_path / "c.pm"
    d = tmp_path / "d.d01"
    e = tmp_path / "e.gl"
    assert run(capsys, "convert", str(a), "--from", "grouplist", "--to",
               "dense01", "-o", str(b))[0] == 0
    assert run(capsys, "convert", str(b), "--from", "dense01", "--to",
               "densepm", "-o", str(c))[0] == 0
    assert run(capsys, "convert", str(c), "--from", "densepm", "--to",
               "dense01", "-o", str(d))[0] == 0
    assert b.read_text() == d.read_text()
    assert run(capsys, "convert", str(d), "--from", "dense01", "--to",
               "grouplist", "-o", str(e))[0] == 0
    assert a.read_text() == e.read_text()


def test_convert_known_listing_to_dense(tmp_path, capsys, known15):
    from conftest import KNOWN_15_LISTING

    src = tmp_path / "wrapped.gl"
    src.write_text(KNOWN_15_LISTING)
    dst = tmp_path / "m15.d01"
    code, _, _ = run(capsys, "convert", str(src), "--from", "grouplist",
                     "--to", "dense01", "-o", str(dst))
    assert code == 0
    rows = dst.read_text().split()
    assert rows == ["".join(str(e) for e in row) for row in known15.rows]


def test_convert_rejects_non_canonical_dense01(tmp_path, capsys):
    src = tmp_path / "scattered.d01"
    src.write_text("110\n011\n101\n")  # valid-ish bits, rows not ones-first
    code, _, err = run(capsys, "convert", str(src), "--from", "dense01",
                       "--to", "grouplist")
    assert code == 2
    assert "row" in err


def test_convert_densepm_requires_normal_form(tmp_path, capsys):
    src = tmp_path / "flipped.pm"
    # order-2 Hadamard with its first row negated
    src.write_text("--\n-+\n")
    code, _, err = run(capsys, "convert", str(src), "--from", "densepm",
                       "--to", "dense01")
    assert code == 2
    assert run(capsys, "convert", str(src), "--from", "densepm", "--to",
               "dense01", "--normalize", "-o", str(tmp_path / "ok.d01"))[0] == 0
    assert (tmp_path / "ok.d01").read_text() == "1\n"


@pytest.mark.parametrize("fmt", ["grouplist", "dense01"])
def test_convert_normalize_wants_densepm_input(tmp_path, capsys, fmt):
    src = tmp_path / "in.txt"
    src.write_text("HM_3_1:[[[0,2],[1,1]],[[0,1],[1,1],[2,1]],[[1,1],[2,1],[4,1]]]$\n"
                   if fmt == "grouplist" else "110\n101\n011\n")
    out = tmp_path / "out.d01"
    code, _, err = run(capsys, "convert", str(src), "--from", fmt, "--to",
                       "densepm", "--normalize", "-o", str(out))
    assert code == 2
    assert "--normalize" in err and "densepm" in err
    assert not out.exists()


def test_bench_reports_rate(capsys):
    code, stdout, _ = run(capsys, "bench", "-m", "3")
    assert code == 0
    assert re.search(r"^v=\d+ matrices/minute$", stdout, re.MULTILINE)
    assert "1 matrices" in stdout


def test_bench_with_limit(capsys):
    code, stdout, _ = run(capsys, "bench", "-m", "15", "--limit", "200")
    assert code == 0
    assert "200 matrices" in stdout


def test_bench_with_duration(capsys):
    code, stdout, _ = run(capsys, "bench", "-m", "15", "--duration", "0.3")
    assert code == 0
    assert re.search(r"v=\d+ matrices/minute", stdout)


def test_bench_reports_the_first_matrix_time(capsys):
    code, stdout, _ = run(capsys, "bench", "-m", "3")
    assert code == 0
    assert re.search(r"^first matrix after \d+\.\d\d s$", stdout, re.MULTILINE)
    assert "cut at" not in stdout


def test_bench_cut_before_the_first_matrix(capsys):
    # the first order-19 matrix takes tens of seconds
    code, stdout, _ = run(capsys, "bench", "-m", "19", "--duration", "0.3")
    assert code == 0
    assert re.search(r"^m=19: 0 matrices in \d+\.\d\d s \(cut at 0\.3 s\)$",
                     stdout, re.MULTILINE)
    assert re.search(r"^first matrix after - s$", stdout, re.MULTILINE)


@pytest.mark.parametrize("duration", ["nan", "-1", "0", "inf"])
def test_bench_rejects_bad_duration(duration, monkeypatch, capsys):
    import hadamard01.cli as cli
    # the duration is parsed before any search starts; fail loudly if not
    monkeypatch.setattr(cli, "iter_matrices",
                        lambda *a, **k: pytest.fail("search ran"))
    code, _, err = run(capsys, "bench", "-m", "3", "--duration", duration)
    assert code == 2
    assert "finite and positive" in err


def test_missing_input_file_is_exit_2(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/path.txt")
    assert code == 2
    assert "Error" in err


def test_convert_normalize_error_comes_under_convert_usage(tmp_path, capsys):
    src = tmp_path / "in.d01"
    src.write_text("110\n101\n011\n")
    code, _, err = run(capsys, "convert", str(src), "--from", "dense01", "--to",
                       "densepm", "--normalize")
    assert code == 2
    assert err.startswith("usage: hadamard01 convert ")
    assert err.splitlines()[-1] == (
        "hadamard01 convert: error: argument --normalize: only applies to --from densepm"
    )


def test_cli_import_leaves_dataclasses_logging_and_inspect_out():
    # -S: no site hooks, so only the package's own imports count
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hadamard01.cli; "
            "print(sorted({'dataclasses', 'logging', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
    # nor does a run with --progress, which prints its status line itself
    code = ("import os, sys; sys.path.insert(0, sys.argv[1]); import hadamard01.cli; "
            "hadamard01.cli.main(['generate', '-m', '3', '--progress', "
            "'-o', os.devnull]); print('logging' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
    assert done.stderr.startswith("i=3 emitted=0 t=")


def test_verify_help_names_the_default_policy_bound(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["generate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default: on for m <= {VERIFY_DEFAULT_MAX_ORDER})" in text
    bound = validate_order(VERIFY_DEFAULT_MAX_ORDER)
    assert GenConfig(bound).verify_each is True
    assert GenConfig(validate_order(bound.m + 4)).verify_each is False
