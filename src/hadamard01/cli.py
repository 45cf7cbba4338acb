"""Command-line interface: generate, verify, convert, bench.

Exit statuses: 0 on success (all records pass for verify), 1 when a
verification reports failures, 2 on usage, parse, or domain errors.

Each subcommand's parser sets its ``_cmd_*`` function as ``run``, and main
calls it.

verify and convert open their input as latin-1 and hand its lines straight
to a ``formats`` reader, which checks them, a non-ASCII byte included.  They
stream their input one record at a time.  When a record fails to parse,
the records before it have already been reported (verify) or written
(convert); the command then stops with exit 2 and the line-numbered error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import contextmanager, suppress
from typing import Iterator

from . import formats
from .core import BitMatrix, HadamardError, pack_row, validate_order
from .generator import VERIFY_DEFAULT_MAX_ORDER, GenConfig, iter_matrices
from .gram import StreamCheck, is_hadamard_zo
from .partition import LastRecord, decode_matrix, encode_matrix, row_mask
from .presentation import (
    is_normalized,
    normalize,
    pm_from_zo,
    verify_sign_hadamard,
    zo_from_pm,
)


def _number(text: str, kind=int):
    """kind(text) for ASCII text with no ``_`` or surrounding space, as the
    file readers take numbers: int() and float() would take all three."""
    if text.isascii() and "_" not in text and text == text.strip():
        with suppress(ValueError):
            return kind(text)
    what = "an integer" if kind is int else "a number"
    raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")


def _positive_int(text: str) -> int:
    value = _number(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    value = _number(text, float)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadamard01",
        description="Generate, verify, and convert Hadamard matrices in {0,1} form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt_kwargs = dict(choices=formats.FORMATS, default="grouplist")

    p_gen = sub.add_parser("generate", help="search for matrices of order m")
    p_gen.add_argument("-m", type=_number, required=True, help="matrix order (3 mod 4)")
    p_gen.add_argument("-o", dest="output", help="output path (default stdout)")
    p_gen.add_argument("--limit", type=_positive_int, help="stop after N matrices")
    p_gen.add_argument("--format", **fmt_kwargs)
    p_gen.add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=f"re-verify each emitted matrix (default: on for m <= {VERIFY_DEFAULT_MAX_ORDER})",
    )
    p_gen.add_argument("--progress", action="store_true",
                       help="write a status line to stderr about once a second")
    p_gen.set_defaults(run=_cmd_generate)

    p_ver = sub.add_parser("verify", help="check every record of a file")
    p_ver.add_argument("input", help="input path")
    p_ver.add_argument("--format", **fmt_kwargs)
    p_ver.set_defaults(run=_cmd_verify)

    p_conv = sub.add_parser("convert", help="rewrite a file in another format")
    p_conv.add_argument("input", help="input path")
    p_conv.add_argument("--from", dest="from_format", required=True,
                        choices=formats.FORMATS)
    p_conv.add_argument("--to", dest="to_format", required=True,
                        choices=formats.FORMATS)
    p_conv.add_argument("-o", dest="output", help="output path (default stdout)")
    p_conv.add_argument(
        "--normalize", action="store_true",
        help="normalize densepm input before converting",
    )
    # usage_error is for checks across options
    p_conv.set_defaults(run=_cmd_convert, usage_error=p_conv.error)

    p_bench = sub.add_parser("bench", help="measure the matrix production rate")
    p_bench.add_argument("-m", type=_number, required=True)
    p_bench.add_argument("--limit", type=_positive_int, help="stop after N matrices")
    p_bench.add_argument("--duration", type=_positive_seconds,
                         help="stop after this many seconds")
    p_bench.set_defaults(run=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (HadamardError, OSError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 2


@contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii") as handle:
            yield handle


def _cmd_generate(args) -> int:
    params = validate_order(args.m)
    config = GenConfig(
        params,
        limit=args.limit,
        verify_each=args.verify,
        progress=args.progress,
    )
    start = time.monotonic()
    with _open_out(args.output) as out:
        matrices = iter_matrices(config)
        if args.format == "grouplist":
            count = formats.write_grouplist(out, matrices)
        else:
            count = _write_bits(out, args.format, _each_from_last(decode_matrix, matrices))
    elapsed = time.monotonic() - start
    print(f"generated {count} matrices in {elapsed:.2f} s", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    total = 0
    # latin-1 decodes every byte, so a reader names a non-ASCII byte on its
    # line instead of the read failing to decode; newlines are universal
    with open(args.input, encoding="latin-1") as lines:
        for name, passed in _verify_records(lines, args.format):
            total += 1
            print(f"{name}: {'PASS' if passed else 'FAIL'}")
            failures += not passed
    print(f"{total - failures}/{total} records pass", file=sys.stderr)
    return 1 if failures else 0


def _verify_records(lines: Iterator[str], fmt: str) -> Iterator[tuple[str, bool]]:
    if fmt == "grouplist":
        check = StreamCheck(row_mask)
        for name, pm in formats.parse_grouplist(lines):
            yield name, check(pm)
    elif fmt == "dense01":
        check = StreamCheck(pack_row)
        for idx, t in enumerate(formats.parse_dense01(lines), start=1):
            yield f"matrix {idx}", check(t)
    else:
        for idx, h in enumerate(formats.parse_densepm(lines), start=1):
            ok = verify_sign_hadamard(h)
            # cross-check through the {0,1} form where the characterization
            # applies (side >= 4 and all-ones border)
            if ok and h.n >= 4 and is_normalized(h):
                ok = is_hadamard_zo(zo_from_pm(h))
            yield f"matrix {idx}", ok


def _cmd_convert(args) -> int:
    if args.normalize and args.from_format != "densepm":
        args.usage_error("argument --normalize: only applies to --from densepm")
    if args.output and os.path.exists(args.output) and os.path.samefile(args.input, args.output):
        # streaming would truncate the input before reading it
        raise HadamardError(f"output {args.output} is the input file")
    with open(args.input, encoding="latin-1") as lines, _open_out(args.output) as out:
        _write_bits(out, args.to_format, _read_as_bits(lines, args.from_format, args.normalize))
    return 0


def _write_bits(out, fmt: str, bits: Iterator[BitMatrix]) -> int:
    """Write a stream of bit matrices in any format; returns the count."""
    if fmt == "grouplist":
        return formats.write_grouplist(out, _each_from_last(encode_matrix, bits))
    if fmt == "dense01":
        return formats.write_dense01(out, bits)
    return formats.write_densepm(out, map(pm_from_zo, bits))


def _each_from_last(fn, items: Iterator) -> Iterator:
    """Map fn(item, last) over a stream with one partition.LastRecord, in
    which encode_matrix and decode_matrix keep the rows each item shares
    with the one before.  An error of fn names the matrix, numbered from
    1 as ``verify`` does."""
    last = LastRecord()
    for k, item in enumerate(items, start=1):
        try:
            result = fn(item, last)
        except HadamardError as exc:
            raise HadamardError(f"matrix {k}: {exc}") from exc
        yield result


def _read_as_bits(lines: Iterator[str], fmt: str, do_normalize: bool) -> Iterator[BitMatrix]:
    """Parse any input format down to bit matrices, one at a time."""
    if fmt == "grouplist":
        yield from _each_from_last(
            decode_matrix, (pm for _, pm in formats.parse_grouplist(lines)))
    elif fmt == "dense01":
        yield from formats.parse_dense01(lines)
    else:
        yield from _each_from_last(
            lambda h, _: zo_from_pm(normalize(h) if do_normalize else h),
            formats.parse_densepm(lines))


def _cmd_bench(args) -> int:
    params = validate_order(args.m)
    config = GenConfig(params, limit=args.limit, verify_each=False)
    start = time.monotonic()
    deadline = None if args.duration is None else start + args.duration
    first = None
    count = 0
    for _ in iter_matrices(config, deadline=deadline):
        if first is None:
            first = time.monotonic() - start
        count += 1
    end = time.monotonic()
    elapsed = end - start
    rate = round(count * 60.0 / elapsed) if elapsed > 0 else 0
    cut = "" if deadline is None or end < deadline else f" (cut at {args.duration:g} s)"
    print(f"m={params.m}: {count} matrices in {elapsed:.2f} s{cut}")
    print(f"v={rate} matrices/minute")
    print(f"first matrix after {'-' if first is None else f'{first:.2f}'} s")
    return 0
