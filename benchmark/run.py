#!/usr/bin/env python3
"""End-to-end benchmark of the hadamard01 CLI.

Run from the root of a checkout:

    python3 benchmark/run.py --workload gen_m15_prefix --seed 1 --seconds 50 --trace 0

``--trace 0`` runs every timed command in a child process of its own and
reports the end-to-end metrics.  ``--trace 1`` runs the same commands
in-process through ``cli.main``, once plain and once with the layer
wrappers of ``tracer.py`` installed, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md in this
directory says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# Every run must end within 180 s: no unit starts that would end past this
# budget, and a child still running at its end is killed.
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 5

M3_RECORD = "HM_3_1:[[[0,2],[1,1]],[[0,1],[1,1],[2,1]],[[1,1],[2,1],[4,1]]]$\n"

M11_COUNT = 60480
M11_SHA256 = "6445199d6a674be6abbda78d0ee1ca13739846c9b7b93f098cdd74aa22af9788"
M15_LIMIT = 3000
M15_SHA256 = "782c85f348800a13fdf49c65bf36400a0e17adea270248d6ef0395a41be2a79f"
IO_RECORDS = 1000  # records in the io_m11 input file
IO_POOL = 1500  # prefix of the m=11 stream that the sample is drawn from

# Row systems built ("nodes") and solutions found at each depth of the
# complete m=11 search; the traced run must reproduce them exactly.
M11_DEPTHS = {
    d: {"nodes": n, "solutions": s}
    for d, n, s in zip(
        range(3, 12),
        (1, 3, 11, 83, 504, 2520, 10080, 30240, 60480),
        (3, 11, 83, 504, 2520, 10080, 30240, 60480, 60480),
    )
}


@dataclass
class Step:
    """One CLI command of a workload and the check on its output."""

    kind: str  # "generate", "verify" or "convert"
    argv: list[str]
    records: int  # records the command writes (generate) or reads
    reads: Path | None
    writes: Path | None
    check: Callable[[Path], str | None]  # captured stdout -> error or None


@dataclass
class Unit:
    """One pass over a workload's steps."""

    wall: float = 0.0
    peak_rss_mb: float = 0.0
    kind_time: dict[str, float] = field(default_factory=dict)
    kind_records: dict[str, int] = field(default_factory=dict)
    bytes_read: int = 0
    bytes_written: int = 0
    attempted: int = 0
    failed: int = 0


# checks -------------------------------------------------------------------


def check_stream(path: Path, count: int, sha256: str) -> str | None:
    data = path.read_bytes()
    got = data.count(b"\n")
    if got != count:
        return f"{path.name}: {got} records, expected {count}"
    digest = hashlib.sha256(data).hexdigest()
    if digest != sha256:
        return f"{path.name}: sha256 {digest}, expected {sha256}"
    return None


def check_verify(stdout: Path, count: int) -> str | None:
    lines = stdout.read_text(encoding="ascii").splitlines()
    passed = sum(line.endswith(": PASS") for line in lines)
    if passed != count or len(lines) != count:
        return f"verify: {passed} PASS of {len(lines)} lines, expected {count}"
    return None


def check_same(path: Path, reference: Path) -> str | None:
    if path.read_bytes() != reference.read_bytes():
        return f"{path.name} differs from {reference.name}"
    return None


# workloads ------------------------------------------------------------------


def gen_steps(work: Path, m: int, limit: int | None, count: int, sha256: str) -> list[Step]:
    out = work / f"m{m}.gl"
    argv = ["generate", "-m", str(m), "-o", str(out)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    return [Step("generate", argv, count, None, out,
                 lambda _: check_stream(out, count, sha256))]


def io_inputs(work: Path, seed: int) -> None:
    """Write a seeded sample of the first IO_POOL m=11 matrices.

    write_grouplist names records by position, so the round trips through
    dense formats (which carry no names) come back byte-identical.
    """
    from hadamard01 import GenConfig, iter_matrices, validate_order
    from hadamard01.formats import write_grouplist

    config = GenConfig(validate_order(11), limit=IO_POOL, verify_each=False)
    pool = list(iter_matrices(config))
    picks = random.Random(seed).sample(range(len(pool)), IO_RECORDS)
    with open(work / "in.gl", "w", encoding="ascii") as out:
        write_grouplist(out, (pool[i] for i in picks))


def io_steps(work: Path) -> list[Step]:
    gl, d01, rt1, dpm, rt2 = (
        work / name for name in ("in.gl", "rt.d01", "rt1.gl", "rt.dpm", "rt2.gl")
    )
    n = IO_RECORDS

    def convert(src, dst, src_fmt, dst_fmt, *extra, check=lambda _: None):
        argv = ["convert", str(src), "--from", src_fmt, "--to", dst_fmt, *extra, "-o", str(dst)]
        return Step("convert", argv, n, src, dst, check)

    return [
        Step("verify", ["verify", str(gl)], n, gl, None, lambda out: check_verify(out, n)),
        convert(gl, d01, "grouplist", "dense01"),
        convert(d01, rt1, "dense01", "grouplist", check=lambda _: check_same(rt1, gl)),
        convert(gl, dpm, "grouplist", "densepm"),
        convert(dpm, rt2, "densepm", "grouplist", "--normalize",
                check=lambda _: check_same(rt2, gl)),
    ]


@dataclass
class Workload:
    m: int
    steps: Callable[[Path], list[Step]]
    inputs: Callable[[Path, int], None] | None = None  # None: the seed is unused
    depths: dict | None = None  # per-depth counts the traced run must match


WORKLOADS = {
    "gen_m11_full": Workload(
        11, lambda w: gen_steps(w, 11, None, M11_COUNT, M11_SHA256), depths=M11_DEPTHS
    ),
    "gen_m15_prefix": Workload(
        15, lambda w: gen_steps(w, 15, M15_LIMIT, M15_LIMIT, M15_SHA256)
    ),
    "io_m11": Workload(11, io_steps, inputs=io_inputs),
}


# running --------------------------------------------------------------------

CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
)

# Runs ``python -m hadamard01 ARGV...`` and, at exit, writes the peak RSS of
# its own address space (VmHWM, in kB) to the file named by its first
# argument.  wait4's ru_maxrss is no use here: Linux starts a child's
# ru_maxrss from this process's RSS when it spawns the child, so it would
# read this process's size for any child smaller than it.
CHILD_MAIN = """
import atexit, runpy, sys

def report(path=sys.argv.pop(1)):
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])

atexit.register(report)
runpy.run_module("hadamard01", run_name="__main__", alter_sys=True)
"""


def run_child(argv: list[str], stdout: Path, deadline: float) -> tuple[int, float, float]:
    """Run the CLI in a child process: (exit code, wall s, peak RSS MB).

    The RSS is the child's own peak, so neither an earlier child with a
    larger peak nor this process can mask it.  A child that outlives the
    run's deadline is killed; its RSS then reads 0.
    """
    hwm = stdout.with_suffix(".hwm")
    hwm.unlink(missing_ok=True)
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD_MAIN, str(hwm), *argv],
            stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT,
        )
        # A blocking wait and SIGALRM, not proc.wait(timeout=...): that polls
        # with sleeps of up to 50 ms, which would show in the wall time.
        old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(max(1, math.ceil(deadline - time.monotonic())))
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
    rss_kb = int(hwm.read_text(encoding="ascii")) if hwm.exists() else 0
    return code, wall, rss_kb / 1024.0


def run_in_process(argv: list[str], stdout: Path, deadline: float) -> tuple[int, float, float]:
    """Run ``cli.main`` in this process: (exit code, wall s, 0.0)."""
    from hadamard01 import cli

    with open(stdout, "w", encoding="ascii") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        wall = time.perf_counter() - t0
    return code, wall, 0.0


def run_unit(steps: list[Step], runner, work: Path, deadline: float) -> Unit:
    unit = Unit()
    stdout = work / "stdout.txt"
    for step in steps:
        if step.writes is not None:
            step.writes.unlink(missing_ok=True)  # a stale output must not pass
        code, wall, rss = runner(step.argv, stdout, deadline)
        error = f"exit status {code}" if code != 0 else step.check(stdout)
        unit.attempted += 1
        if error is not None:
            unit.failed += 1
            print(f"FAILED {step.kind} {' '.join(step.argv)}: {error}", file=sys.stderr)
        unit.wall += wall
        unit.peak_rss_mb = max(unit.peak_rss_mb, rss)
        unit.kind_time[step.kind] = unit.kind_time.get(step.kind, 0.0) + wall
        unit.kind_records[step.kind] = unit.kind_records.get(step.kind, 0) + step.records
        if step.reads is not None and step.reads.exists():
            unit.bytes_read += step.reads.stat().st_size
        if step.writes is not None and step.writes.exists():
            unit.bytes_written += step.writes.stat().st_size
    return unit


def set_up(workload: Workload, work: Path, seed: int, repeats: int, deadline: float):
    """Start the CLI once on m=3 and build the workload's inputs.

    The m=3 run checks that the program starts and compiles its bytecode
    before anything is timed.  Returns (set-up times, attempted, failed).
    """
    times = []
    failed = 0
    smoke = work / "smoke.gl"
    for _ in range(repeats):
        t0 = time.perf_counter()
        code, _, _ = run_child(["generate", "-m", "3", "-o", str(smoke)], work / "smoke.out", deadline)
        if code != 0 or smoke.read_text(encoding="ascii") != M3_RECORD:
            failed += 1
            print("FAILED set-up: generate -m 3 did not give the known record", file=sys.stderr)
        if workload.inputs is not None:
            workload.inputs(work, seed)
        times.append(time.perf_counter() - t0)
    return times, repeats, failed


def repeat(once: Callable[[], None], seconds: float, deadline: float) -> None:
    """Call ``once`` until ``seconds`` have passed, at least once, and stop
    early when another call would run past ``deadline``."""
    end = time.monotonic() + seconds
    while True:
        t0 = time.monotonic()
        once()
        now = time.monotonic()
        if now >= end or now + (now - t0) > deadline:
            return


def rate(units: list[Unit], kind: str) -> float | None:
    """Records per second of ``kind`` commands over the whole run."""
    timed = [u for u in units if kind in u.kind_time]
    if not timed:
        return None
    return sum(u.kind_records[kind] for u in timed) / sum(u.kind_time[kind] for u in timed)


def end_to_end(workload, work, seed, seconds, deadline) -> dict:
    setup_times, attempted, failed = set_up(workload, work, seed, SETUP_REPEATS, deadline)
    steps = workload.steps(work)
    units: list[Unit] = []
    repeat(lambda: units.append(run_unit(steps, run_child, work, deadline)), seconds, deadline)
    attempted += sum(u.attempted for u in units)
    failed += sum(u.failed for u in units)
    summary = {
        "units": len(units),
        "failed_frac": failed / attempted,
        "matrices_per_s": rate(units, "generate"),
        "verify_records_per_s": rate(units, "verify"),
        "convert_records_per_s": rate(units, "convert"),
    }
    print("summary " + json.dumps({k: v for k, v in summary.items() if v is not None}))
    # Times are totals over the run, not medians of units: the host's speed
    # switches between a few levels for seconds at a time, and a median of
    # units jumps from level to level where the mean moves smoothly.
    total_wall = sum(u.wall for u in units)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (total_wall / len(units), "s"),
        "records_per_s": (sum(sum(u.kind_records.values()) for u in units) / total_wall, "1/s"),
        "peak_rss_mb": (statistics.median(u.peak_rss_mb for u in units), "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def traced(workload, work, seed, seconds, deadline) -> dict:
    _, attempted, failed = set_up(workload, work, seed, 1, deadline)
    steps = workload.steps(work)
    tracer = Tracer(workload.m)
    plain: list[Unit] = []
    spanned: list[Unit] = []

    def once() -> None:
        # Collect first, so that neither pass pays for the other's garbage.
        gc.collect()
        plain.append(run_unit(steps, run_in_process, work, deadline))
        gc.collect()
        with tracer.active():
            spanned.append(run_unit(steps, run_in_process, work, deadline))

    repeat(once, seconds, deadline)
    passes = len(spanned)
    attempted += sum(u.attempted for u in plain + spanned)
    failed += sum(u.failed for u in plain + spanned)

    table = tracer.per_depth(passes)
    print("per_depth " + json.dumps(table))
    if workload.depths is not None:
        attempted += 1
        counts = {d: {k: row[k] for k in ("nodes", "solutions")} for d, row in table.items()}
        if counts != workload.depths:
            failed += 1
            print(f"FAILED self-check: per-depth counts {table}", file=sys.stderr)

    metrics = tracer.metrics(passes)
    traced_wall = sum(u.wall for u in spanned) / passes
    plain_wall = sum(u.wall for u in plain) / passes
    metrics["formats.bytes_read"] = (sum(u.bytes_read for u in spanned) / passes, "B")
    metrics["formats.bytes_written"] = (sum(u.bytes_written for u in spanned) / passes, "B")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hadamard01" / "cli.py").is_file():
        print(f"error: no hadamard01 sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if workload.inputs is None:
        print(f"{args.workload} is deterministic: the seed is ignored")
    # Turn SIGTERM into SystemExit so that a running child is killed and
    # reaped, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        measure_fn = traced if args.trace else end_to_end
        result = measure_fn(workload, work, args.seed, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
