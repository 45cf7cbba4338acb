import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload, trace", [
    pytest.param(workload, trace, id=workload + ("-traced" if trace == "1" else ""))
    for trace in ("0", "1") for workload in ("gen_m15_prefix", "io_m11")
])
def test_benchmark_runner_ends_with_a_result(workload, trace):
    # the runner builds its inputs in-process from the package, so an API
    # change it depends on shows here as a crash instead of a result line;
    # a traced run must report every per-layer metric the benchmark lists
    argv = [sys.executable, "benchmark/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0.1", "--trace", trace]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = (proc.stdout.splitlines() or [""])[-1]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        pytest.fail(f"last stdout line is not a result: {last!r}\n{proc.stderr}")
    assert result["correct"] is True and result["failed"] == 0
    if trace == "1":
        wanted = {metric["name"] for metric in BENCHMARK["per_layer"]}
        missing = wanted - set(result["metrics"])
        assert not missing, missing


# entries that name a function the package no longer has; the tracer skips
# them, so their spans read nothing (the benchmark's own change removes them)
DEAD_TRACER_TARGETS = {
    ("decode", "generator", "decode_matrix"),
    ("render", "formats", "grouplist_record"),
}


def test_every_tracer_target_exists():
    # a renamed layer function would otherwise drop its span without a word
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmark" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    dead = {
        (key, module, attr) for key, module, attr in tracer.TARGETS
        if not hasattr(importlib.import_module(f"hadamard01.{module}"), attr)
    }
    assert dead == DEAD_TRACER_TARGETS
