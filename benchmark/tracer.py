"""Per-layer tracing for an in-process run of ``hadamard01.cli.main``.

Timing wrappers are installed around each layer's functions, in the module
namespace where the caller looks the name up (``cli`` and ``generator``
import most layer functions by name, so patching the defining module alone
would miss those calls).  Every wrapper opens a span; a span's self time is
its duration minus the time of the spans opened inside it.  A wrapped
generator opens one span per ``next()``, so the work of deeper DFS levels,
which runs between two ``next()`` calls of a shallower level, is never
billed to the shallower one.

A target that no longer exists is skipped, and the metrics that depend on
it are left out of the report instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# (span key, module under hadamard01, attribute).  One key may cover several
# names; a name is patched where its callers look it up.
TARGETS = [
    ("cli", "cli", "main"),
    ("iter", "cli", "iter_matrices"),
    ("build", "generator", "build_system"),
    ("enum", "generator", "enumerate_solutions"),
    ("reduce", "solver", "_reduced_echelon"),
    ("child", "generator", "child_row"),
    ("decode", "generator", "decode_matrix"),
    ("decode", "cli", "decode_matrix"),
    ("verify", "gram", "is_hadamard_zo"),
    ("verify", "cli", "is_hadamard_zo"),
    ("tokenize", "formats", "_Tokens"),
    ("validate", "formats", "validate_partition_matrix"),
    ("parse", "formats", "parse_grouplist"),
    ("parse", "formats", "parse_dense01"),
    ("parse", "formats", "parse_densepm"),
    ("render", "formats", "grouplist_record"),
    ("render", "formats", "write_grouplist"),
    ("render", "formats", "write_dense01"),
    ("render", "formats", "write_densepm"),
    ("encode", "cli", "encode_matrix"),
    ("normalize", "cli", "normalize"),
    ("convert", "cli", "pm_from_zo"),
    ("convert", "cli", "zo_from_pm"),
]


class Tracer:
    """Span totals, self times, call counts and solver counters.

    ``m`` is the order being searched, so that the last row (depth m) can
    be timed on its own.  Counters accumulate over every traced pass.
    """

    def __init__(self, m: int | None):
        self.m = m
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.installed: set[str] = set()
        self._child = [0.0]  # time of finished child spans, per open span
        self.nodes_by_depth: Counter[int] = Counter()
        self.solutions_by_depth: Counter[int] = Counter()
        self.dead_ends_by_depth: Counter[int] = Counter()
        self.inconsistent = 0
        self.free_vars = 0
        self.consistent = 0
        self.verify_failed = 0
        self.last_row_s = 0.0
        self.emit_gaps: list[float] = []

    # spans -------------------------------------------------------------

    def _enter(self) -> float:
        self._child.append(0.0)
        return perf_counter()

    def _exit(self, key: str, t0: float) -> float:
        dt = perf_counter() - t0
        child = self._child.pop()
        self._child[-1] += dt
        self.total[key] += dt
        self.own[key] += dt - child
        return dt

    def _wrap_call(self, key, fn):
        after = getattr(self, f"_after_{key}", None)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(key, t0)
            self.calls[key] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_gen(self, key, fn):
        on_item = getattr(self, f"_item_{key}", None)
        on_end = getattr(self, f"_end_{key}", None)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            yielded = 0
            spent = 0.0
            exhausted = False
            try:
                while True:
                    t0 = self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        exhausted = True
                        return
                    finally:
                        dt = self._exit(key, t0)
                        spent += dt
                    yielded += 1
                    if on_item is not None:
                        on_item(dt)
                    yield item
            finally:
                it.close()
                self.calls[key] += 1
                if on_end is not None:
                    on_end(args, yielded, spent, exhausted)

        return wrapper

    # counters ----------------------------------------------------------

    def _after_build(self, system) -> None:
        depth = getattr(system, "i", None)
        if depth is not None:
            self.nodes_by_depth[depth] += 1

    def _after_reduce(self, reduced) -> None:
        if reduced is None:
            self.inconsistent += 1
        else:
            self.consistent += 1
            self.free_vars += len(reduced[1])

    def _after_verify(self, ok) -> None:
        self.verify_failed += not ok

    def _end_enum(self, args, yielded, spent, exhausted) -> None:
        depth = getattr(args[0], "i", None) if args else None
        if depth is not None:
            self.solutions_by_depth[depth] += yielded
            if depth == self.m:
                self.last_row_s += spent
        if exhausted and not yielded:
            self.dead_ends_by_depth[depth] += 1

    def _item_iter(self, dt) -> None:
        self.emit_gaps.append(dt)

    # installation ------------------------------------------------------

    @contextlib.contextmanager
    def active(self):
        """Patch every target that exists for the duration of the block."""
        saved = []
        try:
            for key, modname, attr in TARGETS:
                module = importlib.import_module(f"hadamard01.{modname}")
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if inspect.isgeneratorfunction(fn):
                    wrapped = self._wrap_gen(key, fn)
                else:
                    wrapped = self._wrap_call(key, fn)
                saved.append((module, attr, fn))
                setattr(module, attr, wrapped)
                self.installed.add(key)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # report ------------------------------------------------------------

    def per_depth(self, passes: int) -> dict[int, dict[str, int]]:
        """Row systems built, solutions found and dead ends at each depth,
        per pass."""
        n = max(passes, 1)
        depths = sorted(set(self.nodes_by_depth) | set(self.solutions_by_depth))
        return {
            d: {
                "nodes": self.nodes_by_depth[d] // n,
                "solutions": self.solutions_by_depth[d] // n,
                "dead_ends": self.dead_ends_by_depth[d] // n,
            }
            for d in depths
        }

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged over ``passes`` traced passes.

        A metric is left out when a span it is computed from could not be
        installed.
        """
        n = max(passes, 1)
        tot = {k: v / n for k, v in self.total.items()}
        own = {k: v / n for k, v in self.own.items()}
        calls = {k: v / n for k, v in self.calls.items()}
        builds = self.calls["build"]
        solutions = sum(self.solutions_by_depth.values())
        gaps = self.emit_gaps
        quant = statistics.quantiles(gaps, n=100, method="inclusive") if len(gaps) > 1 else None
        rows = [
            ("solver.build_calls", "count", "build", calls.get("build", 0)),
            ("solver.build_s", "s", "build", tot.get("build", 0.0)),
            ("solver.reduce_calls", "count", "reduce", calls.get("reduce", 0)),
            ("solver.reduce_s", "s", "reduce", tot.get("reduce", 0.0)),
            ("solver.scan_s", "s", ("enum", "reduce"), own.get("enum", 0.0)),
            ("solver.solutions", "count", "enum", solutions / n),
            ("solver.dead_ends", "count", "enum", sum(self.dead_ends_by_depth.values()) / n),
            ("solver.inconsistent", "count", "reduce", self.inconsistent / n),
            ("solver.yield_ratio", "ratio", ("enum", "build"),
             solutions / builds if builds else 0.0),
            ("solver.free_vars_mean", "count", "reduce",
             self.free_vars / self.consistent if self.consistent else 0.0),
            ("solver.last_row_s", "s", "enum", self.last_row_s / n),
            ("generator.child_calls", "count", "child", calls.get("child", 0)),
            ("generator.child_s", "s", "child", tot.get("child", 0.0)),
            ("generator.self_s", "s", "iter", own.get("iter", 0.0)),
            ("generator.emit_gap_p50_us", "us", "iter", quant[49] * 1e6 if quant else 0.0),
            ("generator.emit_gap_p99_us", "us", "iter", quant[98] * 1e6 if quant else 0.0),
            ("generator.emit_gap_samples", "count", "iter", len(gaps)),
            ("gram.verify_calls", "count", "verify", calls.get("verify", 0)),
            ("gram.verify_s", "s", "verify", tot.get("verify", 0.0)),
            ("gram.verify_failed", "count", "verify", self.verify_failed / n),
            ("partition.decode_s", "s", "decode", tot.get("decode", 0.0)),
            ("partition.validate_s", "s", "validate", tot.get("validate", 0.0)),
            ("partition.encode_s", "s", "encode", tot.get("encode", 0.0)),
            ("formats.tokenize_s", "s", "tokenize", tot.get("tokenize", 0.0)),
            ("formats.parse_s", "s", "parse", own.get("parse", 0.0)),
            ("formats.render_s", "s", "render", own.get("render", 0.0)),
            ("presentation.normalize_s", "s", "normalize", tot.get("normalize", 0.0)),
            ("presentation.convert_s", "s", "convert", tot.get("convert", 0.0)),
            ("cli.self_s", "s", "cli", own.get("cli", 0.0)),
        ]
        out = {}
        for name, unit, needs, value in rows:
            needs = (needs,) if isinstance(needs, str) else needs
            if all(k in self.installed for k in needs):
                out[name] = (value, unit)
        return out
