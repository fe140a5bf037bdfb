"""Span tracing of the vslcert modules, installed from outside the package.

Tracing replaces module attributes with timing wrappers under the names
their callers look them up by (``vslcert.cli.run_search``,
``vslcert.search.solve_milp``, ...), so ``src/`` is never edited. The
command line's own helpers (parser construction, scenario file read, CSV
write) are wrapped too, so that only argument parsing and the command
bodies' glue are left to the root span. Each
wrapped call records one span: name, start, end and parent span. Spans
stay in memory and are written as JSON when the run ends. A span belongs
to the layer (module) that defines the wrapped function; its self time is
its duration minus the time its child spans cover.

Counters are taken at the same boundaries from the values the wrapped
functions return: MILP node counts and time-limit hits from
``solve_milp``, model shape from the first ``build_upper`` of each
search, certificate outcomes
from ``certificate``, and search rounds from ``run_search``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module the caller lives in, attribute name the caller uses)
TARGETS = (
    ("vslcert.cli", "build_parser"),
    ("vslcert.cli", "_load_config"),
    ("vslcert.cli", "_write_csv"),
    ("vslcert.cli", "load_scenario"),
    ("vslcert.cli", "load_generator"),
    ("vslcert.cli", "generate_samples"),
    ("vslcert.cli", "propagate_batch"),
    ("vslcert.cli", "certificate"),
    ("vslcert.cli", "run_search"),
    ("vslcert.cli", "brute_force_optimum"),
    ("vslcert.cli", "validate"),
    ("vslcert.search", "build_upper"),
    ("vslcert.search", "build_lower"),
    ("vslcert.search", "decode_profile"),
    ("vslcert.search", "assignment_of"),
    ("vslcert.search", "eta_saturation"),
    ("vslcert.search", "solve_milp"),
    ("vslcert.search", "solve_lp"),
    ("vslcert.search", "propagate_batch"),
    ("vslcert.search", "certificate"),
    ("vslcert.validation", "propagate_batch"),
    ("vslcert.validation", "certificate"),
    ("vslcert.validation", "propagate"),
    ("vslcert.validation", "average_flow"),
    ("vslcert.validation", "simulate_ctm"),
    ("vslcert.validation", "generate_samples"),
)


def _count_milp(counters: Counter, args, sol) -> None:
    counters["lpsolve.milp_nodes"] += sol.node_count or 0
    counters["lpsolve.milp_time_limit_hits"] += int(sol.status == "time_limit")


def _count_upper(counters: Counter, args, upper) -> None:
    # Shape of the first model of each search only (no cuts yet), so the
    # figure moves with the formulation, not with the number of rounds.
    cuts = args[1] if len(args) > 1 else None
    if cuts:
        return
    A = upper.model.A
    counters["linearize.upper_rows"] += A.shape[0]
    counters["linearize.upper_cols"] += A.shape[1]
    counters["linearize.upper_nnz"] += A.nnz


def _count_certificate(counters: Counter, args, result) -> None:
    counters["certificate.finite"] += int(result.finite)


def _count_search(counters: Counter, args, report) -> None:
    counters["search.rounds"] += len(report.iterations)


HOOKS = {
    "solve_milp": _count_milp,
    "build_upper": _count_upper,
    "certificate": _count_certificate,
    "run_search": _count_search,
}


class Tracer:
    """In-memory span log plus counters for one traced pass."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        layer = fn.__module__.rpartition(".")[2]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, layer, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][3] = time.perf_counter()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{module_name}.{attr}",
                                                original, HOOKS.get(attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Per-name calls and total/self seconds, and per-layer self seconds."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, layer, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        for i, (name, layer, start, end, parent) in enumerate(spans):
            own = (end - start) - child_time[i]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            layer_self[layer] += own
        return {"calls": calls, "total": total, "self": self_s,
                "layer_self": layer_self}

    def write(self, path: Path) -> None:
        """Write the spans (times relative to the tracer's creation) and
        counters as JSON."""
        rows = [
            {"name": name, "layer": layer, "start": start - self.origin,
             "end": end - self.origin, "parent": parent}
            for name, layer, start, end, parent in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "counters": dict(self.counters)}))


def span_cost(calls: int = 20_000) -> float:
    """Seconds one wrapped call adds over a bare call, measured on a no-op."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(traced - (time.perf_counter() - start), 0.0) / calls
