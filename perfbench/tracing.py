"""Spans around pmlab's public functions, recorded from outside the package.

A ``Tracer`` replaces each function in ``BINDINGS`` at the module binding
its callers look it up through (``pmlab.bench.simulate_setting``, and
``pmlab.bench.s_quantum`` as well as ``pmlab.landscape.s_quantum``), so
calls made inside the package are seen too.  Each call records one span:
name, start, end, parent span and operation id, plus an optional value
measured from the arguments or result (bytes written, nodes evaluated, a
key for counting distinct work).  Spans stay in memory until
``layer_metrics`` reduces them.
"""
from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager


def _nbytes(args, kwargs, result):
    return len(result.encode())


def _nodes(args, kwargs, result):
    return int(result.values.size)


def _evaluations(args, kwargs, result):
    return int(result.evaluations)


def _feasible(args, kwargs, result):
    return result is not None


def _missing(args, kwargs, result):
    return sum(est is None for row in result.surface for est in row)


def _work_key(args, kwargs, result):
    # (config, setting) for simulate_setting, (record, reference, window)
    # for estimate_joint: frozen dataclasses, equal when the work is.
    return args + tuple(kwargs.values())


def _subcommand(args, kwargs, result):
    return args[0][0]


#: (module, attribute, span name, measure) for every wrapped function.
BINDINGS = (
    ("pmlab.bench", "marginal_probability", "qubit.marginal_probability", None),
    ("pmlab.bench", "conditional_probability", "qubit.conditional_probability", None),
    ("pmlab.bench", "s_quantum", "landscape.s_quantum", None),
    ("pmlab.landscape", "s_quantum", "landscape.s_quantum", None),
    ("pmlab.landscape", "grid_scan", "landscape.grid_scan", _nodes),
    ("pmlab.landscape", "minimize_s", "landscape.minimize_s", _evaluations),
    ("pmlab.landscape", "export_surface", "landscape.export_surface", _nbytes),
    ("pmlab.landscape", "parse_surface", "landscape.parse_surface", None),
    ("pmlab.classical", "random_ensemble", "classical.random_ensemble", None),
    ("pmlab.classical", "s_classical", "classical.s_classical", None),
    ("pmlab.classical", "fit_classical", "classical.fit_classical", _feasible),
    ("pmlab.bench", "run_full_scan", "bench.run_full_scan", _missing),
    ("pmlab.bench", "simulate_setting", "bench.simulate_setting", _work_key),
    ("pmlab.bench", "estimate_joint", "bench.estimate_joint", _work_key),
    ("pmlab.bench", "estimate_S", "bench.estimate_S", None),
    ("pmlab.bench", "full_scan_surface_csv", "bench.csv", _nbytes),
    ("pmlab.bench", "full_scan_profile_csv", "bench.csv", _nbytes),
    ("pmlab.cli", "main", "cli.main", _subcommand),
)

CLI_SUBCOMMANDS = ("fit", "simulate", "optimize", "scan", "classical-verify", "full-scan")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "value", "child_s")

    def __init__(self, name: str, parent: "Span | None", op: int | None) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.value = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``op`` tags spans with an operation id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []

    def _wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self.op)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if measure is not None:
                span.value = measure(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block, then restore it."""
        saved = []
        try:
            for module_name, attr, name, measure in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, measure))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce spans to the per-layer counters and times.

    ``busy_s`` is the summed duration of a function's spans (callees
    included); ``self_s`` subtracts the time covered by child spans.
    ``distinct_*`` counts distinct arguments within each operation, summed
    over operations, so calls / distinct is the work repeated per op.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return len(group(name))

    def busy(name):
        return sum(span.duration for span in group(name))

    def total(name):
        return sum(span.value for span in group(name))

    def distinct(name):
        return sum(
            len({span.value for span in group(name) if span.op == op})
            for op in {span.op for span in group(name)}
        )

    fits = group("classical.fit_classical")
    metrics = {
        "qubit.marginal_probability.calls": calls("qubit.marginal_probability"),
        "qubit.marginal_probability.busy_s": busy("qubit.marginal_probability"),
        "qubit.conditional_probability.calls": calls("qubit.conditional_probability"),
        "qubit.conditional_probability.busy_s": busy("qubit.conditional_probability"),
        "landscape.s_quantum.calls": calls("landscape.s_quantum"),
        "landscape.s_quantum.busy_s": busy("landscape.s_quantum"),
        "landscape.grid_scan.calls": calls("landscape.grid_scan"),
        "landscape.grid_scan.busy_s": busy("landscape.grid_scan"),
        "landscape.grid_scan.nodes": total("landscape.grid_scan"),
        "landscape.minimize_s.busy_s": busy("landscape.minimize_s"),
        "landscape.minimize_s.evaluations": total("landscape.minimize_s"),
        "landscape.export_surface.busy_s": busy("landscape.export_surface"),
        "landscape.export_surface.bytes": total("landscape.export_surface"),
        "landscape.parse_surface.busy_s": busy("landscape.parse_surface"),
        "classical.random_ensemble.calls": calls("classical.random_ensemble"),
        "classical.random_ensemble.busy_s": busy("classical.random_ensemble"),
        "classical.s_classical.busy_s": busy("classical.s_classical"),
        "classical.fit_classical.calls": len(fits),
        "classical.fit_classical.busy_s": busy("classical.fit_classical"),
        "classical.fit_classical.feasible_ratio": (
            sum(span.value for span in fits) / len(fits) if fits else 0.0
        ),
        "bench.run_full_scan.self_s": sum(
            span.duration - span.child_s for span in group("bench.run_full_scan")
        ),
        "bench.simulate_setting.calls": calls("bench.simulate_setting"),
        "bench.simulate_setting.busy_s": busy("bench.simulate_setting"),
        "bench.simulate_setting.distinct_settings": distinct("bench.simulate_setting"),
        "bench.estimate_joint.calls": calls("bench.estimate_joint"),
        "bench.estimate_joint.busy_s": busy("bench.estimate_joint"),
        "bench.estimate_joint.distinct_joints": distinct("bench.estimate_joint"),
        "bench.csv.busy_s": busy("bench.csv"),
        "bench.csv.bytes": total("bench.csv"),
        "bench.estimate_S.calls": calls("bench.estimate_S"),
        "bench.estimate_S.busy_s": busy("bench.estimate_S"),
        "bench.surface.missing_nodes": total("bench.run_full_scan"),
    }
    for sub in CLI_SUBCOMMANDS:
        durations = [span.duration for span in group("cli.main") if span.value == sub]
        metrics[f"cli.{sub}.main_s"] = statistics.median(durations) if durations else 0.0
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
