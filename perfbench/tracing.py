"""Spans around calls into lambda_mixer's public functions, from outside it.

The package is not instrumented.  ``Tracer.install`` replaces each traced
function by a timing wrapper under every name a lambda_mixer module binds it
to: ``scan`` imports ``coupling_entries``, ``expm2``, ``effective_depth`` and
``chi_abs`` at import time, and ``cli`` imports the sweeps, ``full_report``
and the renderers, so patching only the defining module would miss those
calls.  ``uninstall`` restores every binding.  Wrappers record spans only
while ``active`` is set, so output checks between requests leave none.

A span is ``(id, parent id, name, start, end)``.  The parent is the
innermost open span on the same thread; on a sweep's pool threads, which
open no span of their own first, it is the enclosing sweep span.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from time import perf_counter

# span name -> (defining module, function names); sweeps parent pool-thread spans
TRACED = {
    "cli.main": ("lambda_mixer.cli", ("main",)),
    "scenario.load": ("lambda_mixer.scenario", ("load_scenario",)),
    "model.validate": ("lambda_mixer.model", ("validate",)),
    "svgplot.render": ("lambda_mixer.svgplot", ("render_detuning_scan", "render_depth_scan")),
    "scan.sweep": ("lambda_mixer.scan", ("sweep_detuning", "sweep_absorber_depth")),
    "scan.peak_outputs": ("lambda_mixer.scan", ("peak_outputs",)),
    "propagation.coupling_entries": ("lambda_mixer.propagation", ("coupling_entries",)),
    "propagation.expm2": ("lambda_mixer.propagation", ("expm2",)),
    "propagation.propagate": ("lambda_mixer.propagation", ("propagate",)),
    "susceptibility.chi_abs": ("lambda_mixer.susceptibility", ("chi_abs",)),
    "susceptibility.lineshape": ("lambda_mixer.susceptibility", ("normalized_lineshape",)),
    "susceptibility.effective_depth": ("lambda_mixer.susceptibility", ("effective_depth",)),
    "design.full_report": ("lambda_mixer.design", ("full_report",)),
    "design.solve_omega_a": ("lambda_mixer.design", ("solve_omega_a",)),
}
SWEEP = "scan.sweep"


def _propagate_name(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else "")
    return "propagation.propagate_rk" if str(method).lower() == "adaptive-rk" else "propagation.propagate"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sweep: int | None = None
        self._patches: list[tuple] = []
        self.active = False  # spans are recorded only while set

    def _wrap(self, name: str, fn):
        tracer = self
        is_sweep = name == SWEEP
        namer = _propagate_name if name == "propagation.propagate" else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._sweep
            sid = next(tracer._ids)
            stack.append(sid)
            if is_sweep:
                outer, tracer._sweep = tracer._sweep, sid
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if is_sweep:
                    tracer._sweep = outer
                tracer.spans.append((sid, parent, namer(args, kwargs) if namer else name, t0, t1))

        return traced

    def install(self) -> None:
        if self._patches:
            return
        defining = {name: importlib.import_module(module) for name, (module, _) in TRACED.items()}
        modules = [m for n, m in list(sys.modules.items()) if n == "lambda_mixer" or n.startswith("lambda_mixer.")]
        for name, (_, functions) in TRACED.items():
            for function in functions:
                original = getattr(defining[name], function)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def drain(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class LayerStats:
    """Per-layer aggregates over traced steps; spans are folded in per request."""

    def __init__(self):
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.sweep_self: list[float] = []
        self.bisect_evals: list[int] = []
        self.sweep_points = 0  # grid points: coupling builds under a sweep span
        self.steps = 0  # whole traced steps, counted by the caller

    def add(self, spans: list[tuple]) -> None:
        by_id = {s[0]: s for s in spans}
        for _, _, name, t0, t1 in spans:
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (t1 - t0)

        def ancestor(sid, wanted):
            parent = by_id[sid][1]
            while parent in by_id:
                if by_id[parent][2] == wanted:
                    return parent
                parent = by_id[parent][1]
            return None

        # scan self time: sweep span minus the time its propagation and
        # susceptibility descendants cover (threads overlap, so take the union)
        covered: dict[int, list] = {}
        solves: dict[int, int] = {}
        for sid, _, name, t0, t1 in spans:
            if name == SWEEP:
                covered.setdefault(sid, [])
            elif name.startswith(("propagation.", "susceptibility.")):
                sweep = ancestor(sid, SWEEP)
                if sweep is not None:
                    covered.setdefault(sweep, []).append((t0, t1))
                    self.sweep_points += name == "propagation.coupling_entries"
                if name == "susceptibility.effective_depth":
                    solve = ancestor(sid, "design.solve_omega_a")
                    if solve is not None:
                        solves[solve] = solves.get(solve, 0) + 1
            elif name == "design.solve_omega_a":
                solves.setdefault(sid, 0)
        for sid, intervals in covered.items():
            _, _, _, t0, t1 = by_id[sid]
            self.sweep_self.append((t1 - t0) - _union_length(intervals))
        self.bisect_evals.extend(solves.values())

    def mean_us(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.total[name] / n * 1e6 if n else 0.0

    def per_step(self, name: str) -> float:
        return self.count.get(name, 0) / self.steps if self.steps else 0.0
