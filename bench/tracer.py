"""Per-layer tracing of effcone from outside the library.

The tracer wraps the layer-boundary functions listed in :data:`TRACED` and
rebinds each wrapper in every namespace that holds the original, because the
modules bind these names with ``from .x import y`` (``h0`` lives in
``surface``, ``threshold``, ``verify``, ``cli`` and the package).  A stack of
open spans gives each function its self time: its span's duration minus the
time of the traced spans it opened.  Work counters are taken from arguments
and results after the span closes, and that bookkeeping is charged to no
layer.  Leaving the ``with`` block puts every original back; entering it
again re-installs the same wrappers, which keep counting.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from dataclasses import dataclass

from harness import run_call

#: The traced functions, "<module>.<function>"; the module is the layer.
TRACED = (
    "lattice.count_points_rowscan",
    "lattice.triangle",
    "surface.polytope",
    "surface.h0",
    "ehrhart.coefficients",
    "fracsum.frac_sum",
    "fracsum.reduce_chain",
    "fracsum.calibrated_delta",
    "threshold.gamma_search",
    "threshold.classify_surface",
    "verify.sweep_one",
    "verify.margin_general",
    "verify.margin_at_multiple",
    "verify.calibrate_delta",
    "cli.main",
    "families.solve_family",
)


def _rows(args, kwargs, result) -> dict:
    """Integer rows spanned by the counted triangle."""
    ys = [vertex.y for vertex in args[0].vertices]
    rows = math.floor(max(ys)) - math.ceil(min(ys)) + 1
    return {"lattice.count_points_rowscan.rows": max(0, rows)}


def _terms(args, kwargs, result) -> dict:
    u = args[2] if len(args) > 2 else kwargs["u"]
    return {"fracsum.frac_sum.terms": u + 1}


def _cells(args, kwargs, result) -> dict:
    return {"verify.cells": len(result["rows"])}


def _instances(args, kwargs, result) -> dict:
    return {"verify.calibrate_delta.instances": result["instances"]}


#: Work counters read off a traced call: name -> f(args, kwargs, result) -> increments.
WORK = {
    "lattice.count_points_rowscan": _rows,
    "fracsum.frac_sum": _terms,
    "verify.sweep_one": _cells,
    "verify.calibrate_delta": _instances,
}


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Wraps :data:`TRACED` in every namespace of a loaded program while active."""

    def __init__(self, program) -> None:
        self.program = program
        self.layers = {name: Layer() for name in TRACED}
        self.counters: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []  # (namespace, name, original)
        self._open: list[float] = []  # child time of each open span, innermost last
        self._wrappers = {}  # name -> wrapper, kept so counts add up over installs
        self._active = False

    def __enter__(self) -> "Tracer":
        if self._active:
            raise RuntimeError("the tracer is already installed")
        self._active = True
        self.patched = []
        for name in TRACED:
            module_name, function_name = name.split(".")
            original = getattr(self.program.modules[module_name], function_name)
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, original)
            wrapper = self._wrappers[name]
            for namespace in self.program.namespaces:
                for attribute, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attribute, wrapper)
                        self.patched.append((namespace, attribute, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for namespace, attribute, original in reversed(self.patched):
            setattr(namespace, attribute, original)
        self._active = False

    def _wrap(self, name: str, original):
        layer = self.layers[name]
        work = WORK.get(name)
        open_spans = self._open
        counters = self.counters

        @functools.wraps(original)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                layer.calls += 1
                layer.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if work is not None:
                mark = time.perf_counter()
                counters.update(work(args, kwargs, result))
                if open_spans:
                    open_spans[-1] += time.perf_counter() - mark
            return result

        traced.bench_traced = True
        return traced

    def leftovers(self) -> list[str]:
        """Names not restored to their original, or still bound to a wrapper."""
        out = [
            f"{namespace.__name__}.{attribute}"
            for namespace, attribute, original in self.patched
            if getattr(namespace, attribute) is not original
        ]
        for namespace in self.program.namespaces:
            for attribute, value in vars(namespace).items():
                if getattr(value, "bench_traced", False):
                    out.append(f"{namespace.__name__}.{attribute}")
        return out

    def metrics(self) -> dict:
        """calls and self_s of every traced function, plus the work counters."""
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.self_s"] = layer.self_s
        out.update(self.counters)
        return out


def trace_pass(program, invocations, generate=None):
    """Run each invocation untraced and then traced, back to back.

    Pairing the two runs of a call keeps the host's speed swings out of the
    tracer's overhead.  ``generate()``, if given, is run under the tracer and
    must return the same invocations (so input generation is traced).
    Returns the per-layer metrics, the traced and the untraced call records,
    and the names the tracer left patched.
    """
    tracer = Tracer(program)
    if generate is not None:
        with tracer:
            if generate() != invocations:
                raise RuntimeError("input generation differs under the tracer")
    traced, untraced = [], []
    for invocation in invocations:
        untraced.append(run_call(program, invocation))
        with tracer:
            traced.append(run_call(program, invocation))
    metrics = tracer.metrics()
    hits = sum(record.h0_hits for record in traced)
    misses = sum(record.h0_misses for record in traced)
    metrics.update({
        "surface.h0.hits": hits,
        "surface.h0.misses": misses,
        "surface.h0.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cli.output_bytes": sum(record.nbytes for record in traced),
        "trace.overhead_s": sum(t.seconds - u.seconds for t, u in zip(traced, untraced)),
    })
    return metrics, traced, untraced, tracer.leftovers()


def self_check(metrics: dict, traced, untraced) -> list[str]:
    """Invariants a correct trace of one pass satisfies; returns what failed.

    ``traced`` and ``untraced`` are the call records of the same invocations
    run with and without the tracer.
    """
    problems = []
    calls = metrics["surface.h0.calls"]
    hits, misses = metrics["surface.h0.hits"], metrics["surface.h0.misses"]
    if calls != hits + misses:
        problems.append(f"h0 calls {calls} != hits {hits} + misses {misses}")
    counted = metrics["lattice.count_points_rowscan.calls"]
    if counted != misses:
        problems.append(f"count_points_rowscan calls {counted} != h0 misses {misses}")
    rows = sum(record.counts.get("rows", 0) for record in traced)
    margins = metrics["verify.margin_general.calls"] + metrics["verify.margin_at_multiple.calls"]
    cells = metrics.get("verify.cells", 0)
    if not cells == rows == margins:
        problems.append(f"verify cells {cells}, output rows {rows} "
                        f"and margin calls {margins} differ")
    if [r.argv for r in traced] != [r.argv for r in untraced]:
        problems.append("traced and untraced passes ran different invocations")
    for t, u in zip(traced, untraced):
        if t.digest != u.digest:
            problems.append(f"{' '.join(t.argv)}: traced output differs from untraced")
    return problems
