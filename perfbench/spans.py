"""Wall-clock spans recorded from outside the program, exported as Chrome JSON.

:class:`SpanRecorder` keeps spans in memory (name, layer, thread,
``perf_counter`` start/end, parent span).  :func:`shims` temporarily wraps
the program's public entry points so every call - also calls made on the
service's worker thread - records one span on its layer's track.  Nothing
under ``src/`` is modified; the wrappers are removed when the ``with``
block ends.  The trace is written once, at the end, through the program's
own :class:`repro.obs.ChromeTracer` with one track per layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict

LAYERS = (
    "service", "solver", "integrals", "scf", "plans", "operator",
    "kernels", "parallel", "benchmark",
)


class SpanRecorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = len(self.spans)
            rec = {
                "id": sid,
                "parent": stack[-1] if stack else None,
                "layer": layer,
                "name": name,
                "thread": threading.current_thread().name,
                "t0": time.perf_counter(),
                "t1": None,
            }
            self.spans.append(rec)
        stack.append(sid)
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            stack.pop()

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)

        return traced

    # -- queries --------------------------------------------------------------
    def closed(self, name: str | None = None) -> list[dict]:
        return [
            s for s in self.spans
            if s["t1"] is not None and (name is None or s["name"] == name)
        ]

    def total(self, name: str) -> float:
        return sum(s["t1"] - s["t0"] for s in self.closed(name))

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        spans = self.closed()
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["t1"] - s["t0"]
        out = defaultdict(float)
        for s in spans:
            out[s["layer"]] += s["t1"] - s["t0"] - child[s["id"]]
        return dict(out)

    # -- export ---------------------------------------------------------------
    def write_chrome(self, path: str, title: str, metadata: dict) -> None:
        from repro.obs import ChromeTracer

        tracer = ChromeTracer(process_name=title)
        base = min((s["t0"] for s in self.spans), default=0.0)
        tracks = {layer: i for i, layer in enumerate(LAYERS)}
        for s in self.closed():
            tracer.complete(
                tracks[s["layer"]], s["name"], s["layer"],
                s["t0"] - base, s["t1"] - base,
                {"span": s["id"], "parent": s["parent"], "thread": s["thread"]},
            )
        doc = tracer.export()
        for ev in doc["traceEvents"]:
            if ev.get("name") == "thread_name":
                ev["args"]["name"] = LAYERS[ev["tid"]]
        doc["metadata"] = metadata
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _entry_points():
    """(owner, attribute, layer, span name) for every shimmed call."""
    from repro.core import solver as solver_mod
    from repro.core.kernels import DgemmKernel
    from repro.core.operator import HamiltonianOperator
    from repro.core.plans import SigmaPlan
    from repro.parallel import ParallelSigma
    from repro.service import FCIService

    return [
        (FCIService, "submit", "service", "FCIService.submit"),
        (FCIService, "result", "service", "FCIService.result"),
        (solver_mod.FCISolver, "build_problem", "solver", "FCISolver.build_problem"),
        (solver_mod.FCISolver, "run", "solver", "FCISolver.run"),
        # the solver module imported these by name: wrap them where it looks
        (solver_mod, "compute_ao_integrals", "integrals", "compute_ao_integrals"),
        (solver_mod, "rhf", "scf", "rhf"),
        (solver_mod, "transform", "scf", "transform"),
        (SigmaPlan, "for_problem", "plans", "SigmaPlan.for_problem"),
        # __call__ was bound to the original apply at class creation
        (HamiltonianOperator, "apply", "operator", "HamiltonianOperator.apply"),
        (HamiltonianOperator, "__call__", "operator", "HamiltonianOperator.apply"),
        (DgemmKernel, "_same_stack", "kernels", "same_spin_sigma_stack"),
        (DgemmKernel, "_mixed_stack", "kernels", "mixed_spin_sigma_stack"),
        (ParallelSigma, "__call__", "parallel", "ParallelSigma.__call__"),
    ]


@contextlib.contextmanager
def shims(recorder: SpanRecorder):
    """Wrap every entry point in a span for the duration of the block."""
    saved = []
    try:
        for owner, attr, layer, name in _entry_points():
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(recorder.wrap(layer, name, raw.__func__))
            else:
                new = recorder.wrap(layer, name, raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
