"""Spans recorded from the benchmark's side of the public API.

Nothing inside ``slotcnn`` is instrumented.  The traced run instead passes a
:class:`TracingBackend` through ``run_inference(..., backend=)`` and swaps
public module functions for wrappers that open a span around each call
(:func:`install`).  Every span adds its duration to its parent's child time,
so a span's self time is its duration minus the spans nested in it.

Spans around layers, engine, packing, model and CLI calls are kept one by one
(name, start, end, parent, request).  Backend operations are only summed per
name: one M5 batch makes about 180k of them.
"""

from __future__ import annotations

import time
from collections import defaultdict

from slotcnn import cli, engine, model, packing
from slotcnn.engine import CostModel
from slotcnn.he_backend import Backend

# Layer class name -> the per-layer metric group it is reported under.
LAYER_KINDS = {
    "Conv2d": "conv",
    "Conv1d": "conv",
    "AvgPool2d": "avgpool",
    "Square": "square",
    "ApproxReLU": "approx_relu",
    "Flatten": "flatten",
    "FC": "fc",
}

class Tracer:
    """Open-span stack plus per-name totals: calls, seconds, self seconds."""

    def __init__(self):
        self._stack = [[None, 0.0, 0.0, None]]  # name, start, child seconds, span id
        self._next_id = 0
        self.request = None
        self.spans = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def end(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[2] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        self.spans.append((span_id, parent[3], self.request, name, start, end))

    def leaf(self, name: str, duration: float) -> None:
        """A span with no children, timed by the caller and only summed."""
        self._stack[-1][2] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration

    def snapshot(self) -> dict:
        """Copy of every total and count, to subtract a phase from a later copy."""
        out = {f"{name}.{field}": value for name, row in self.totals.items() for field, value in zip(("calls", "s", "self_s"), row)}
        out.update(self.counts)
        return out


class TracingBackend(Backend):
    """Backend that times each public operation as a leaf span of the open span."""

    def __init__(self, params, tracer: Tracer):
        super().__init__(params)
        self.tracer = tracer

    def rotate(self, cipher, r):
        t0 = time.perf_counter()
        out = Backend.rotate(self, cipher, r)
        self.tracer.leaf("he_backend.rotate", time.perf_counter() - t0)
        return out

    def mul_plain(self, cipher, plain):
        t0 = time.perf_counter()
        out = Backend.mul_plain(self, cipher, plain)
        self.tracer.leaf("he_backend.mul_plain", time.perf_counter() - t0)
        return out

    def mul_cipher(self, a, b):
        t0 = time.perf_counter()
        out = Backend.mul_cipher(self, a, b)
        self.tracer.leaf("he_backend.mul_cipher", time.perf_counter() - t0)
        return out

    def add(self, a, b):
        t0 = time.perf_counter()
        out = Backend.add(self, a, b)
        self.tracer.leaf("he_backend.add", time.perf_counter() - t0)
        return out

    def encode(self, data):
        t0 = time.perf_counter()
        out = Backend.encode(self, data)
        self.tracer.leaf("he_backend.encode", time.perf_counter() - t0)
        return out


class LedgerBackend(Backend):
    """Untimed backend that notes the rotation amounts and mask density a schedule uses."""

    def __init__(self, params):
        super().__init__(params)
        self.amounts = set()
        self.mul_plain_calls = 0
        self.mul_plain_nonzero = 0

    def rotate(self, cipher, r):
        self.amounts.add(r % self.params.num_slots)
        return super().rotate(cipher, r)

    def mul_plain(self, cipher, plain):
        self.mul_plain_calls += 1
        self.mul_plain_nonzero += int((plain.values != 0).sum())
        return super().mul_plain(cipher, plain)


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def _layer_spanned(tracer: Tracer, fn, kind_of):
    """Span one layer step and count the rotations and priced cost it added."""
    cost_model = CostModel()

    def wrapper(backend, state, arg):
        kind = kind_of(arg)
        before = dict(backend.counter.by_level)
        tracer.begin(f"layers.{kind}")
        try:
            return fn(backend, state, arg)
        finally:
            tracer.end()
            n = backend.params.poly_degree
            for (op, level), count in backend.counter.by_level.items():
                added = count - before.get((op, level), 0)
                if added:
                    if op == "rotation":
                        tracer.counts[f"layers.{kind}.rotations"] += added
                    tracer.counts[f"layers.{kind}.est_cost"] += added * cost_model.price(op, n, level)

    return wrapper


def install(tracer: Tracer):
    """Wrap the public functions of every module; returns a function that undoes it.

    A function is wrapped at each module that calls it through its own
    namespace, so ``validate`` is wrapped where the engine and the CLI bound
    it.  ``engine.run_inference`` also hands a :class:`TracingBackend` to
    callers that pass none, which is how the CLI's inferences get traced.
    """
    run_inference = engine.run_inference

    def traced_run_inference(m, samples, params, *args, backend=None, **kwargs):
        tracer.begin("engine.run_inference")
        try:
            backend = backend or TracingBackend(params, tracer)
            return run_inference(m, samples, params, *args, backend=backend, **kwargs)
        finally:
            tracer.end()

    patches = [
        (engine, "run_inference", traced_run_inference),
        (engine, "apply_layer", _layer_spanned(tracer, engine.apply_layer, lambda layer: LAYER_KINDS[type(layer).__name__])),
        (engine, "drop_level", _layer_spanned(tracer, engine.drop_level, lambda target: "drop_level")),
        (engine, "validate", _spanned(tracer, "engine.validate", engine.validate)),
        (cli, "validate", _spanned(tracer, "cli.validate", cli.validate)),
        (engine, "trace_layout", _spanned(tracer, "model.trace_layout", engine.trace_layout)),
        (packing, "trace_layout", _spanned(tracer, "model.trace_layout", packing.trace_layout)),
        (model, "trace_layout", _spanned(tracer, "model.trace_layout", model.trace_layout)),
        (packing, "batch_pack", _spanned(tracer, "packing.batch_pack", packing.batch_pack)),
        (packing, "footprint", _spanned(tracer, "packing.footprint", packing.footprint)),
        (model, "builtin", _spanned(tracer, "model.builtin", model.builtin)),
        (cli, "builtin", _spanned(tracer, "model.builtin", cli.builtin)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, fn in patches:
        setattr(mod, attr, fn)

    def undo():
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)

    return undo
