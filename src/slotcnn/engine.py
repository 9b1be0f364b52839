"""Inference driver, operation metrics, and the cost model.

:func:`infer` runs a model along the layout trace of the plan made for it,
which it re-checks against the parameters, since a plan can outlive them
(the CLI's scale sweep runs fixed-point parameters on the float plan).  It
encrypts packed inputs, aligns the level budget, applies every layer's slot
construction, and decrypts the batch, collecting one metrics row per layer:
the ``(kind, level)`` histogram the backend's counter recorded for it, and
its price.  The op ledger does not depend on slot values, so
:func:`ledger_metrics` builds the same rows without a run, from the
closed-form ledger of each layer class along a plan's trace.
Costs are priced from per-level operation histograms, so
:func:`estimate_cost` can re-price a finished run under a different level
budget without re-running it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import packing
from .errors import SlotCnnError
from .he_backend import Backend, KindTotals, diff_snapshots
from .layers import CipherState, apply_layer, drop_level, valid_positions
from .model import ModelSpec, reference_infer, trace_layout, validate

__all__ = [
    "CostModel",
    "LayerMetrics",
    "LevelAlignment",
    "OpMetrics",
    "infer",
    "ledger_metrics",
    "run_inference",
    "estimate_cost",
    "verify_against_oracle",
]


class CostModel:
    """Abstract per-operation prices as a function of ring size and level.

    Rotations dominate (quasi-linear in the ring size and quadratic in the
    level), ciphertext products cost ``KAPPA`` plaintext products, and
    additions are level-independent.
    """

    KAPPA = 3.0

    def price(self, kind: str, poly_degree: int, level: int) -> float:
        n = float(poly_degree)
        if kind == "rotation":
            return n * math.log2(n) * level * level
        if kind == "pt_mult":
            return n * level
        if kind == "ct_mult":
            return self.KAPPA * n * level
        if kind == "add":
            return n
        raise ValueError(f"unknown operation kind {kind!r}")


@dataclass
class LayerMetrics(KindTotals):
    """The ops one layer added to the schedule, as a ``(kind, level) -> count`` histogram.

    ``hist`` is the row's only stored ledger; its per-kind totals
    (``rotations``, ``pt_mults``, ``ct_mults``, ``adds``) are read from it.
    """

    name: str
    level_after: int
    est_cost: float
    hist: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {
            "layer": self.name,
            "rotations": self.rotations,
            "pt_mults": self.pt_mults,
            "ct_mults": self.ct_mults,
            "adds": self.adds,
            "level_after": self.level_after,
            "est_cost": self.est_cost,
        }


@dataclass
class LevelAlignment(LayerMetrics):
    """The row of the products that lower fresh ciphertexts to the level the model needs.

    :func:`estimate_cost` re-prices it for the budget it is asked about.
    """


@dataclass
class OpMetrics:
    """Per-layer metrics plus the run-wide facts cost re-pricing needs."""

    per_layer: list
    poly_degree: int
    depth: int
    total_mults: int
    input_channels: int

    def totals(self) -> dict:
        return {
            "rotations": sum(r.rotations for r in self.per_layer),
            "pt_mults": sum(r.pt_mults for r in self.per_layer),
            "ct_mults": sum(r.ct_mults for r in self.per_layer),
            "adds": sum(r.adds for r in self.per_layer),
            "est_cost": sum(r.est_cost for r in self.per_layer),
        }

    def to_dict(self) -> dict:
        return {"per_layer": [r.to_dict() for r in self.per_layer], "totals": self.totals()}


_PRICES = CostModel()


def _price(hist, poly_degree) -> float:
    """The cost of the ops in ``hist``, summed in its key order."""
    return sum(count * _PRICES.price(kind, poly_degree, lvl) for (kind, lvl), count in hist.items())


def _metrics_row(cls, name, hist, level_after, poly_degree) -> LayerMetrics:
    """A row of ``cls`` for the ops in ``hist``, priced in its key order."""
    return cls(name=name, level_after=level_after, est_cost=_price(hist, poly_degree), hist=hist)


def _live_row(cls, name, before, backend, level_after, poly_degree) -> LayerMetrics:
    """The row of the ops ``backend`` recorded since the counter snapshot ``before``."""
    return _metrics_row(cls, name, diff_snapshots(before, backend.counter.snapshot()), level_after, poly_degree)


def infer(m: ModelSpec, packed_inputs, params, plan, n_samples=None, backend=None):
    """Run one encrypted inference over a packed batch.

    ``packed_inputs`` is the per-channel plain vector list produced by
    :func:`slotcnn.packing.batch_pack`, and a plan made for another model
    than ``m`` is refused.  Returns ``(outputs, metrics)`` where ``outputs``
    has one flat vector per sample slot (``n_samples`` of them, or one per
    batch offset when not given).
    """
    if plan.model is not m:
        raise SlotCnnError(f"the packing plan was made for another model than {m.name!r}")
    report = validate(m, params, trace=plan.trace)
    if not report.ok:
        lines = "; ".join(v["message"] for v in report.violations)
        raise SlotCnnError(f"model failed validation: {lines}")
    backend = backend or Backend(params)
    n = params.poly_degree

    ct = backend.encrypt([backend.encode(pv.values) for pv in packed_inputs])
    state = CipherState(ct, m.input_layout(plan.offsets, plan.footprint))

    total_mults = report.total_mults
    per_layer = []
    if m.layers:
        before = backend.counter.snapshot()
        state = drop_level(backend, state, total_mults)
        per_layer.append(_live_row(LevelAlignment, "Drop Level", before, backend, state.level, n))
    for row in plan.trace:
        before = backend.counter.snapshot()
        state = apply_layer(backend, state, row.layer)
        per_layer.append(_live_row(LayerMetrics, row.name, before, backend, state.level, n))

    decrypted = backend.decrypt(state.ct)
    final = state.layout
    positions = valid_positions(final)
    count = plan.capacity if n_samples is None else n_samples
    outputs = []
    for off in plan.offsets[:count]:
        vec = decrypted[:, off + positions].reshape(-1)
        if final.pending_const != 1.0:
            vec = vec * final.pending_const
        outputs.append(vec)

    metrics = OpMetrics(
        per_layer=per_layer,
        poly_degree=n,
        depth=params.depth,
        total_mults=total_mults,
        input_channels=m.channels,
    )
    return outputs, metrics


def ledger_metrics(m: ModelSpec, params, trace=None) -> OpMetrics:
    """The metrics :func:`infer` reports for ``m``, built from closed-form ledgers instead of a run.

    The level-alignment row holds one product per input channel at each
    level from the budget down to the model's need, and each layer's row the
    records of its class's ``ledger`` at the level the trace reaches it.  A
    row's ``hist`` lists its keys in the order a live counter first records
    them over the whole run, so every cost is summed in the same order and
    equals the live one bit for bit.  The model must chain structurally.
    ``trace`` is ``m``'s :func:`~slotcnn.model.trace_layout` rows, walked
    here when not given.
    """
    n = params.poly_degree
    rows = trace_layout(m) if trace is None else trace
    total_mults = sum(r.mults for r in rows)
    order = {}  # every (kind, level) key so far, in the order a live counter first records it

    def row(cls, name, records, level_after):
        counts = {}
        for kind, level, count in records:
            if count:
                order.setdefault((kind, level))
                counts[kind, level] = counts.get((kind, level), 0) + count
        return _metrics_row(cls, name, {key: counts[key] for key in order if key in counts}, level_after, n)

    per_layer = []
    if rows:
        aligned = [("pt_mult", level, m.channels) for level in range(params.depth, total_mults, -1)]
        per_layer.append(row(LevelAlignment, "Drop Level", aligned, total_mults))
    level = total_mults
    for trace in rows:
        per_layer.append(row(LayerMetrics, trace.name, trace.layer.ledger(trace.before, level), level - trace.mults))
        level -= trace.mults
    return OpMetrics(per_layer=per_layer, poly_degree=n, depth=params.depth, total_mults=total_mults, input_channels=m.channels)


def run_inference(m: ModelSpec, samples, params, plan=None, backend=None):
    """Plan, pack, and infer a batch of raw samples.

    ``plan`` is ``m``'s footprint, planned here when not given.
    Returns ``(outputs, metrics, plan)``.
    """
    if len(samples) == 0:
        raise ValueError("run_inference needs at least one sample")
    if plan is None:
        plan = packing.footprint(m, params)
    flat = [packing.flatten_input(s) for s in samples]
    plains = packing.batch_pack(flat, plan)
    outputs, metrics = infer(m, plains, params, plan, n_samples=len(samples), backend=backend)
    return outputs, metrics, plan


def estimate_cost(metrics: OpMetrics, params, depth_override=None) -> float:
    """Re-price a finished run, optionally under a different level budget.

    Only the level-alignment row depends on the budget: a deeper budget
    means more alignment products, each at a higher level.  Every other
    layer's per-level histogram is priced as recorded.
    """
    n = params.poly_degree
    depth = metrics.depth if depth_override is None else depth_override
    if depth < metrics.total_mults:
        raise ValueError(f"budget {depth} cannot run a model needing {metrics.total_mults} levels")
    total = 0.0
    for row in metrics.per_layer:
        if isinstance(row, LevelAlignment):
            for lvl in range(metrics.total_mults + 1, depth + 1):
                total += metrics.input_channels * _PRICES.price("pt_mult", n, lvl)
        else:
            total += _price(row.hist, n)
    return total


def verify_against_oracle(m: ModelSpec, params, n_trials: int = 20, seed: int = 0, tol: float = 1e-9, plan=None) -> dict:
    """Compare batched encrypted inference against the plaintext oracle.

    Draws ``n_trials`` uniform random samples, runs them through the slot
    schedule in batches the size of ``plan``, ``m``'s footprint, and reports
    the worst and mean absolute output error plus the argmax agreement rate.
    Raises ``ValueError`` when ``n_trials`` is below one, since a check of
    zero samples proves nothing.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    plan = plan or packing.footprint(m, params)
    errors = []
    agree = 0
    while len(errors) < n_trials:
        k = min(n_trials - len(errors), plan.capacity)
        samples = rng.uniform(0.0, 1.0, size=(k, m.channels, m.height, m.width))
        outputs, _, _ = run_inference(m, samples, params, plan=plan)
        for i in range(k):
            ref = reference_infer(m, samples[i])
            errors.append(float(np.max(np.abs(outputs[i] - ref))) if ref.size else 0.0)
            if np.argmax(outputs[i]) == np.argmax(ref):
                agree += 1
    max_err = float(np.max(errors))  # unlike max(), NaN propagates, so a NaN error cannot pass
    return {
        "trials": n_trials,
        "max_abs_err": max_err,
        "mean_abs_err": sum(errors) / n_trials,
        "argmax_agreement": agree / n_trials,
        "tol": tol,
        "ok": max_err <= tol,
    }
