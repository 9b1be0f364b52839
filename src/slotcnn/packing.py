"""Slot budgeting and batch packing.

One ciphertext carries ``num_slots`` slots, but a single sample only ever
touches a prefix of them.  The footprint planner traces the model and takes
the widest prefix it needs: the input image and each layer's own
``slot_needs`` (:func:`slotcnn.model.slot_sizes`), that is the head-room
each pooling stage smears values into, the flattened vector and the slots
its row-removal pre-sum reads, and the working window of each fully
connected layer.  Rounding that width up to an alignment boundary
gives the per-sample stride; whatever multiple of it fits into the slot
count is the batch capacity.  Packing then just lays samples out at those
offsets, and every layer construction applies its masks at the same offsets
so all samples ride through one schedule.

The :class:`PackPlan` is the one compiled form of a model under its
parameters: it also keeps the model and the layout trace it was planned
from, which inference and pricing read instead of walking the layers again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, FootprintOverflow, NonFiniteInput, OversizedInput, ShapeMismatch
from .he_backend import PlainVector
from .model import ModelSpec, slot_sizes, trace_layout

__all__ = ["PackPlan", "flatten_input", "footprint", "batch_pack"]


@dataclass(frozen=True)
class PackPlan:
    """Result of footprint planning for ``model`` under one parameter set, with its layout ``trace``."""

    footprint: int
    capacity: int
    offsets: tuple
    per_layer_sizes: tuple
    num_slots: int
    model: ModelSpec = field(repr=False)
    trace: tuple = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "footprint": self.footprint,
            "capacity": self.capacity,
            "offsets": list(self.offsets),
            "per_layer_sizes": [dict(entry) for entry in self.per_layer_sizes],
        }


def flatten_input(sample) -> list:
    """Split one ``channels x height x width`` sample into row-major channel vectors."""
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected a 3-D sample (channels, height, width), got shape {arr.shape}")
    return [arr[c].reshape(-1) for c in range(arr.shape[0])]


def footprint(m: ModelSpec, params, alignment: int = 1, trace=None) -> PackPlan:
    """Compute the per-sample slot footprint and batch capacity.

    The footprint is the maximum over all per-layer slot requirements,
    rounded up to ``alignment``.  Raises :class:`FootprintOverflow` when
    even a single sample does not fit into the ciphertext.  ``trace`` is
    ``m``'s :func:`~slotcnn.model.trace_layout` rows, walked here when not given.
    """
    if alignment < 1:
        raise ValueError(f"alignment must be at least 1, got {alignment}")
    trace = tuple(trace_layout(m) if trace is None else trace)
    sizes = slot_sizes(m, trace)
    raw = max(entry["slots"] for entry in sizes)
    aligned = math.ceil(raw / alignment) * alignment
    n = params.num_slots
    if aligned > n:
        raise FootprintOverflow(f"a single sample needs {aligned} slots, ciphertext has {n}")
    capacity = n // aligned
    offsets = tuple(i * aligned for i in range(capacity))
    return PackPlan(
        footprint=aligned,
        capacity=capacity,
        offsets=offsets,
        per_layer_sizes=tuple(sizes),
        num_slots=n,
        model=m,
        trace=trace,
    )


def batch_pack(samples, plan: PackPlan) -> list:
    """Combine up to ``plan.capacity`` samples into per-channel plain vectors.

    Each sample is a list of per-channel row-major vectors (the output of
    :func:`flatten_input`).  Sample ``i`` is added into the zeroed shared
    vector at ``plan.offsets[i]``.  The returned plaintexts are layout-only;
    encode them through a backend to apply quantization before encryption.

    Every value must be finite; NaN and infinity raise
    :class:`NonFiniteInput`.  A huge finite value that overflows later does
    not reach other samples through the masked products of the convolution,
    ``Flatten`` and ``FC`` schedules, which are formed only on their masks' slots.
    """
    if len(samples) > plan.capacity:
        raise CapacityExceeded(f"{len(samples)} samples exceed the batch capacity {plan.capacity}")
    if not samples:
        return []
    n_channels = len(samples[0])
    combined = [np.zeros(plan.num_slots) for _ in range(n_channels)]
    for i, sample in enumerate(samples):
        if len(sample) != n_channels:
            raise ShapeMismatch(f"sample {i} has {len(sample)} channels, expected {n_channels}")
        for ch, vec in enumerate(sample):
            vec = np.asarray(vec, dtype=np.float64).reshape(-1)
            if vec.size > plan.footprint:
                raise OversizedInput(f"sample vector of length {vec.size} exceeds the footprint {plan.footprint}")
            if not np.isfinite(vec).all():
                raise NonFiniteInput(f"sample {i} channel {ch} holds a non-finite value")
            combined[ch][plan.offsets[i] : plan.offsets[i] + vec.size] += vec
    return [PlainVector(vec) for vec in combined]

