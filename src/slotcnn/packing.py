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
from .he_backend import PlainVector, lattice_view, offset_lattice
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

    def __post_init__(self) -> None:
        """Refuse offsets that are not one :func:`~slotcnn.he_backend.offset_lattice` of the footprint and slot count."""
        offset_lattice(self.offsets, self.footprint, self.num_slots)

    @property
    def stride(self) -> int:
        """The spacing of the offsets; a lone offset's is the footprint."""
        return offset_lattice(self.offsets, self.footprint, self.num_slots)[1]

    def check_capacity(self, count: int) -> None:
        """Refuse a request of ``count`` samples that does not fit into one batch."""
        if count > self.capacity:
            raise CapacityExceeded(f"{count} samples exceed the batch capacity {self.capacity}")

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
    :func:`flatten_input`), or ``samples`` is one array of them, sample by
    channel by slot.  Sample ``i`` is added into the zeroed shared vector at
    ``plan.offsets[i]``, through one view of the offsets' lattice, so a -0.0
    input becomes +0.0.  The returned plaintexts are layout-only; encode them
    through a backend to apply quantization before encryption.

    Refusals come in this order: :class:`CapacityExceeded` before any sample
    is read, then :class:`ShapeMismatch` for the first sample whose channel
    count differs from the first one's, :class:`OversizedInput` when a vector
    is longer than the footprint, and :class:`NonFiniteInput` for the first
    sample and channel holding a NaN or infinity.  A huge finite value
    that overflows later does not reach other samples through the masked
    products of the convolution, ``Flatten`` and ``FC`` schedules, which are
    formed only on their masks' slots.
    """
    plan.check_capacity(len(samples))
    if not len(samples):
        return []
    try:
        batch = np.asarray(samples, dtype=np.float64)
    except ValueError:  # channels or vectors of unequal length
        batch = None
    batch = _stacked(samples) if batch is None or batch.ndim < 2 else batch.reshape(*batch.shape[:2], -1)
    size = batch.shape[2]
    if size > plan.footprint:
        raise OversizedInput(f"sample vector of length {size} exceeds the footprint {plan.footprint}")
    finite = np.isfinite(batch).all(axis=2)
    if not finite.all():
        i, ch = np.argwhere(~finite)[0]
        raise NonFiniteInput(f"sample {i} channel {ch} holds a non-finite value")
    combined = np.zeros((batch.shape[1], plan.num_slots))
    samples = lattice_view(combined, plan.offsets[0], ((len(batch), plan.stride), (size, 1)))  # channel, sample, slot
    samples += batch.transpose(1, 0, 2)
    return [PlainVector(vec) for vec in combined]


def _stacked(samples) -> np.ndarray:
    """Lists of channel vectors as one zero-padded ``(samples, channels, longest vector)`` array; a sample with another channel count than the first is refused."""
    n_channels = len(samples[0])
    vectors = []
    for i, sample in enumerate(samples):
        if len(sample) != n_channels:
            raise ShapeMismatch(f"sample {i} has {len(sample)} channels, expected {n_channels}")
        vectors.append([np.asarray(vec, dtype=np.float64).reshape(-1) for vec in sample])
    batch = np.zeros((len(samples), n_channels, max((vec.size for sample in vectors for vec in sample), default=0)))
    for row, sample in zip(batch, vectors):
        for dest, vec in zip(row, sample):
            dest[: vec.size] = vec
    return batch
