"""Homomorphic layer constructions over the slot backend.

Every layer follows the same recipe: rotate the input ciphertexts so each
needed operand lands on the slot of the output it feeds, multiply by
plaintext masks that are nonzero only at valid output positions, and
accumulate with additions in a fixed order.  The bookkeeping lives in
:class:`LayoutState`: a value at logical position ``(row, col)`` of a
channel occupies slot ``row * w_img * interval + col * interval`` within
its sample's region, one region per batch offset.  Each construction takes
its output layout, and its shape errors, from its layer type's ``step`` in
:mod:`slotcnn.model`, the same step :func:`~slotcnn.model.trace_layout` walks.

Masks apply at *all* batch offsets of the plan, whether or not a sample is
present there, so a batched run performs exactly the same slot arithmetic
as a solo run and their outputs match bit for bit.

Convolution and flatten hand their masked products and sums to
:meth:`Backend.masked_sum`, the fully connected layer to
:meth:`Backend.diagonal_sum`.  Both form each product only on its mask's
slots, given once per sample region, and leave exact zeros elsewhere, so no
value of one sample reaches another sample's result through a zero mask
slot, however large it grows.  Their values on the mask slots and their op
ledger are those of the ``mul_plain`` / ``add`` loop over full-width masks.
Rotations stream into them, and those of every other rotate-and-add chain
into :meth:`Backend.sum`, so one rotated ciphertext is alive at a time.
Only ``approx_relu`` still multiplies full-width masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FootprintOverflow, ShapeMismatch, TargetAboveCurrent
from .he_backend import Backend, RegionMask
from .model import FC, ApproxReLU, AvgPool2d, Conv1d, Conv2d, Flatten, LayoutState, Square, fc_operation_counts

__all__ = [
    "LayoutState",
    "CipherState",
    "valid_positions",
    "drop_level",
    "conv",
    "avgpool",
    "square",
    "approx_relu",
    "flatten",
    "fc",
    "apply_layer",
    "fc_operation_counts",
]


@dataclass
class CipherState:
    """One ciphertext per channel plus the shared layout."""

    cts: list
    layout: LayoutState

    @property
    def level(self) -> int:
        return self.cts[0].level


def valid_positions(layout: LayoutState) -> np.ndarray:
    """Slot offsets (within one sample region) of the valid values, row-major."""
    rows = np.arange(layout.h_in) * (layout.w_img * layout.interval)
    cols = np.arange(layout.w_in) * layout.interval
    return (rows[:, None] + cols[None, :]).reshape(-1)


def _support(layout: LayoutState) -> np.ndarray:
    """Slot indices of the valid positions at every batch offset."""
    positions = valid_positions(layout)
    assert positions.size == 0 or positions.max() < layout.footprint
    return (np.asarray(layout.batch_offsets)[:, None] + positions[None, :]).reshape(-1)


def _slide(backend: Backend, ct, masks: list, step: int, layout: LayoutState):
    """Mask ``ct`` with each of ``masks``, rotate product ``i`` left by ``i * step``, and add them up."""
    parts = backend.masked_sum([ct], [[mask] for mask in masks], layout.batch_offsets)
    return backend.sum(backend.rotate(p, i * step) if i * step else p for i, p in enumerate(parts))


def drop_level(backend: Backend, state: CipherState, target: int) -> CipherState:
    """Multiply by all-ones plaintexts until the level equals ``target``.

    Aligning the level with the model's exact multiplication count before
    the first layer keeps every later multiplication as cheap as possible.
    """
    current = state.level
    if target > current:
        raise TargetAboveCurrent(f"cannot raise level from {current} to {target}")
    if target == current:
        return state
    ones = backend.encode(np.ones(backend.num_slots))
    cts = list(state.cts)
    for _ in range(current - target):
        cts = [backend.mul_plain(ct, ones) for ct in cts]
    return CipherState(cts, state.layout)


def conv(backend: Backend, state: CipherState, layer) -> CipherState:
    """Strided convolution without reordering the input slots.

    The input is rotated once per (channel, kernel row, kernel column) so
    that each kernel tap aligns with the anchor slot of the window it
    belongs to; each output channel is then a mask-weighted sum of those
    rotations plus a masked bias.  Output values land on an
    ``interval * stride`` grid and the slots in between are zero.  The
    rotations stream into :meth:`Backend.masked_sum`, which gathers each
    one's grid slots and forms all products and sums in one contraction, in
    the oracle's term order; the ledger still counts ``ch_out * ch_in * k**2``
    plaintext products and as many additions, as a full-width schedule would.
    """
    lay = state.layout
    out_layout, _ = layer.step(lay)
    kh, kw = layer.kernel_hw
    rotations = (
        backend.rotate(state.cts[i], lay.interval * (k + lay.w_img * j))
        for i in range(layer.ch_in)
        for j in range(kh)
        for k in range(kw)
    )
    coefs = layer.weights.reshape(layer.ch_out, -1) * lay.pending_const
    out_cts = backend.masked_sum(rotations, coefs, _support(out_layout), layer.bias)
    return CipherState(out_cts, out_layout)


def avgpool(backend: Backend, state: CipherState, layer: AvgPool2d) -> CipherState:
    """Non-overlapping window sums by rotation, division deferred.

    No mask and no multiplication: the rotations that bring each window's
    elements onto its anchor slot stream into one :meth:`Backend.sum` per
    channel.  The ``1 / kernel**2`` factor joins the pending constant and is
    folded into a later layer's masks, and the gaps now hold partial sums.
    """
    lay = state.layout
    out_layout, _ = layer.step(lay)
    c = layer.kernel
    shifts = [lay.interval * (k + lay.w_img * j) for j in range(c) for k in range(c)]
    out_cts = [backend.sum(backend.rotate(ct, s) for s in shifts) for ct in state.cts]
    return CipherState(out_cts, out_layout)


def square(backend: Backend, state: CipherState, layer: Square = None) -> CipherState:
    """Slot-wise squaring; the pending constant squares along with the values."""
    out_layout, _ = Square.step(state.layout)
    return CipherState([backend.mul_cipher(ct, ct) for ct in state.cts], out_layout)


def approx_relu(backend: Backend, state: CipherState, layer: ApproxReLU) -> CipherState:
    """Polynomial activation a2*x^2 + a1*x + a0 in Horner form.

    Costs one ciphertext product and one masked plaintext product (two
    levels).  All three coefficients are applied only at valid positions,
    with the pending constant folded in, so the activation also scrubs any
    junk out of the gap slots: afterwards the gaps are exactly zero and no
    constant is pending.
    """
    lay = state.layout
    out_layout, _ = layer.step(lay)
    pattern = np.zeros(backend.num_slots)
    pattern[_support(lay)] = 1.0
    quad = backend._plain(pattern * (layer.a2 * lay.pending_const * lay.pending_const))
    lin = backend._plain(pattern * (layer.a1 * lay.pending_const))
    const = backend._plain(pattern * layer.a0)
    out_cts = []
    for ct in state.cts:
        t = backend.mul_plain(ct, quad)
        t = backend.add(t, lin)
        t = backend.mul_cipher(t, ct)
        t = backend.add(t, const)
        out_cts.append(t)
    return CipherState(out_cts, out_layout)


def flatten(backend: Backend, state: CipherState, layer: Flatten = None) -> CipherState:
    """Compact the strided layout into one contiguous channel-major vector.

    Three optional steps, chosen by the same dispatch the static depth
    accounting uses: masked extraction when gaps hold junk or a constant is
    pending (one level), otherwise in-row gap removal when the interval is
    larger than one (one level); then row concatenation when there are
    multiple rows (one level).  Finally all channels are rotated onto one
    ciphertext, which costs only rotations and additions.
    """
    lay = state.layout
    interval, w_in, h_in = lay.interval, lay.w_in, lay.h_in
    row_span = lay.w_img * interval
    masked, row_removal, col_removal = Flatten.dispatch(lay)
    cts = list(state.cts)

    if masked:
        # Extract column c of every row, scaled by the pending constant, and
        # slide it left so the row becomes contiguous.
        masks = [RegionMask(c * interval, (h_in, 1), lay.pending_const, (row_span, 1)) for c in range(w_in)]
        cts = [_slide(backend, ct, masks, interval - 1, lay) for ct in cts]
    elif row_removal:
        # Gaps are zero: summing interval-many shifted copies first makes
        # every block of `interval` consecutive columns contiguous, then one
        # masked product per block slides the blocks together.
        blocks = math.ceil(w_in / interval)
        runs = [(b * interval * interval, min(interval, w_in - b * interval)) for b in range(blocks)]
        masks = [RegionMask(start, (h_in, width), 1.0, (row_span, 1)) for start, width in runs]
        summed = (backend.sum(backend.rotate(ct, s * (interval - 1)) if s else ct for s in range(interval)) for ct in cts)
        cts = [_slide(backend, ct, masks, interval * (interval - 1), lay) for ct in summed]

    if col_removal:
        # Rows are now contiguous runs of w_in values, one run per row span;
        # mask each run and slide it next to the previous one.
        masks = [RegionMask(r * row_span, (1, w_in)) for r in range(h_in)]
        cts = [_slide(backend, ct, masks, row_span - w_in, lay) for ct in cts]

    flat_len = w_in * h_in
    out = backend.sum(backend.rotate(ct, -ch * flat_len) if ch else ct for ch, ct in enumerate(cts))
    return CipherState([out], Flatten.step(lay)[0])


def fc(backend: Backend, state: CipherState, layer: FC) -> CipherState:
    """Fully connected layer as a rotate-mask-fold schedule.

    The weight matrix is laid out along rotated diagonals: rotation ``o`` of
    the input meets two masks (the part of diagonal ``o`` that does not wrap
    past the working window, and the wrapped remainder, pre-rotated so a
    single corrective rotation fixes all wrapped parts at once).
    :meth:`Backend.diagonal_sum` forms both masked sums at every batch offset
    in a few einsum calls, reading each rotation only on the samples' inputs.
    Summing ``ceil(dat_in / dat_out)``-many ``dat_out``-strided rotations of
    the masked sum then folds the window down to one dot product per output
    slot.  Slots past ``dat_out`` are left holding fold junk.
    """
    lay = state.layout
    out_layout, _ = layer.step(lay)
    d_in, d_out = layer.dat_in, layer.dat_out
    reps = math.ceil(d_in / d_out)
    window = reps * d_out
    if window > lay.footprint:
        raise FootprintOverflow(f"fc working window {window} exceeds the footprint {lay.footprint}")

    # Rotation o meets diagonal o of the scaled weights, diag[o, j] = W[(j - o) mod d_out, j], at slot j - o:
    # in the front part, or in the wrap part before slot 0 that one rotation by `window` moves behind the front.
    # On W stacked on itself, (o, j) is row d_out - o + (j mod d_out), column j: one strided view for all o.
    stacked = np.zeros((2 * d_out, window))
    stacked[:d_out, :d_in] = stacked[d_out:, :d_in] = layer.weights * lay.pending_const
    strides = (-8 * window, 8 * d_out, 8 * window + 8)
    diag = np.ndarray((d_out, reps, d_out), np.float64, stacked, 8 * d_out * window, strides).reshape(d_out, window)
    ct = state.cts[0]
    rotations = (backend.rotate(ct, o) if o else ct for o in range(d_out))
    acc_front, acc_wrap = backend.diagonal_sum(rotations, diag[:, :d_in], lay.batch_offsets)
    summed = backend.add(acc_front, backend.rotate(acc_wrap, -window))
    out = backend.sum(backend.rotate(summed, i * d_out) if i else summed for i in range(reps))
    bias = np.zeros(backend.num_slots)
    bias[np.add.outer(lay.batch_offsets, np.arange(d_out))] = layer.bias
    out = backend.add(out, backend._plain(bias))
    return CipherState([out], out_layout)


def apply_layer(backend: Backend, state: CipherState, layer) -> CipherState:
    """Dispatch one model layer to its slot construction (``square`` and ``flatten`` ignore the layer)."""
    schedule = _SCHEDULES.get(type(layer))
    if schedule is None:
        raise ShapeMismatch(f"unknown layer type {type(layer).__name__}")
    return schedule(backend, state, layer)


_SCHEDULES = {Conv2d: conv, Conv1d: conv, AvgPool2d: avgpool, Square: square, ApproxReLU: approx_relu, Flatten: flatten, FC: fc}
