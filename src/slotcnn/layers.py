"""Homomorphic layer constructions over the slot backend.

Every layer follows the same recipe: rotate the input ciphertexts so each
needed operand lands on the slot of the output it feeds, multiply by
plaintext masks that are nonzero only at valid output positions, and
accumulate with additions in a fixed order.  The bookkeeping lives in
:class:`LayoutState`: a value at logical position ``(row, col)`` of a
channel occupies slot ``row * w_img * interval + col * interval`` within
its sample's region, one region per batch offset.

Masks are always tiled across *all* batch offsets of the plan, whether or
not a sample is present there, so a batched run performs exactly the same
slot arithmetic as a solo run and their outputs match bit for bit.

Convolution hands its masked products and sums to
:meth:`Backend.masked_sum`, which computes them only on the output grid,
where its masks are nonzero, and leaves exact zeros elsewhere.  Its values
on the grid and its op ledger are those of the full-width
``mul_plain`` / ``add`` loop.  The other layers still multiply full-width
masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    FootprintOverflow,
    NonDivisibleDims,
    NotFlattened,
    PaddingUnsupported,
    ShapeMismatch,
    TargetAboveCurrent,
)
from .he_backend import Backend
from .model import FC, ApproxReLU, AvgPool2d, Conv1d, Conv2d, Flatten, Square, flatten_dispatch

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


@dataclass(frozen=True)
class LayoutState:
    """Where the logical tensor lives inside the slot vector.

    ``interval`` is the accumulated stride product: consecutive columns of a
    row sit ``interval`` slots apart, consecutive rows ``w_img * interval``
    slots apart, where ``w_img`` is the width of the original input image.
    ``pending_const`` is a deferred scalar every slot value still has to be
    multiplied by; ``gaps_zero`` records whether the slots between valid
    positions are known to hold zeros rather than stale intermediate junk.
    """

    interval: int
    w_img: int
    h_img: int
    w_in: int
    h_in: int
    channels: int
    pending_const: float
    gaps_zero: bool
    batch_offsets: tuple
    footprint: int


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


def _tile(backend: Backend, layout: LayoutState, region: np.ndarray) -> np.ndarray:
    """Replicate a per-sample region at every batch offset of the full vector."""
    full = np.zeros(backend.params.num_slots)
    fp = layout.footprint
    for off in layout.batch_offsets:
        full[off : off + fp] = region
    return full


def _support(layout: LayoutState) -> np.ndarray:
    """Slot indices of the valid positions at every batch offset."""
    positions = valid_positions(layout)
    assert positions.size == 0 or positions.max() < layout.footprint
    return (np.asarray(layout.batch_offsets)[:, None] + positions[None, :]).reshape(-1)


def _sum(backend: Backend, items: list):
    acc = items[0]
    for item in items[1:]:
        acc = backend.add(acc, item)
    return acc


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
    ones = backend.encode(np.ones(backend.params.num_slots))
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
    products and sums run through :meth:`Backend.masked_sum` on that grid
    only; the ledger still counts ``ch_out * ch_in * k**2`` plaintext
    products and as many additions, as a full-width schedule would.
    """
    lay = state.layout
    if isinstance(layer, Conv2d):
        if layer.padding:
            raise PaddingUnsupported("convolution padding is not executable on the slot schedule")
        kh = kw = layer.kernel
        weights = layer.weights
    elif isinstance(layer, Conv1d):
        if lay.h_in != 1:
            raise ShapeMismatch(f"conv1d requires height 1, layout has height {lay.h_in}")
        kh, kw = 1, layer.kernel
        weights = layer.weights.reshape(layer.ch_out, layer.ch_in, 1, layer.kernel)
    else:
        raise ShapeMismatch(f"not a convolution layer: {type(layer).__name__}")
    if layer.ch_in != lay.channels:
        raise ShapeMismatch(f"convolution expects {layer.ch_in} channels, layout has {lay.channels}")
    if lay.h_in < kh or lay.w_in < kw:
        raise ShapeMismatch(f"kernel {kh}x{kw} exceeds input {lay.h_in}x{lay.w_in}")
    stride = layer.stride
    h_out = (lay.h_in - kh) // stride + 1
    w_out = (lay.w_in - kw) // stride + 1
    interval_out = lay.interval * stride

    rotated = []
    for i in range(layer.ch_in):
        for j in range(kh):
            for k in range(kw):
                shift = lay.interval * (k + lay.w_img * j)
                rotated.append(backend.rotate(state.cts[i], shift))

    out_layout = replace(
        lay,
        interval=interval_out,
        w_in=w_out,
        h_in=h_out,
        channels=layer.ch_out,
        pending_const=1.0,
        gaps_zero=True,
    )
    coefs = weights.reshape(layer.ch_out, -1) * lay.pending_const
    support = _support(out_layout)
    out_cts = backend.masked_sum(rotated, coefs, support, layer.bias)
    return CipherState(out_cts, out_layout)


def avgpool(backend: Backend, state: CipherState, layer: AvgPool2d) -> CipherState:
    """Non-overlapping window sums by rotation, division deferred.

    No mask and no multiplication: each window's elements are rotated onto
    its anchor slot and added.  The ``1 / kernel**2`` factor joins the
    pending constant and is folded into a later layer's masks, and the
    gap slots now hold partial sums rather than zeros.
    """
    lay = state.layout
    c = layer.kernel
    if lay.h_in % c or lay.w_in % c:
        raise NonDivisibleDims(f"pool kernel {c} does not divide input {lay.h_in}x{lay.w_in}")
    out_cts = []
    for ct in state.cts:
        terms = []
        for j in range(c):
            for k in range(c):
                terms.append(backend.rotate(ct, lay.interval * (k + lay.w_img * j)))
        out_cts.append(_sum(backend, terms))
    out_layout = replace(
        lay,
        interval=lay.interval * c,
        w_in=lay.w_in // c,
        h_in=lay.h_in // c,
        pending_const=lay.pending_const * (1.0 / (c * c)),
        gaps_zero=False,
    )
    return CipherState(out_cts, out_layout)


def square(backend: Backend, state: CipherState) -> CipherState:
    """Slot-wise squaring; the pending constant squares along with the values."""
    lay = state.layout
    out_cts = [backend.mul_cipher(ct, ct) for ct in state.cts]
    out_layout = replace(lay, pending_const=lay.pending_const * lay.pending_const)
    return CipherState(out_cts, out_layout)


def approx_relu(backend: Backend, state: CipherState, layer: ApproxReLU) -> CipherState:
    """Polynomial activation a2*x^2 + a1*x + a0 in Horner form.

    Costs one ciphertext product and one masked plaintext product (two
    levels).  All three coefficients are applied only at valid positions,
    with the pending constant folded in, so the activation also scrubs any
    junk out of the gap slots: afterwards the gaps are exactly zero and no
    constant is pending.
    """
    lay = state.layout
    pattern = np.zeros(backend.params.num_slots)
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
    out_layout = replace(lay, pending_const=1.0, gaps_zero=True)
    return CipherState(out_cts, out_layout)


def flatten(backend: Backend, state: CipherState) -> CipherState:
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
    masked, row_removal, col_removal = flatten_dispatch(
        lay.gaps_zero, lay.pending_const == 1.0, interval, w_in, h_in
    )
    cts = list(state.cts)

    if masked:
        # Extract column c of every row, scaled by the pending constant, and
        # slide it left so the row becomes contiguous.
        new_cts = []
        for ct in cts:
            parts = []
            for c in range(w_in):
                region = np.zeros(lay.footprint)
                region[np.arange(h_in) * row_span + c * interval] = lay.pending_const
                mask = backend._plain(_tile(backend, lay, region))
                prod = backend.mul_plain(ct, mask)
                shift = c * (interval - 1)
                if shift:
                    prod = backend.rotate(prod, shift)
                parts.append(prod)
            new_cts.append(_sum(backend, parts))
        cts = new_cts
    elif row_removal:
        # Gaps are zero: summing interval-many shifted copies first makes
        # every block of `interval` consecutive columns contiguous, then one
        # masked product per block slides the blocks together.
        blocks = math.ceil(w_in / interval)
        new_cts = []
        for ct in cts:
            acc = ct
            for s in range(1, interval):
                acc = backend.add(acc, backend.rotate(ct, s * (interval - 1)))
            parts = []
            for b in range(blocks):
                region = np.zeros(lay.footprint)
                base = b * interval * interval
                for r in range(h_in):
                    region[r * row_span + base : r * row_span + base + interval] = 1.0
                mask = backend._plain(_tile(backend, lay, region))
                prod = backend.mul_plain(acc, mask)
                shift = b * interval * (interval - 1)
                if shift:
                    prod = backend.rotate(prod, shift)
                parts.append(prod)
            new_cts.append(_sum(backend, parts))
        cts = new_cts

    if col_removal:
        # Rows are now contiguous runs of w_in values, one run per row span;
        # mask each run and slide it next to the previous one.
        new_cts = []
        for ct in cts:
            parts = []
            for r in range(h_in):
                region = np.zeros(lay.footprint)
                region[r * row_span : r * row_span + w_in] = 1.0
                mask = backend._plain(_tile(backend, lay, region))
                prod = backend.mul_plain(ct, mask)
                shift = r * (row_span - w_in)
                if shift:
                    prod = backend.rotate(prod, shift)
                parts.append(prod)
            new_cts.append(_sum(backend, parts))
        cts = new_cts

    flat_len = w_in * h_in
    out = cts[0]
    for ch in range(1, len(cts)):
        out = backend.add(out, backend.rotate(cts[ch], -ch * flat_len))
    out_layout = replace(
        lay,
        interval=1,
        w_in=flat_len * lay.channels,
        h_in=1,
        channels=1,
        pending_const=1.0,
        gaps_zero=True,
    )
    return CipherState([out], out_layout)


def fc_operation_counts(dat_in: int, dat_out: int) -> dict:
    """Operation census of the fully connected schedule for given sizes."""
    reps = math.ceil(dat_in / dat_out)
    return {
        "rotation_indices": dat_out,
        "masked_mults": 2 * dat_out,
        "fold_rotations": reps,
        "nontrivial_rotations": dat_out + reps - 1,
    }


def fc(backend: Backend, state: CipherState, layer: FC) -> CipherState:
    """Fully connected layer as a rotate-mask-fold schedule.

    The weight matrix is laid out along rotated diagonals: rotation ``o`` of
    the input meets two masks (the part of diagonal ``o`` that does not wrap
    past the working window, and the wrapped remainder, pre-rotated so a
    single corrective rotation fixes all wrapped parts at once).  Summing
    ``ceil(dat_in / dat_out)``-many ``dat_out``-strided rotations of the
    masked sum then folds the window down to one dot product per output
    slot.  Slots past ``dat_out`` are left holding fold junk.
    """
    lay = state.layout
    if not (lay.interval == 1 and lay.h_in == 1 and lay.channels == 1):
        raise NotFlattened("fully connected layer requires a flattened input")
    if lay.w_in != layer.dat_in:
        raise ShapeMismatch(f"fc expects {layer.dat_in} inputs, flattened vector has {lay.w_in}")
    d_in, d_out = layer.dat_in, layer.dat_out
    reps = math.ceil(d_in / d_out)
    window = reps * d_out
    if window > lay.footprint:
        raise FootprintOverflow(f"fc working window {window} exceeds the footprint {lay.footprint}")

    # Diagonal layout of the (pre-scaled) weights: stacked[u, t] is the weight
    # of input u for output t; diag[:, t] is stacked[:, t] rotated up by t,
    # and mask row o interleaves the diagonals so that rotation o of the
    # input meets exactly the weights it should.
    stacked = np.zeros((window, d_out))
    stacked[:d_in, :] = (layer.weights * lay.pending_const).T
    diag = np.empty_like(stacked)
    for t in range(d_out):
        diag[:, t] = np.roll(stacked[:, t], -t)
    mask_rows = diag.reshape(reps, d_out, d_out).transpose(1, 0, 2).reshape(d_out, window)

    ct = state.cts[0]
    acc_front = None
    acc_wrap = None
    for o in range(d_out):
        rot = ct if o == 0 else backend.rotate(ct, o)
        front = np.zeros(lay.footprint)
        front[: window - o] = mask_rows[o, : window - o]
        prod = backend.mul_plain(rot, backend._plain(_tile(backend, lay, front)))
        acc_front = prod if acc_front is None else backend.add(acc_front, prod)
        wrap = np.zeros(lay.footprint)
        wrap[window - o : window] = mask_rows[o, window - o :]
        wrap_mask = np.roll(_tile(backend, lay, wrap), -window)
        prod = backend.mul_plain(rot, backend._plain(wrap_mask))
        acc_wrap = prod if acc_wrap is None else backend.add(acc_wrap, prod)
    summed = backend.add(acc_front, backend.rotate(acc_wrap, -window))

    out = summed
    for i in range(1, reps):
        out = backend.add(out, backend.rotate(summed, i * d_out))

    bias_region = np.zeros(lay.footprint)
    bias_region[:d_out] = layer.bias
    out = backend.add(out, backend._plain(_tile(backend, lay, bias_region)))

    out_layout = replace(lay, w_in=d_out, pending_const=1.0, gaps_zero=False)
    return CipherState([out], out_layout)


def apply_layer(backend: Backend, state: CipherState, layer) -> CipherState:
    """Dispatch one model layer to its slot construction."""
    if isinstance(layer, (Conv2d, Conv1d)):
        return conv(backend, state, layer)
    if isinstance(layer, AvgPool2d):
        return avgpool(backend, state, layer)
    if isinstance(layer, Square):
        return square(backend, state)
    if isinstance(layer, ApproxReLU):
        return approx_relu(backend, state, layer)
    if isinstance(layer, Flatten):
        return flatten(backend, state)
    if isinstance(layer, FC):
        return fc(backend, state, layer)
    raise ShapeMismatch(f"unknown layer type {type(layer).__name__}")
