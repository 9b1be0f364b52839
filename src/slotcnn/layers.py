"""The layer types and their homomorphic slot schedules over the slot backend.

A model is a plain sequence of layers over a ``channels x height x width``
input.  Each layer class is the one definition of its type: its JSON tag and
report name, its weight shapes, its validation rules, its plaintext forward
pass, its layout step, which maps the :class:`LayoutState` the layer reads
to the one it leaves and counts the multiplicative levels it consumes, its
slot schedule, its op ledger, the rotations, products and additions that
schedule records, in closed form from the layout and the level, and the
slots one sample's schedule reaches past its offset.  Each ``schedule``
takes its output layout and its shape errors from the same ``step`` that
:func:`~slotcnn.model.trace_layout` walks, so the static depth budget can
never drift from what actually executes, and :func:`apply_layer` runs it.

Every schedule follows the same recipe: rotate the input ciphertexts so each
needed operand lands on the slot of the output it feeds, multiply by
plaintext masks that are nonzero only at valid output positions, and
accumulate with additions in a fixed order.  A value at logical position
``(row, col)`` of a channel occupies slot
``row * w_img * interval + col * interval`` within its sample's region, one
region per batch offset.

Masks apply at *all* batch offsets of the plan, whether or not a sample is
present there, so a batched run performs exactly the same slot arithmetic
as a solo run and their outputs match bit for bit.

Every schedule works on the whole channel stack of its :class:`CipherState`:
each backend operation runs once and records one op per channel, and only
flatten's final merge, which rotates each channel by its own amount, takes
the channels one at a time.  Convolution hands its masked products and sums
to :meth:`Backend.masked_sum`.  The fully connected layer hands its input
ciphertext and its plaintext diagonals to :meth:`Backend.diagonal_sum`,
which makes the rotations; it forms those diagonals on its first run and
keeps them, one ``dat_out x dat_in`` copy, which cannot go stale because a
layer's weight tensors are read-only.  Flatten and ``ApproxReLU`` multiply by masks
with :meth:`Backend.mul_plain`, and every plaintext a layer uses is made by
one helper, ``_plain``, through :meth:`Backend.encode`.  All three follow the
backend's one masking rule: each product is formed only on its mask's
nonzero slots, and every other slot is an exact +0.0, so no value of one
sample reaches another sample's result through a zero mask slot, however
large it grows.  The two sums' values and op ledger are those of the
``mul_plain`` / ``add`` loop over full-width masks.  A product of several
rows over few slots leaves a compact stack, which stores only its live
slots; the pooling, squaring, flatten and convolution that follow work on
those slots alone, and its rotations copy nothing.  Rotations stream into
:meth:`Backend.masked_sum` and :meth:`Backend.sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FootprintOverflow, NonDivisibleDims, NotFlattened, PaddingUnsupported, ShapeMismatch, TargetAboveCurrent
from .he_backend import Backend, CipherVector, PlainVector

__all__ = [
    "Layer",
    "Conv2d",
    "Conv1d",
    "AvgPool2d",
    "Square",
    "ApproxReLU",
    "Flatten",
    "FC",
    "LAYER_TYPES",
    "LayoutState",
    "CipherState",
    "valid_positions",
    "drop_level",
    "apply_layer",
    "RELU_COEFFS",
]

# Default cubic coefficients for the polynomial ReLU surrogate
# p(x) = a2 * x^2 + a1 * x + a0, fitted on [-1, 1].
RELU_COEFFS = (0.375373, 0.5, 0.117071)


class LayoutState(NamedTuple):
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
    """The channels as one ciphertext stack, a row per channel, plus the shared layout.

    The stack may be compact, storing only its live slots (see :class:`~slotcnn.he_backend.CipherVector`).
    """

    ct: CipherVector
    layout: LayoutState

    @property
    def level(self) -> int:
        return self.ct.level


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


def _plain(backend: Backend, slots, values) -> PlainVector:
    """The plaintext holding ``values`` on ``slots`` and +0.0 on every other slot, encoded by ``backend``."""
    data = np.zeros(backend.num_slots)
    data[slots] = values
    return backend.encode(data)


def _runs(backend: Backend, lay: LayoutState, start: int, shape: tuple, value=1.0) -> PlainVector:
    """The plaintext ``value`` on ``shape[0]`` runs of ``shape[1]`` slots from ``start``, one image row apart, in each sample region."""
    rows = np.arange(shape[0])[:, None] * (lay.w_img * lay.interval)
    return _plain(backend, np.asarray(lay.batch_offsets)[:, None, None] + (start + rows + np.arange(shape[1])), value)


def _slide(backend: Backend, ct, masks, step: int):
    """Mask ``ct`` with each of ``masks`` in turn, rotate product ``i`` left by ``i * step``, and add them up."""
    parts = (backend.mul_plain(ct, mask) for mask in masks)
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
    ct = state.ct
    for _ in range(current - target):
        ct = backend.mul_plain(ct, ones)
    return CipherState(ct, state.layout)


def _headroom(flattened: bool, after: LayoutState, rows: bool = True):
    """Stride head-room of a conv or pool before the flatten: its outputs, spread back onto the image grid, fit in it."""
    fits = after.w_in * after.interval <= after.w_img and (not rows or after.h_in * after.interval <= after.h_img)
    if not (flattened or fits):
        yield "stride_headroom", (f"layer output {after.h_in}x{after.w_in} at interval {after.interval} "
                                  f"exceeds the {after.h_img}x{after.w_img} image grid")


def _as_array(data, shape, what: str) -> np.ndarray:
    """``data`` as a read-only float array of ``shape``; a writeable array of the caller's is copied first."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.size != math.prod(shape):
        raise ShapeMismatch(f"{what} expects {math.prod(shape)} values, got {arr.size}")
    if arr is data and arr.flags.writeable:
        arr = arr.copy()
    if arr.shape != shape:
        arr = arr.reshape(shape)
    arr.flags.writeable = False
    return arr


class Layer:
    """What every layer type defines once.

    ``kind`` is the JSON tag, ``label`` the report name (FCs are numbered),
    ``shapes`` the weight shapes in :func:`~slotcnn.model.builtin`'s draw
    order, ``rules`` the ``(rule, message)`` pairs the layer breaks on its own.
    ``place(flattened)`` takes whether a flatten comes before the layer and
    returns whether one has come by its end, or raises :class:`NotFlattened`
    where the layer may not stand; ``layout_rules(flattened, after)`` lists
    the ``(rule, message)`` pairs the layer breaks where it stands, given
    that and the layout it leaves.  ``step(layout)`` returns ``(layout
    after, levels used)`` or raises a shape error, and ``forward`` is the
    plaintext oracle.  ``schedule(backend, state)`` runs the layer on a
    :class:`CipherState` and returns the state it leaves.  ``ledger(layout,
    level)`` lists the ``(kind, level, count)`` op records the schedule
    makes when it reads ``layout`` at ``level``, each kind and level first
    in the order the schedule first records it; a count may be 0, for an op
    it does not make.  ``slot_needs(layout, name)`` lists the ``{"layer",
    "slots"}`` entries of the slot prefix, counted from a sample's offset,
    the schedule needs when it reads ``layout``; a layer that stays inside
    the input image lists none.
    """

    @property
    def label(self) -> str:
        return type(self).__name__

    @staticmethod
    def shapes(args) -> dict:
        return {}

    def __post_init__(self) -> None:
        for name, shape in self.shapes(vars(self)).items():
            setattr(self, name, _as_array(getattr(self, name), shape, f"{self.kind} {name}"))

    def rules(self):
        return ()

    @staticmethod
    def place(flattened: bool) -> bool:
        return flattened

    @staticmethod
    def layout_rules(flattened: bool, after: LayoutState):
        return ()

    @staticmethod
    def slot_needs(lay: LayoutState, name: str) -> list:
        return []


@dataclass(eq=False)
class _Conv(Layer):
    """Strided convolution; ``kernel_hw`` is the (height, width) of its taps."""

    ch_in: int
    ch_out: int
    kernel: int
    stride: int
    weights: np.ndarray
    bias: np.ndarray

    def rules(self):
        if 1 <= self.kernel < self.stride:  # a kernel or stride below 1 is the step's shape fault
            yield "kernel_stride", f"kernel {self.kernel} must be at least the stride {self.stride}"

    layout_rules = staticmethod(_headroom)

    def step(self, lay: LayoutState):
        kh, kw = self.kernel_hw
        s = self.stride
        if s < 1:
            raise ShapeMismatch(f"{self.kind} stride must be at least 1, got {s}")
        if self.kernel < 1:
            raise ShapeMismatch(f"{self.kind} kernel must be at least 1, got {self.kernel}")
        if self.ch_out < 1:
            raise ShapeMismatch(f"{self.kind} needs at least one output channel, got {self.ch_out}")
        if self.ch_in != lay.channels:
            raise ShapeMismatch(f"{self.kind} expects {self.ch_in} channels, input has {lay.channels}")
        if lay.h_in < kh or lay.w_in < kw:
            raise ShapeMismatch(f"{self.kind} kernel {self.kernel} exceeds input {self._input_size.format(h=lay.h_in, w=lay.w_in)}")
        h_out, w_out = (lay.h_in - kh) // s + 1, (lay.w_in - kw) // s + 1
        out = lay._replace(interval=lay.interval * s, w_in=w_out, h_in=h_out, channels=self.ch_out,
                           pending_const=1.0, gaps_zero=True)
        return out, 1

    def schedule(self, backend: Backend, state: CipherState) -> CipherState:
        """Strided convolution without reordering the input slots.

        The channel stack is rotated once per (kernel row, kernel column) so
        that each kernel tap aligns with the anchor slot of the window it
        belongs to; each output channel is then a mask-weighted sum of those
        rotations' rows plus a masked bias.  Output values land on an
        ``interval * stride`` grid and the slots in between are zero.  The
        rotations stream into :meth:`Backend.masked_sum`, which gathers each
        one's grid slots and forms all products and sums in one contraction, in
        the oracle's channel-major term order; the ledger still counts
        ``ch_out * ch_in * k**2`` plaintext products and as many additions, as a
        full-width schedule would.  A sparse output grid leaves a compact stack.
        """
        lay = state.layout
        out_layout, _ = self.step(lay)
        kh, kw = self.kernel_hw
        rotations = (backend.rotate(state.ct, lay.interval * (k + lay.w_img * j)) for j in range(kh) for k in range(kw))
        coefs = self.weights.reshape(self.ch_out, -1) * lay.pending_const
        return CipherState(backend.masked_sum(rotations, coefs, _support(out_layout), self.bias), out_layout)

    def ledger(self, lay: LayoutState, level: int) -> list:
        """One rotation per tap; per output channel and tap a product, and an addition that sums it or the bias."""
        kh, kw = self.kernel_hw
        taps = self.ch_in * kh * kw
        return [("rotation", level, taps), ("pt_mult", level, self.ch_out * taps), ("add", level - 1, self.ch_out * taps)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        kh, kw = self.kernel_hw
        s = self.stride
        h_out = (x.shape[1] - kh) // s + 1
        w_out = (x.shape[2] - kw) // s + 1
        taps = self.weights.reshape(self.ch_out, self.ch_in, kh, kw)
        out = np.zeros((self.ch_out, h_out, w_out))
        for i in range(self.ch_in):
            for j in range(kh):
                for q in range(kw):
                    window = x[i, j : j + h_out * s : s, q : q + w_out * s : s]
                    out += taps[:, i, j, q][:, None, None] * window
        out += self.bias[:, None, None]
        return out


@dataclass(eq=False)
class Conv2d(_Conv):
    """2-D convolution.  ``padding`` must be 0: no schedule executes padding."""

    kind = "conv2d"
    _input_size = "{h}x{w}"
    kernel_hw = property(lambda self: (self.kernel, self.kernel))

    padding: int = 0

    @staticmethod
    def shapes(args) -> dict:
        return {"weights": (args["ch_out"], args["ch_in"], args["kernel"], args["kernel"]), "bias": (args["ch_out"],)}

    def __post_init__(self) -> None:
        if self.padding != 0:
            raise PaddingUnsupported(f"convolution padding must be 0, got {self.padding}")
        super().__post_init__()


@dataclass(eq=False)
class Conv1d(_Conv):
    """1-D convolution over a width-only input (height must be 1)."""

    kind = "conv1d"
    _input_size = "width {w}"
    kernel_hw = property(lambda self: (1, self.kernel))

    @staticmethod
    def shapes(args) -> dict:
        return {"weights": (args["ch_out"], args["ch_in"], args["kernel"]), "bias": (args["ch_out"],)}

    @staticmethod
    def layout_rules(flattened: bool, after: LayoutState):
        """Only the width bound: a width-only convolution never strides vertically."""
        return _headroom(flattened, after, rows=False)

    def step(self, lay: LayoutState):
        if lay.h_in != 1:
            raise ShapeMismatch(f"conv1d requires height 1, input has height {lay.h_in}")
        return super().step(lay)


@dataclass(eq=False)
class AvgPool2d(Layer):
    """Non-overlapping average pooling with a square window; the division is deferred."""

    kind = "avgpool2d"

    kernel: int

    layout_rules = staticmethod(_headroom)

    def step(self, lay: LayoutState):
        c = self.kernel
        if c < 1:
            raise ShapeMismatch("pooling kernel must be at least 1")
        if lay.w_in % c or lay.h_in % c:
            raise NonDivisibleDims(f"pool kernel {c} does not divide input {lay.h_in}x{lay.w_in}")
        out = lay._replace(interval=lay.interval * c, w_in=lay.w_in // c, h_in=lay.h_in // c,
                           pending_const=lay.pending_const * (1.0 / (c * c)), gaps_zero=False)
        return out, 0

    def schedule(self, backend: Backend, state: CipherState) -> CipherState:
        """Non-overlapping window sums by rotation, division deferred.

        No mask and no multiplication: the rotations of the channel stack that
        bring each window's elements onto its anchor slot stream into one
        :meth:`Backend.sum`.  The ``1 / kernel**2`` factor joins the pending
        constant and is folded into a later layer's masks, and the gaps now hold
        partial sums.
        """
        lay = state.layout
        out_layout, _ = self.step(lay)
        c = self.kernel
        shifts = [lay.interval * (k + lay.w_img * j) for j in range(c) for k in range(c)]
        return CipherState(backend.sum(backend.rotate(state.ct, s) for s in shifts), out_layout)

    def ledger(self, lay: LayoutState, level: int) -> list:
        """Per channel, one rotation per window slot and the additions that sum them."""
        taps = self.kernel * self.kernel
        return [("rotation", level, lay.channels * taps), ("add", level, lay.channels * (taps - 1))]

    def slot_needs(self, lay: LayoutState, name: str) -> list:
        """The image plus the head-room its window rotations smear values into."""
        return [{"layer": name, "slots": lay.w_img * lay.h_img + (lay.w_img + 1) * (self.kernel - 1)}]

    def forward(self, x: np.ndarray) -> np.ndarray:
        c = self.kernel
        ch, h, w = x.shape
        if h % c or w % c:
            raise NonDivisibleDims(f"pool kernel {c} does not divide input {h}x{w}")
        out = np.zeros((ch, h // c, w // c))
        for j in range(c):
            for q in range(c):
                out += x[:, j::c, q::c]
        out *= 1.0 / (c * c)
        return out


@dataclass(eq=False)
class Square(Layer):
    """Slot-wise squaring activation; the pending constant squares along with the values."""

    kind = "square"

    @staticmethod
    def step(lay: LayoutState):
        return lay._replace(pending_const=lay.pending_const * lay.pending_const), 1

    def schedule(self, backend: Backend, state: CipherState) -> CipherState:
        out_layout, _ = self.step(state.layout)
        return CipherState(backend.mul_cipher(state.ct, state.ct), out_layout)

    @staticmethod
    def ledger(lay: LayoutState, level: int) -> list:
        return [("ct_mult", level, lay.channels)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x * x


@dataclass(eq=False)
class ApproxReLU(Layer):
    """Degree-2 polynomial activation a2*x^2 + a1*x + a0; clears the gaps and the pending constant."""

    kind = "approx_relu"
    label = "Approx ReLU"

    a0: float = RELU_COEFFS[0]
    a1: float = RELU_COEFFS[1]
    a2: float = RELU_COEFFS[2]

    def step(self, lay: LayoutState):
        return lay._replace(pending_const=1.0, gaps_zero=True), 2

    def schedule(self, backend: Backend, state: CipherState) -> CipherState:
        """Polynomial activation a2*x^2 + a1*x + a0 in Horner form.

        Costs one ciphertext product and one masked plaintext product (two
        levels).  All three coefficients are applied only at valid positions,
        with the pending constant folded in, so the activation also scrubs any
        junk out of the gap slots: afterwards the gaps are exactly zero and no
        constant is pending.
        """
        lay = state.layout
        out_layout, _ = self.step(lay)
        support = _support(lay)
        quad = _plain(backend, support, self.a2 * lay.pending_const * lay.pending_const)
        lin = _plain(backend, support, self.a1 * lay.pending_const)
        const = _plain(backend, support, self.a0)
        t = backend.mul_plain(state.ct, quad)
        t = backend.add(t, lin)
        t = backend.mul_cipher(t, state.ct)
        return CipherState(backend.add(t, const), out_layout)

    @staticmethod
    def ledger(lay: LayoutState, level: int) -> list:
        """Per channel in Horner order: the masked product, the linear term, the square, the constant."""
        ch = lay.channels
        return [("pt_mult", level, ch), ("add", level - 1, ch), ("ct_mult", level - 1, ch), ("add", level - 2, ch)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return (self.a2 * x + self.a1) * x + self.a0


@dataclass(eq=False)
class Flatten(Layer):
    """Compact every channel into one contiguous channel-major vector."""

    kind = "flatten"

    @staticmethod
    def place(flattened: bool) -> bool:
        return True

    @staticmethod
    def layout_rules(flattened: bool, after: LayoutState):
        if flattened:
            yield "flatten_structure", "at most one flatten layer is supported"

    @staticmethod
    def dispatch(lay: LayoutState):
        """Decide which flatten steps the layout flatten reads needs.

        Returns ``(masked_extract, row_removal, column_removal)``.  Masked
        extraction subsumes row removal: it both compacts each row and applies
        any pending constant while clearing garbage between values.  Column
        removal then closes the gaps between row ends and the next row start.
        """
        masked = (not lay.gaps_zero) or lay.pending_const != 1.0
        row = (not masked) and lay.interval > 1 and lay.w_in > 1
        return masked, row, lay.h_in > 1

    @staticmethod
    def step(lay: LayoutState):
        masked, row, col = Flatten.dispatch(lay)
        flat = lay.w_in * lay.h_in * lay.channels
        out = lay._replace(interval=1, w_in=flat, h_in=1, channels=1, pending_const=1.0, gaps_zero=True)
        return out, int(masked or row) + int(col)

    def schedule(self, backend: Backend, state: CipherState) -> CipherState:
        """Compact the strided layout into one contiguous channel-major vector.

        Three optional steps, chosen by the same dispatch the static depth
        accounting uses: masked extraction when gaps hold junk or a constant is
        pending (one level), otherwise in-row gap removal when the interval is
        larger than one (one level); then row concatenation when there are
        multiple rows (one level).  Each step masks the whole channel stack, one
        mask at a time.  Finally every channel's row is rotated onto one
        ciphertext, which costs only rotations and additions.
        """
        lay = state.layout
        interval, w_in, h_in = lay.interval, lay.w_in, lay.h_in
        row_span = lay.w_img * interval
        masked, row_removal, col_removal = self.dispatch(lay)
        ct = state.ct

        if masked:
            # Extract column c of every row, scaled by the pending constant, and
            # slide it left so the row becomes contiguous.
            masks = (_runs(backend, lay, c * interval, (h_in, 1), lay.pending_const) for c in range(w_in))
            ct = _slide(backend, ct, masks, interval - 1)
        elif row_removal:
            # Gaps are zero: summing interval-many shifted copies first makes
            # every block of `interval` consecutive columns contiguous, then one
            # masked product per block slides the blocks together.
            blocks = math.ceil(w_in / interval)
            runs = [(b * interval * interval, min(interval, w_in - b * interval)) for b in range(blocks)]
            masks = (_runs(backend, lay, start, (h_in, width)) for start, width in runs)
            summed = backend.sum(backend.rotate(ct, s * (interval - 1)) if s else ct for s in range(interval))
            ct = _slide(backend, summed, masks, interval * (interval - 1))

        if col_removal:
            # Rows are now contiguous runs of w_in values, one run per row span;
            # mask each run and slide it next to the previous one.
            masks = (_runs(backend, lay, r * row_span, (1, w_in)) for r in range(h_in))
            ct = _slide(backend, ct, masks, row_span - w_in)

        flat_len = w_in * h_in
        rows = (ct[ch : ch + 1] for ch in range(lay.channels))  # each channel's row, as a stack of one
        out = backend.sum(backend.rotate(row, -ch * flat_len) if ch else row for ch, row in enumerate(rows))
        return CipherState(out, self.step(lay)[0])

    @staticmethod
    def ledger(lay: LayoutState, level: int) -> list:
        """The records of :meth:`schedule`'s steps, each made for every channel in turn."""
        masked, row, col = Flatten.dispatch(lay)
        ch, i = lay.channels, lay.interval
        records = []

        def slide(parts: int, step: int) -> None:  # a masked product per part, then rotations (none by 0) and adds
            nonlocal level
            records.extend([("pt_mult", level, ch * parts), ("rotation", level - 1, ch * (parts - 1) * (step != 0)),
                            ("add", level - 1, ch * (parts - 1))])
            level -= 1

        if masked:
            slide(lay.w_in, i - 1)
        elif row:
            records.extend([("rotation", level, ch * (i - 1)), ("add", level, ch * (i - 1))])  # the pre-sum
            slide(math.ceil(lay.w_in / i), i * (i - 1))
        if col:
            slide(lay.h_in, lay.w_img * i - lay.w_in)
        return records + [("rotation", level, ch - 1), ("add", level, ch - 1)]  # channels onto one ciphertext

    @staticmethod
    def slot_needs(lay: LayoutState, name: str) -> list:
        """The flat vector, and the slots row removal's pre-sum reads when it runs."""
        needs = [{"layer": name, "slots": lay.w_in * lay.h_in * lay.channels}]
        if Flatten.dispatch(lay)[1]:  # the pre-sum reads (interval - 1)**2 slots past its last kept slot
            i = lay.interval
            last = (lay.h_in - 1) * lay.w_img * i + (math.ceil(lay.w_in / i) - 1) * i * (i - 1) + lay.w_in - 1
            needs.append({"layer": "Flatten pre-sum", "slots": last + (i - 1) ** 2 + 1})
        return needs

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(-1)


@dataclass(eq=False)
class FC(Layer):
    """Fully connected layer y = W x + b on a flattened vector."""

    kind = "fc"
    label = "FC"

    dat_in: int
    dat_out: int
    weights: np.ndarray
    bias: np.ndarray

    _diagonals = None  # (weights, scale, diagonals) of the last call to diagonals(), not a field

    @staticmethod
    def shapes(args) -> dict:
        return {"weights": (args["dat_out"], args["dat_in"]), "bias": (args["dat_out"],)}

    @staticmethod
    def place(flattened: bool) -> bool:
        if not flattened:
            raise NotFlattened("a fully connected layer requires a preceding flatten")
        return True

    def step(self, lay: LayoutState):
        if not (lay.interval == 1 and lay.h_in == 1 and lay.channels == 1):
            raise NotFlattened("fully connected layer requires a flattened input")
        if self.dat_in != lay.w_in:
            raise ShapeMismatch(f"fc expects {self.dat_in} inputs, flattened vector has {lay.w_in}")
        if self.dat_out < 1:
            raise ShapeMismatch(f"fc needs at least one output, got {self.dat_out}")
        return lay._replace(w_in=self.dat_out, pending_const=1.0, gaps_zero=False), 1

    def schedule(self, backend: Backend, state: CipherState) -> CipherState:
        """Fully connected layer as a rotate-mask-fold schedule.

        The weight matrix is laid out along rotated diagonals: rotation ``o`` of
        the input meets two masks (the part of diagonal ``o`` that does not wrap
        past the working window, and the wrapped remainder, pre-rotated so a
        single corrective rotation fixes all wrapped parts at once).
        :meth:`Backend.diagonal_sum` makes the rotations and forms both masked
        sums at every batch offset in a few einsum calls, reading the input once
        on the samples' slots.  The diagonals are :meth:`diagonals`, formed on
        the first run and kept.  Summing ``ceil(dat_in / dat_out)``-many
        ``dat_out``-strided rotations of the masked sum then folds the window
        down to one dot product per output slot.  Slots past ``dat_out`` are
        left holding fold junk.
        """
        lay = state.layout
        out_layout, _ = self.step(lay)
        d_out = self.dat_out
        reps = math.ceil(self.dat_in / d_out)
        window = reps * d_out
        if window > lay.footprint:
            raise FootprintOverflow(f"fc working window {window} exceeds the footprint {lay.footprint}")
        acc_front, acc_wrap = backend.diagonal_sum(state.ct, self.diagonals(lay.pending_const), lay.batch_offsets)
        summed = backend.add(acc_front, backend.rotate(acc_wrap, -window))
        out = backend.sum(backend.rotate(summed, i * d_out) if i else summed for i in range(reps))
        out = backend.add(out, _plain(backend, np.add.outer(lay.batch_offsets, np.arange(d_out)), self.bias))
        return CipherState(out, out_layout)

    def diagonals(self, scale: float) -> np.ndarray:
        """The scaled weight diagonals, ``diag[o, j] = W[(j - o) mod dat_out, j] * scale``, kept for the next call.

        Rotation ``o`` meets diagonal ``o`` at slot ``j - o``: in the front part, or in the wrap part before slot 0
        that one rotation by the window moves behind the front.  One read-only ``dat_out x dat_in`` copy is kept,
        for the weights and scale it was formed from, and only while those weights are read-only, so it cannot go
        stale: weights rebound to a writeable array are read afresh on every call.
        """
        kept = self._diagonals
        if kept is None or kept[0] is not self.weights or kept[1] != scale or self.weights.flags.writeable:
            d_in, d_out = self.dat_in, self.dat_out
            rows = (np.arange(d_out) - np.arange(d_out)[:, None]) % d_out  # within a block of d_out columns
            diag = np.empty((d_out, d_in))
            for start in range(0, d_in, d_out):  # a block at a time, so no temporary is larger than d_out x d_out
                cols = np.arange(start, min(start + d_out, d_in))
                np.multiply(self.weights[rows[:, : cols.size], cols], scale, out=diag[:, start : start + cols.size])
            diag.flags.writeable = False
            self._diagonals = kept = (self.weights, scale, diag)
        return kept[2]

    def ledger(self, lay: LayoutState, level: int) -> list:
        """Diagonal rotations and their two masked products each, then the wrap correction, folds and bias."""
        diagonals = self.dat_out - 1  # diagonal 0 is the input itself
        folds = math.ceil(self.dat_in / self.dat_out)  # the wrap correction, then one rotation per fold after the first
        return [("pt_mult", level, 2 * self.dat_out), ("rotation", level, diagonals), ("add", level - 1, 2 * diagonals),
                ("rotation", level - 1, folds), ("add", level - 1, folds + 1)]

    def slot_needs(self, lay: LayoutState, name: str) -> list:
        """The working window: the outputs, repeated once per fold."""
        return [{"layer": name, "slots": self.dat_out * math.ceil(self.dat_in / self.dat_out)}]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate W x + b with the summation tree :meth:`schedule` induces.

        Output ``t`` sums its dot product along the weight-matrix diagonals,
        window chunk by window chunk with each chunk's wrapped tail added as one
        term, so the result is bit-identical to the rotate-mask-fold schedule
        even when intermediate magnitudes are huge.  Mathematically this is a
        plain dot product; only the association order is pinned.
        """
        if x.ndim != 1:
            raise NotFlattened("fully connected layer requires a flattened input")
        if x.size != self.dat_in:
            raise ShapeMismatch(f"fc expects {self.dat_in} inputs, got {x.size}")
        d_in, d_out = self.dat_in, self.dat_out
        reps = math.ceil(d_in / d_out)
        window = reps * d_out
        out = np.zeros(d_out)
        for b in range(reps):
            front = np.zeros(d_out)
            wrap = np.zeros(d_out)
            for o in range(d_out):
                shift = b * d_out + o
                n_front = min(d_out, window - shift, d_in - shift)
                if n_front > 0:
                    diag = np.diagonal(self.weights, offset=shift)[:n_front]
                    front[:n_front] += diag * x[shift : shift + n_front]
                start = window - shift
                if start < d_out:
                    diag = np.diagonal(self.weights, offset=shift - window)
                    wrap[start : start + diag.size] += diag * x[: diag.size]
            out += front + wrap
        return out + self.bias


LAYER_TYPES = {cls.kind: cls for cls in (Conv2d, Conv1d, AvgPool2d, Square, ApproxReLU, Flatten, FC)}  # by JSON tag


def apply_layer(backend: Backend, state: CipherState, layer) -> CipherState:
    """Run one model layer's slot schedule."""
    if not isinstance(layer, Layer):
        raise ShapeMismatch(f"unknown layer type {type(layer).__name__}")
    return layer.schedule(backend, state)
