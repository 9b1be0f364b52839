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
each backend operation runs once and records one op per channel.
Convolution hands its input, its tap shifts and its weights to
:meth:`Backend.masked_sum`; the fully connected layer its input and its
plaintext diagonals, formed on its first run and kept (weight tensors are
read-only), to :meth:`Backend.diagonal_sum`; flatten its input, the slots
its slide loop moves and that loop's records to :meth:`Backend.gather`.
Each of the three makes its rotations itself, and its values and op ledger
are those of the ``rotate`` / ``mul_plain`` / ``add`` loop over full-width
masks.  ``ApproxReLU`` multiplies by masks with :meth:`Backend.mul_plain`,
and every plaintext a layer uses is made by ``_plain``.  All follow the
backend's one masking rule: each product is formed only on its mask's
nonzero slots and every other slot is an exact +0.0, so no value of one
sample reaches another sample's result through a zero mask slot, however
large it grows.  A convolution of several rows over few slots leaves a
compact stack, which stores only its live slots, and only it does: Square
and pooling keep a compact input compact, and ApproxReLU, level alignment,
flatten and FC leave full-width stacks.  Pooling's and FC's other rotations, and flatten's
channel merge when no other step runs, stream into :meth:`Backend.sum`.
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
    That holds for finite junk only: a gap whose junk overflowed to inf holds
    NaN after ``ApproxReLU``, whose ciphertext product there is 0 * inf; flatten's
    pre-sum carries it into that sample's values, never another sample's.
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
    where the layer may not stand.  ``step(layout)`` returns ``(layout
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
        input stack and the tap shifts go to :meth:`Backend.masked_sum`, which
        makes the rotations, reads each tap's grid slots straight from the
        input and forms all products and sums in one contraction, in the
        oracle's channel-major term order; the ledger still counts ``ch_out *
        ch_in * k**2`` plaintext products and as many additions, as a
        full-width schedule would.  A sparse output grid leaves a compact stack.
        """
        lay = state.layout
        out_layout, _ = self.step(lay)
        kh, kw = self.kernel_hw
        shifts = [lay.interval * (k + lay.w_img * j) for j in range(kh) for k in range(kw)]
        coefs = self.weights.reshape(self.ch_out, -1) * lay.pending_const
        return CipherState(backend.masked_sum(state.ct, shifts, coefs, _support(out_layout), self.bias), out_layout)

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

    def step(self, lay: LayoutState):
        if lay.h_in != 1:
            raise ShapeMismatch(f"conv1d requires height 1, input has height {lay.h_in}")
        return super().step(lay)


@dataclass(eq=False)
class AvgPool2d(Layer):
    """Non-overlapping average pooling with a square window; the division is deferred."""

    kind = "avgpool2d"

    kernel: int

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
        with the pending constant folded in, so the activation also scrubs
        finite junk out of the gap slots: afterwards those gaps are exactly zero
        and no constant is pending.  A gap whose junk overflowed to inf holds
        NaN instead, its ciphertext product's 0 * inf (see :attr:`LayoutState.gaps_zero`).
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

    _indices = None  # (layout, num_slots, reads, dest) of the last call to indices(), not a field

    @staticmethod
    def place(flattened: bool) -> bool:
        if flattened:
            raise NotFlattened("at most one flatten layer is supported")
        return True

    @staticmethod
    def dispatch(lay: LayoutState):
        """``(masked_extract, row_removal, column_removal)``: the steps, one level each, flatten takes on ``lay``.

        Masked extraction, when gaps hold junk or a constant is pending, compacts each row, applies the constant and
        clears the gaps; else row removal compacts rows when the interval is above one.  Column removal joins rows.
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

        The schedule is a slide loop of the steps :meth:`dispatch` picks: each
        masks the stack once per part and slides the parts together; last, each
        channel's row is rotated onto one ciphertext.  In values the loop is a
        permutation, so :meth:`Backend.gather` forms it in one read, row
        removal's pre-sum over gap slots included.  With no step, each channel's
        row may hold anything between its values and is rotated and summed whole.
        """
        lay = state.layout
        out_layout, _ = self.step(lay)
        masked, row, col = self.dispatch(lay)
        flat_len, n = lay.w_in * lay.h_in, backend.num_slots
        if not (masked or row or col):
            rows = (state.ct[ch : ch + 1] for ch in range(lay.channels))  # each channel's row, as a stack of one
            return CipherState(backend.sum(backend.rotate(row, -ch * flat_len) if ch else row for ch, row in enumerate(rows)), out_layout)
        reads, dest = self.indices(lay, n)
        scales = [lay.pending_const] * masked + [1.0] * (row + col)
        return CipherState(backend.gather(state.ct, reads, dest, scales, self._loop(lay, state.level)), out_layout)

    def indices(self, lay: LayoutState, n: int) -> tuple:
        """``(reads, dest)`` for :meth:`Backend.gather` on ``lay`` at ``n`` slots, kept for the next call.

        ``reads`` are :meth:`_reads` mod ``n`` and ``dest`` the flat slots each channel's values go to.  One read-only
        copy is kept, for the layout and slot count it was formed from.
        """
        kept = self._indices
        if kept is None or kept[0] != lay or kept[1] != n:
            flat_len = lay.w_in * lay.h_in
            reads = self._reads(lay) & (n - 1)  # slots mod n, a power of two
            dest = (np.arange(lay.channels)[:, None] * flat_len + _support(lay._replace(interval=1, w_in=flat_len, h_in=1))) & (n - 1)
            reads.flags.writeable = dest.flags.writeable = False
            self._indices = kept = (lay, n, reads, dest)
        return kept[2:]

    @staticmethod
    def _reads(lay: LayoutState) -> np.ndarray:
        """``(terms, values)``: the slots the slide loop adds up onto each kept value, at every batch offset."""
        if not Flatten.dispatch(lay)[1]:
            return _support(lay)[None]
        i, k = lay.interval, np.tile(np.arange(lay.w_in) % lay.interval, lay.h_in * len(lay.batch_offsets))
        return _support(lay) + (np.arange(i)[:, None] - k) * (i - 1)  # value (r, c) is term c % i of the pre-sum

    @staticmethod
    def _loop(lay: LayoutState, level: int):
        """The slide loop's ``(kind, level, count, shifts)`` records in order, a rotation's ``shifts`` its amounts.

        A slide sums ``parts`` copies of ``rows`` rows, masked if it makes products, copy ``p`` rotated left by ``p * step``.
        """
        masked, row, col = Flatten.dispatch(lay)
        ch, i, w_in, h_in = lay.channels, lay.interval, lay.w_in, lay.h_in
        pre_sum = [(ch, i, i - 1, False), (ch, math.ceil(w_in / i), i * (i - 1), True)]  # then a block of i columns a part
        slides = [(ch, w_in, i - 1, True)] if masked else pre_sum if row else []
        slides += [(ch, h_in, lay.w_img * i - w_in, True)] * col + [(1, ch, -w_in * h_in, False)]
        for rows, parts, step, product in slides:
            if product:
                yield "pt_mult", level, rows * parts, ()
                level -= 1
            shifts = range(step, step * parts, step) if step else ()  # p * step for p = 1 .. parts - 1, none by 0
            yield "rotation", level, rows * len(shifts), shifts
            yield "add", level, rows * (parts - 1), ()

    @staticmethod
    def ledger(lay: LayoutState, level: int) -> list:
        """The records of the slide loop :meth:`schedule` stands for."""
        return [record[:3] for record in Flatten._loop(lay, level)]

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
