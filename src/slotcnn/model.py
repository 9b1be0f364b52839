"""CNN architecture description, validation, depth accounting, and the
plaintext inference oracle.

A model is a plain sequence of layers over a ``channels x height x width``
input.  Each layer class is the one definition of its type: its JSON tag and
report name, its weight shapes, its validation rules, its plaintext forward
pass, its layout step, which maps the :class:`LayoutState` the layer reads
to the one it leaves and counts the multiplicative levels it consumes, and its
op ledger, the rotations, products and additions its slot schedule records,
in closed form from that layout and the level, and the slots one sample's
schedule reaches past its offset, which :func:`slot_sizes` collects.
:func:`trace_layout` walks those steps from the input layout, and each slot
schedule in :mod:`slotcnn.layers` takes its output layout and its shape errors
from the same step, so the static depth budget can never drift from what
actually executes.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    NonDivisibleDims,
    NotFlattened,
    PaddingUnsupported,
    ParseError,
    ShapeMismatch,
    SlotCnnError,
    UnknownModel,
)

__all__ = [
    "Conv2d",
    "Conv1d",
    "AvgPool2d",
    "Square",
    "ApproxReLU",
    "Flatten",
    "FC",
    "LayoutState",
    "ModelSpec",
    "LayerTrace",
    "ValidationReport",
    "trace_layout",
    "slot_sizes",
    "flatten_dispatch",
    "fc_operation_counts",
    "mult_depth",
    "validate",
    "reference_infer",
    "layer_forward",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "builtin",
    "builtin_names",
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


def flatten_dispatch(gaps_zero: bool, pending_one: bool, interval: int, w_in: int, h_in: int):
    """Decide which flatten steps a given entry layout needs.

    Returns ``(masked_extract, row_removal, column_removal)``.  Masked
    extraction subsumes row removal: it both compacts each row and applies
    any pending constant while clearing garbage between values.  Column
    removal then closes the gaps between row ends and the next row start.
    """
    masked = (not gaps_zero) or (not pending_one)
    row = (not masked) and interval > 1 and w_in > 1
    col = h_in > 1
    return masked, row, col


def fc_operation_counts(dat_in: int, dat_out: int) -> dict:
    """Operation census of the fully connected schedule for given sizes."""
    reps = math.ceil(dat_in / dat_out)
    return {
        "rotation_indices": dat_out,
        "masked_mults": 2 * dat_out,
        "fold_rotations": reps,
        "nontrivial_rotations": dat_out + reps - 1,
    }


def _as_array(data, shape, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.size != int(np.prod(shape)):
        raise ShapeMismatch(f"{what} expects {int(np.prod(shape))} values, got {arr.size}")
    return arr.reshape(shape)


class Layer:
    """What every layer type defines once.

    ``kind`` is the JSON tag, ``label`` the report name (FCs are numbered),
    ``shapes`` the weight shapes in :func:`builtin`'s draw order, ``rules``
    the ``(rule, message)`` pairs the layer breaks on its own.  ``step(layout)``
    returns ``(layout after, levels used)`` or raises a shape error, and
    ``forward`` is the plaintext oracle.  ``ledger(layout, level)`` lists the
    ``(kind, level, count)`` op records the slot schedule makes when it reads
    ``layout`` at ``level``, each kind and level first in the order the
    schedule first records it; a count may be 0, for an op it does not make.
    ``slot_needs(layout, name)`` lists the ``{"layer", "slots"}`` entries of
    the slot prefix, counted from a sample's offset, the schedule needs when it
    reads ``layout``; a layer that stays inside the input image lists none.
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
        if self.stride < 1:
            yield "kernel_stride", f"stride must be at least 1, got {self.stride}"
        elif self.kernel < self.stride:
            yield "kernel_stride", f"kernel {self.kernel} must be at least the stride {self.stride}"

    def step(self, lay: LayoutState):
        kh, kw = self.kernel_hw
        s = self.stride
        if s < 1:
            raise ShapeMismatch(f"{self.kind} stride must be at least 1, got {s}")
        if self.kernel < 1:
            raise ShapeMismatch(f"{self.kind} kernel must be at least 1, got {self.kernel}")
        if self.ch_in != lay.channels:
            raise ShapeMismatch(f"{self.kind} expects {self.ch_in} channels, input has {lay.channels}")
        if lay.h_in < kh or lay.w_in < kw:
            raise ShapeMismatch(f"{self.kind} kernel {self.kernel} exceeds input {self._input_size.format(h=lay.h_in, w=lay.w_in)}")
        h_out, w_out = (lay.h_in - kh) // s + 1, (lay.w_in - kw) // s + 1
        out = lay._replace(interval=lay.interval * s, w_in=w_out, h_in=h_out, channels=self.ch_out,
                           pending_const=1.0, gaps_zero=True)
        return out, 1

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

    def rules(self):
        if self.kernel < 1:
            yield "kernel_stride", f"pool kernel must be at least 1, got {self.kernel}"

    def step(self, lay: LayoutState):
        c = self.kernel
        if c < 1:
            raise ShapeMismatch("pooling kernel must be at least 1")
        if lay.w_in % c or lay.h_in % c:
            raise NonDivisibleDims(f"pool kernel {c} does not divide input {lay.h_in}x{lay.w_in}")
        out = lay._replace(interval=lay.interval * c, w_in=lay.w_in // c, h_in=lay.h_in // c,
                           pending_const=lay.pending_const * (1.0 / (c * c)), gaps_zero=False)
        return out, 0

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
    def dispatch(lay: LayoutState):
        """:func:`flatten_dispatch` of the layout flatten reads."""
        return flatten_dispatch(lay.gaps_zero, lay.pending_const == 1.0, lay.interval, lay.w_in, lay.h_in)

    @staticmethod
    def step(lay: LayoutState):
        masked, row, col = Flatten.dispatch(lay)
        flat = lay.w_in * lay.h_in * lay.channels
        out = lay._replace(interval=1, w_in=flat, h_in=1, channels=1, pending_const=1.0, gaps_zero=True)
        return out, int(masked or row) + int(col)

    @staticmethod
    def ledger(lay: LayoutState, level: int) -> list:
        """The records of :func:`slotcnn.layers.flatten`'s steps, each made for every channel in turn."""
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

    @staticmethod
    def shapes(args) -> dict:
        return {"weights": (args["dat_out"], args["dat_in"]), "bias": (args["dat_out"],)}

    def step(self, lay: LayoutState):
        if not (lay.interval == 1 and lay.h_in == 1 and lay.channels == 1):
            raise NotFlattened("fully connected layer requires a flattened input")
        if self.dat_in != lay.w_in:
            raise ShapeMismatch(f"fc expects {self.dat_in} inputs, flattened vector has {lay.w_in}")
        if self.dat_out < 1:
            raise ShapeMismatch(f"fc needs at least one output, got {self.dat_out}")
        return lay._replace(w_in=self.dat_out, pending_const=1.0, gaps_zero=False), 1

    def ledger(self, lay: LayoutState, level: int) -> list:
        """Diagonal rotations and their two masked products each, then the wrap correction, folds and bias."""
        counts = fc_operation_counts(self.dat_in, self.dat_out)
        diagonals = counts["rotation_indices"] - 1  # diagonal 0 is the input itself
        folds = counts["fold_rotations"]  # the wrap correction, then one rotation per fold after the first
        return [("pt_mult", level, counts["masked_mults"]), ("rotation", level, diagonals), ("add", level - 1, 2 * diagonals),
                ("rotation", level - 1, folds), ("add", level - 1, folds + 1)]

    def slot_needs(self, lay: LayoutState, name: str) -> list:
        """The working window: the outputs, repeated once per fold."""
        return [{"layer": name, "slots": self.dat_out * math.ceil(self.dat_in / self.dat_out)}]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 1:
            raise NotFlattened("fully connected layer requires a flattened input")
        if x.size != self.dat_in:
            raise ShapeMismatch(f"fc expects {self.dat_in} inputs, got {x.size}")
        return _fc_forward(self, x)


_LAYER_TYPES = {cls.kind: cls for cls in (Conv2d, Conv1d, AvgPool2d, Square, ApproxReLU, Flatten, FC)}


@dataclass(eq=False)
class ModelSpec:
    """A named layer sequence over a fixed input shape.

    Treated as immutable after construction; nothing in the package mutates
    a model, so instances are safe to share across threads.
    """

    name: str
    channels: int
    height: int
    width: int
    layers: tuple

    def __post_init__(self) -> None:
        self.layers = tuple(self.layers)
        if self.channels < 1 or self.height < 1 or self.width < 1:
            raise ShapeMismatch("input dimensions must all be at least 1")
        for layer in self.layers:
            if not isinstance(layer, Layer):
                raise ParseError(f"unknown layer type {type(layer).__name__}")

    @property
    def input_shape(self) -> dict:
        return {"channels": self.channels, "height": self.height, "width": self.width}

    def input_layout(self, batch_offsets: tuple = (), footprint: int = 0) -> LayoutState:
        """The layout packed samples start in: each channel row-major on its own ciphertext."""
        return LayoutState(interval=1, w_img=self.width, h_img=self.height, w_in=self.width, h_in=self.height,
                           channels=self.channels, pending_const=1.0, gaps_zero=True,
                           batch_offsets=batch_offsets, footprint=footprint)


class LayerTrace(NamedTuple):
    """Static facts of one layer, derived by :func:`trace_layout`: its levels and the layouts it reads and leaves."""

    index: int
    layer: Layer
    name: str
    mults: int
    before: LayoutState
    after: LayoutState

    w_out = property(lambda self: self.after.w_in)
    h_out = property(lambda self: self.after.h_in)
    ch_out = property(lambda self: self.after.channels)
    interval_out = property(lambda self: self.after.interval)


def trace_layout(m: ModelSpec) -> list:
    """Walk the layers' steps from the input layout and return one :class:`LayerTrace` per layer.

    Raises :class:`ShapeMismatch`, :class:`NonDivisibleDims`, or
    :class:`NotFlattened` (each tagged with ``layer_index``) when the layer
    sequence does not chain.  A fully connected layer also needs a flatten
    somewhere before it.
    """
    lay = m.input_layout()
    flattened = False
    fc_count = 0
    rows = []
    for idx, layer in enumerate(m.layers):
        name = layer.label
        try:
            if isinstance(layer, FC):  # numbered in reports, and only valid after a flatten
                if not flattened:
                    raise NotFlattened("fully connected layer requires a flattened input")
                fc_count += 1
                name += str(fc_count)
            after, mults = layer.step(lay)
        except SlotCnnError as err:
            err.layer_index = idx
            raise
        flattened = flattened or isinstance(layer, Flatten)
        rows.append(LayerTrace(idx, layer, name, mults, lay, after))
        lay = after
    return rows


def slot_sizes(m: ModelSpec, rows) -> list:
    """The ``{"layer", "slots"}`` entries of the slot prefix one sample needs: its image, then the traced layers' needs."""
    return [{"layer": "input", "slots": m.width * m.height}] + [
        need for row in rows for need in row.layer.slot_needs(row.before, row.name)
    ]


def mult_depth(m: ModelSpec):
    """Per-layer and total multiplicative level consumption.

    Returns ``(per_layer, total)`` where ``per_layer`` has one count per
    model layer.  The model must chain structurally.
    """
    per_layer = [row.mults for row in trace_layout(m)]
    return per_layer, sum(per_layer)


@dataclass
class ValidationReport:
    """``trace`` holds the :class:`LayerTrace` rows, empty when the layers do not chain."""

    ok: bool
    total_mults: int
    trace: list
    violations: list = field(default_factory=list)


def validate(m: ModelSpec, params) -> ValidationReport:
    """Check a model against the structural and capacity rules.

    Collected violations each carry the layer index (or ``None`` for
    model-wide rules), a short machine-readable rule name, and a message.
    """
    violations = []

    def flag(layer, rule, message):
        violations.append({"layer": layer, "rule": rule, "message": message})

    for idx, layer in enumerate(m.layers):
        for rule, message in layer.rules():
            flag(idx, rule, message)

    flat_positions = [i for i, l in enumerate(m.layers) if isinstance(l, Flatten)]
    fc_positions = [i for i, l in enumerate(m.layers) if isinstance(l, FC)]
    if len(flat_positions) > 1:
        flag(flat_positions[1], "flatten_structure", "at most one flatten layer is supported")
    if fc_positions:
        if not flat_positions:
            flag(fc_positions[0], "flatten_structure", "a fully connected layer requires a preceding flatten")
        elif flat_positions[0] > fc_positions[0]:
            flag(fc_positions[0], "flatten_structure", "the flatten layer must come before the first fully connected layer")

    rows = None
    total = 0
    try:
        rows = trace_layout(m)
        total = sum(r.mults for r in rows)
    except (ShapeMismatch, NonDivisibleDims, NotFlattened) as err:
        flag(getattr(err, "layer_index", None), "shape", str(err))

    if rows is not None:
        if total > params.depth:
            flag(None, "depth_budget", f"depth budget exceeded: model needs {total} levels, parameters provide {params.depth}")
        # Stride head-room: every strided layer's outputs before the flatten,
        # spread back onto the original image grid, must still fit inside it.
        for row in rows:
            if isinstance(row.layer, Flatten):
                break
            if isinstance(row.layer, (Conv2d, Conv1d, AvgPool2d)):
                # A width-only convolution never strides vertically, so only
                # the width bound applies on single-row layouts.
                height_ok = isinstance(row.layer, Conv1d) or row.h_out * row.interval_out <= m.height
                if not height_ok or row.w_out * row.interval_out > m.width:
                    flag(
                        row.index,
                        "stride_headroom",
                        f"layer output {row.h_out}x{row.w_out} at interval {row.interval_out} "
                        f"exceeds the {m.height}x{m.width} image grid",
                    )
        need = max(entry["slots"] for entry in slot_sizes(m, rows))
        if need > params.num_slots:
            flag(None, "footprint", f"a single sample needs {need} slots, ciphertext has {params.num_slots}")

    return ValidationReport(ok=not violations, total_mults=total, trace=rows or [], violations=violations)


# -- plaintext oracle ------------------------------------------------------


def layer_forward(layer, x: np.ndarray) -> np.ndarray:
    """Exact plaintext forward pass of one layer.

    ``x`` is ``(channels, height, width)`` before flatten and 1-D after.
    Accumulation orders mirror the slot schedules term for term, so layer
    outputs agree bit for bit wherever the schedule's deferred constants are
    powers of two (fully connected layers reassociate the dot product and
    agree to rounding error instead).
    """
    if not isinstance(layer, Layer):
        raise ParseError(f"unknown layer type {type(layer).__name__}")
    return layer.forward(x)


def _fc_forward(layer, x: np.ndarray) -> np.ndarray:
    """Evaluate W x + b with the summation tree the slot schedule induces.

    Output ``t`` sums its dot product along the weight-matrix diagonals,
    window chunk by window chunk with each chunk's wrapped tail added as one
    term, so the result is bit-identical to the rotate-mask-fold schedule
    even when intermediate magnitudes are huge.  Mathematically this is a
    plain dot product; only the association order is pinned.
    """
    d_in, d_out = layer.dat_in, layer.dat_out
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
                diag = np.diagonal(layer.weights, offset=shift)[:n_front]
                front[:n_front] += diag * x[shift : shift + n_front]
            start = window - shift
            if start < d_out:
                diag = np.diagonal(layer.weights, offset=shift - window)
                wrap[start : start + diag.size] += diag * x[: diag.size]
        out += front + wrap
    return out + layer.bias


def reference_infer(m: ModelSpec, sample) -> np.ndarray:
    """Run the model on one plaintext sample and return the flat output vector."""
    x = np.asarray(sample, dtype=np.float64)
    expected = (m.channels, m.height, m.width)
    if x.shape != expected:
        raise ShapeMismatch(f"sample shape {x.shape} does not match model input {expected}")
    for layer in m.layers:
        x = layer_forward(layer, x)
    return x.reshape(-1)


# -- JSON (de)serialization -------------------------------------------------


# JSON keys that differ from the field names; every other field keeps its name.
_JSON_NAMES = {"ch_in": "in", "ch_out": "out", "dat_in": "in", "dat_out": "out"}


def _as_int(value, key: str) -> int:
    """An integral JSON number; booleans, strings and fractions would be silently changed by ``int``."""
    integral = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ParseError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _refuse_non_numbers(value, key: str) -> None:
    """Refuse booleans and strings, also inside weight lists: ``float`` and numpy would turn them into numbers."""
    if isinstance(value, (bool, str)):
        raise ParseError(f"{key}: expected a number, got {value!r}")
    if isinstance(value, list) and not set(map(type, value)) <= {float, int}:  # a flat list of JSON numbers is fine
        for item in value:
            _refuse_non_numbers(item, key)


def model_from_dict(data: dict) -> ModelSpec:
    try:
        name = str(data["name"])
        shape = data["input"]
        dims = {key: _as_int(shape[key], key) for key in ("channels", "height", "width")}
        layers = []
        for entry in data["layers"]:
            cls = _LAYER_TYPES.get(entry["type"])
            if cls is None:
                raise ParseError(f"unknown layer type {entry['type']!r}")
            args = {}
            for f in fields(cls):
                key = _JSON_NAMES.get(f.name, f.name)
                if key in entry or f.default is MISSING:
                    value = entry[key]
                    if f.type == "int":
                        value = _as_int(value, key)
                    else:
                        _refuse_non_numbers(value, key)
                        if f.type == "float":
                            value = float(value)
                    args[f.name] = value
            layers.append(cls(**args))
        return ModelSpec(name=name, layers=tuple(layers), **dims)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, ShapeMismatch) as err:
        raise ParseError(f"malformed model description: {err}") from err


def model_to_dict(m: ModelSpec) -> dict:
    layers = []
    for layer in m.layers:
        entry = {"type": layer.kind}
        for f in fields(layer):
            value = getattr(layer, f.name)
            entry[_JSON_NAMES.get(f.name, f.name)] = value.reshape(-1).tolist() if isinstance(value, np.ndarray) else value
        layers.append(entry)
    return {"name": m.name, "input": m.input_shape, "layers": layers}


def load_model(path) -> ModelSpec:
    """Load a model description from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ParseError(f"cannot read model file {path}: {err}") from err
    if not isinstance(data, dict):
        raise ParseError("model file must contain a JSON object")
    return model_from_dict(data)


# -- built-in architectures --------------------------------------------------

# Each entry: input (channels, height, width) followed by layer stubs.
# Weight tensors are drawn uniformly from [-0.5, 0.5) with a seeded generator,
# layer by layer in the order of each layer type's ``shapes``, or are read-only
# NaN placeholders that take no memory when only the architecture is asked for.
_BUILTINS = {
    "M1": ((1, 28, 28), (
        ("conv2d", dict(ch_in=1, ch_out=8, kernel=4, stride=3)),
        ("square",),
        ("flatten",),
        ("fc", dict(dat_in=648, dat_out=64)),
        ("square",),
        ("fc", dict(dat_in=64, dat_out=10)),
    )),
    "M2": ((1, 28, 28), (
        ("conv2d", dict(ch_in=1, ch_out=4, kernel=5, stride=1)),
        ("square",),
        ("avgpool2d", dict(kernel=2)),
        ("conv2d", dict(ch_in=4, ch_out=12, kernel=5, stride=1)),
        ("square",),
        ("avgpool2d", dict(kernel=2)),
        ("flatten",),
        ("fc", dict(dat_in=192, dat_out=10)),
    )),
    "M3": ((1, 28, 28), (
        ("conv2d", dict(ch_in=1, ch_out=6, kernel=3, stride=1)),
        ("approx_relu",),
        ("avgpool2d", dict(kernel=2)),
        ("flatten",),
        ("fc", dict(dat_in=1014, dat_out=120)),
        ("approx_relu",),
        ("fc", dict(dat_in=120, dat_out=10)),
    )),
    "M4": ((1, 32, 32), (
        ("conv2d", dict(ch_in=1, ch_out=6, kernel=5, stride=1)),
        ("square",),
        ("avgpool2d", dict(kernel=2)),
        ("conv2d", dict(ch_in=6, ch_out=16, kernel=5, stride=1)),
        ("square",),
        ("avgpool2d", dict(kernel=2)),
        ("conv2d", dict(ch_in=16, ch_out=120, kernel=5, stride=1)),
        ("square",),
        ("flatten",),
        ("fc", dict(dat_in=120, dat_out=84)),
        ("square",),
        ("fc", dict(dat_in=84, dat_out=10)),
    )),
    "M5": ((3, 32, 32), (
        ("conv2d", dict(ch_in=3, ch_out=16, kernel=3, stride=1)),
        ("square",),
        ("avgpool2d", dict(kernel=2)),
        ("conv2d", dict(ch_in=16, ch_out=64, kernel=4, stride=1)),
        ("square",),
        ("avgpool2d", dict(kernel=2)),
        ("conv2d", dict(ch_in=64, ch_out=128, kernel=3, stride=1)),
        ("square",),
        ("avgpool2d", dict(kernel=4)),
        ("flatten",),
        ("fc", dict(dat_in=128, dat_out=10)),
    )),
    "M6": ((1, 16, 16), (
        ("conv2d", dict(ch_in=1, ch_out=6, kernel=4, stride=2)),
        ("square",),
        ("flatten",),
        ("fc", dict(dat_in=294, dat_out=64)),
        ("square",),
        ("fc", dict(dat_in=64, dat_out=10)),
    )),
    "M7": ((1, 1, 128), (
        ("conv1d", dict(ch_in=1, ch_out=2, kernel=2, stride=2)),
        ("square",),
        ("conv1d", dict(ch_in=2, ch_out=4, kernel=2, stride=2)),
        ("flatten",),
        ("fc", dict(dat_in=128, dat_out=32)),
        ("square",),
        ("fc", dict(dat_in=32, dat_out=5)),
    )),
}


def builtin_names() -> list:
    return sorted(_BUILTINS)


def builtin(name: str, seed: int = 0, weights: bool = True) -> ModelSpec:
    """Instantiate a built-in architecture with seeded random weights.

    With ``weights=False`` nothing is drawn and ``seed`` is unused: every
    weight tensor is a read-only NaN view that takes no memory, which is all
    that validating, planning and pricing the architecture read.  Inference
    on such a model returns NaN, never a plausible output.
    """
    key = name.upper()
    if key not in _BUILTINS:
        raise UnknownModel(f"unknown built-in model {name!r}; available: {', '.join(builtin_names())}")
    (channels, height, width), stubs = _BUILTINS[key]
    rng = np.random.default_rng(seed) if weights else None
    layers = []
    for kind, *args in stubs:
        cls = _LAYER_TYPES[kind]
        args = args[0] if args else {}
        tensors = {attr: rng.uniform(-0.5, 0.5, size=shape) if weights else np.broadcast_to(np.nan, shape)
                   for attr, shape in cls.shapes(args).items()}
        layers.append(cls(**args, **tensors))
    return ModelSpec(name=key, channels=channels, height=height, width=width, layers=tuple(layers))
