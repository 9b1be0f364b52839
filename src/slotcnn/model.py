"""Model descriptions: validation, the layout trace, the plaintext inference
oracle, JSON (de)serialization and the built-in architectures.

A model is a :class:`ModelSpec`, a plain sequence of the layer classes of
:mod:`slotcnn.layers` over a ``channels x height x width`` input; each class
owns its type's layout step, placement rule, slot schedule, op ledger, slot
needs and plaintext forward pass.  :func:`trace_layout` walks the steps from
the input layout, the same steps every slot schedule takes its output layout
and its shape errors from, so the static depth budget can never drift from what
actually executes.  :func:`validate` checks each layer's own rules and that
trace, then the two rules of the whole model: the level budget and the slot
footprint, which :func:`slot_sizes` collects from the layers' slot needs.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import NonDivisibleDims, NotFlattened, ParseError, ShapeMismatch, SlotCnnError, UnknownModel
from .layers import FC, LAYER_TYPES, Layer, LayoutState

__all__ = [
    "ModelSpec",
    "LayerTrace",
    "ValidationReport",
    "trace_layout",
    "slot_sizes",
    "validate",
    "reference_infer",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "builtin",
    "builtin_names",
]

@dataclass(eq=False)
class ModelSpec:
    """A named layer sequence over a fixed input shape.

    Treated as immutable after construction: every layer tensor is
    read-only, and the only state a run adds is each fully connected layer's
    kept diagonals, formed from those tensors on its first run; two threads
    that form them at once form the same values.  Instances are safe to share
    across threads.
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


def trace_layout(m: ModelSpec) -> list:
    """Walk the layers' steps from the input layout and return one :class:`LayerTrace` per layer.

    Raises :class:`ShapeMismatch`, :class:`NonDivisibleDims`, or
    :class:`NotFlattened` (each tagged with ``layer_index``) when the layer
    sequence does not chain, or a layer stands where its class's ``place``
    refuses it, as a fully connected layer with no flatten before it or a
    second flatten.
    """
    lay = m.input_layout()
    flattened = False
    fc_count = 0
    rows = []
    for idx, layer in enumerate(m.layers):
        name = layer.label
        if isinstance(layer, FC):  # numbered in reports
            fc_count += 1
            name += str(fc_count)
        try:
            placed = layer.place(flattened)
            after, mults = layer.step(lay)
        except SlotCnnError as err:
            err.layer_index = idx
            raise
        rows.append(LayerTrace(idx, layer, name, mults, lay, after))
        flattened, lay = placed, after
    return rows


def slot_sizes(m: ModelSpec, rows) -> list:
    """The ``{"layer", "slots"}`` entries of the slot prefix one sample needs: its image, then the traced layers' needs."""
    return [{"layer": "input", "slots": m.width * m.height}] + [
        need for row in rows for need in row.layer.slot_needs(row.before, row.name)
    ]


@dataclass
class ValidationReport:
    """``trace`` holds the :class:`LayerTrace` rows, empty when the layers do not chain."""

    ok: bool
    total_mults: int
    trace: list
    violations: list = field(default_factory=list)


def validate(m: ModelSpec, params, trace=None) -> ValidationReport:
    """Check a model against the structural and capacity rules.

    Collected violations each carry the layer index (or ``None`` for
    model-wide rules), a short machine-readable rule name, and a message.
    ``trace`` is ``m``'s :func:`trace_layout` rows, walked here when not given.
    """
    violations = []

    def flag(layer, rule, message):
        violations.append({"layer": layer, "rule": rule, "message": message})

    for idx, layer in enumerate(m.layers):
        for rule, message in layer.rules():
            flag(idx, rule, message)
    rows = trace
    if rows is None:
        try:
            rows = trace_layout(m)
        except (ShapeMismatch, NonDivisibleDims, NotFlattened) as err:
            # A fully connected layer that reads no flattened vector, or a second flatten, is a flatten placement fault.
            flag(err.layer_index, "flatten_structure" if isinstance(err, NotFlattened) else "shape", str(err))
            return ValidationReport(ok=False, total_mults=0, trace=[], violations=violations)

    total = sum(row.mults for row in rows)
    if total > params.depth:
        flag(None, "depth_budget", f"depth budget exceeded: model needs {total} levels, parameters provide {params.depth}")
    need = max(entry["slots"] for entry in slot_sizes(m, rows))
    if need > params.num_slots:
        flag(None, "footprint", f"a single sample needs {need} slots, ciphertext has {params.num_slots}")
    return ValidationReport(ok=not violations, total_mults=total, trace=rows, violations=violations)


# -- plaintext oracle ------------------------------------------------------


def reference_infer(m: ModelSpec, sample) -> np.ndarray:
    """Run the model on one plaintext sample and return the flat output vector.

    Each layer's ``forward`` sums in its slot schedule's order, FC's too, so
    outputs agree bit for bit wherever deferred constants are powers of two.
    """
    x = np.asarray(sample, dtype=np.float64)
    expected = (m.channels, m.height, m.width)
    if x.shape != expected:
        raise ShapeMismatch(f"sample shape {x.shape} does not match model input {expected}")
    for layer in m.layers:
        x = layer.forward(x)
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


def _refuse_unknown_keys(entry: dict, known, where: str) -> None:
    """A misspelt key would otherwise be ignored, or load as the field's default."""
    unknown = sorted(map(repr, set(entry) - set(known)))
    if unknown:
        raise ParseError(f"{where}unknown key {', '.join(unknown)}")


def model_from_dict(data: dict) -> ModelSpec:
    try:
        _refuse_unknown_keys(data, ("name", "input", "layers"), "")
        name = str(data["name"])
        shape = data["input"]
        _refuse_unknown_keys(shape, ("channels", "height", "width"), "input: ")
        dims = {key: _as_int(shape[key], key) for key in ("channels", "height", "width")}
        layers = []
        for index, entry in enumerate(data["layers"]):
            cls = LAYER_TYPES.get(entry["type"])
            if cls is None:
                raise ParseError(f"unknown layer type {entry['type']!r}")
            keys = {_JSON_NAMES.get(f.name, f.name): f for f in fields(cls)}
            _refuse_unknown_keys(entry, [*keys, "type"], f"layer {index} ({cls.kind}): ")
            args = {}
            for key, f in keys.items():
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


_NAN = np.full(1, np.nan)
_NAN.flags.writeable = False  # so every zero-stride view of it is read-only


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A freshly drawn tensor, made read-only so the layer keeps it without a copy."""
    arr.flags.writeable = False
    return arr


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
    draw = np.random.default_rng(seed).uniform if weights else None
    layers = []
    for kind, *args in stubs:
        cls = LAYER_TYPES[kind]
        args = args[0] if args else {}
        tensors = {attr: _frozen(draw(-0.5, 0.5, size=shape)) if weights else np.ndarray(shape, np.float64, _NAN, 0, (0,) * len(shape))
                   for attr, shape in cls.shapes(args).items()}
        layers.append(cls(**args, **tensors))
    return ModelSpec(name=key, channels=channels, height=height, width=width, layers=tuple(layers))
