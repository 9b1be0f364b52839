"""Exact slot-level simulator of a leveled SIMD ciphertext.

The simulator models the three properties the layer schedules care about:

* a fixed-width vector of real-valued slots operated on element-wise,
* cyclic rotation of that vector,
* a multiplicative level budget that every multiplication consumes.

Slot arithmetic is plain 64-bit floating point, so results are exactly
reproducible.  The only modeled approximation is an optional fixed-point
quantization (round to ``scale_bits`` fractional bits, ties to even) applied
at encode time and after every multiplication.  There is no noise model
beyond that and no actual encryption.  Slot vectors are never written after
they are made: a rotation of a full-width vector is a read-only view of one
doubled copy of it, shared by consecutive rotations of that vector (the
simulator's hoisted rotations).

:meth:`Backend.masked_sum` sums convolution's products in one ``np.einsum``
call over a gathered ``(terms, slots)`` matrix of ``terms * slots * 8`` bytes.
That is exact where einsum without ``optimize`` adds the terms in order from
+0.0 with no fused multiply-add, as numpy's x86-64 wheels do; a numpy build
that does not fails the pinned tests and ``slotcnn verify``.

Every operation of :class:`Backend` checks widths and levels, records itself
in the :class:`OpCounter` and then computes the result's slots.  The op
ledger does not depend on slot values, so pricing a schedule needs no run:
each layer class in :mod:`slotcnn.model` states its ledger in closed form,
and :func:`slotcnn.engine.ledger_metrics` (``slotcnn bench``) reads those.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import LevelExhausted, OversizedInput, SlotMismatch

__all__ = [
    "HEParams",
    "PlainVector",
    "CipherVector",
    "RegionMask",
    "OpCounter",
    "Backend",
    "DEFAULT_PARAMS",
]


@dataclass(frozen=True)
class HEParams:
    """Parameters of the simulated ciphertext space.

    ``poly_degree`` must be a power of two; a ciphertext then carries
    ``poly_degree / 2`` slots.  ``depth`` is the number of multiplications a
    fresh ciphertext can absorb.  ``scale_bits`` is the fixed-point precision
    used when ``quantize`` is on.  ``log_q`` is carried along for reporting
    only; it does not affect the simulation.
    """

    poly_degree: int = 16384
    depth: int = 11
    scale_bits: int = 32
    quantize: bool = False
    log_q: int = 432

    def __post_init__(self) -> None:
        if self.poly_degree < 4 or self.poly_degree & (self.poly_degree - 1):
            raise ValueError("poly_degree must be a power of two, at least 4")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.scale_bits < 1:
            raise ValueError("scale_bits must be at least 1")
        if self.log_q < 1:
            raise ValueError("log_q must be at least 1")

    @property
    def num_slots(self) -> int:
        return self.poly_degree // 2

    def to_dict(self) -> dict:
        return {
            "poly_degree": self.poly_degree,
            "depth": self.depth,
            "scale_bits": self.scale_bits,
            "quantize": self.quantize,
            "log_q": self.log_q,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HEParams":
        known = {f: data[f] for f in ("poly_degree", "depth", "scale_bits", "quantize", "log_q") if f in data}
        return cls(**known)


DEFAULT_PARAMS = HEParams()


@dataclass(eq=False)
class PlainVector:
    """An encoded plaintext: one float64 value per slot."""

    values: np.ndarray

    def __len__(self) -> int:
        return self.values.size


@dataclass(eq=False)
class CipherVector:
    """A simulated ciphertext: slot values plus the remaining level budget."""

    values: np.ndarray
    level: int

    def __len__(self) -> int:
        return self.values.size


class RegionMask(NamedTuple):
    """Plaintext ``values`` (broadcast to ``shape``) on one grid of slots in every sample region.

    The grid holds the positions ``start + i * steps[0] + j * steps[1]``,
    ``i < shape[0]`` and ``j < shape[1]``, counted from each batch offset.  A
    negative ``start`` puts the grid just before the offset, which for offset
    0 means the last slots of the vector.
    """

    start: int
    shape: tuple
    values: object = 1.0
    steps: tuple = (0, 1)


@dataclass
class OpCounter:
    """Write-only tally of backend operations, bucketed by level.

    ``by_level`` maps ``(kind, level)`` to a count, where ``level`` is the
    operand level at the time of the call (for rotations and additions the
    level of the result).  The per-kind totals are kept separately so they
    stay cheap to read.
    """

    rotations: int = 0
    pt_mults: int = 0
    ct_mults: int = 0
    adds: int = 0
    by_level: dict = field(default_factory=dict)

    def record(self, kind: str, level: int, count: int = 1) -> None:
        if kind == "rotation":
            self.rotations += count
        elif kind == "add":
            self.adds += count
        elif kind == "pt_mult":
            self.pt_mults += count
        elif kind == "ct_mult":
            self.ct_mults += count
        else:
            raise KeyError(kind)
        key = (kind, level)
        self.by_level[key] = self.by_level.get(key, 0) + count

    def discard(self, kind: str, level: int, count: int) -> None:
        """Take back ``count`` earlier records of an operation that raised part way."""
        if count > 0:
            self.record(kind, level, -count)
            if not self.by_level[kind, level]:
                del self.by_level[kind, level]

    def totals(self) -> dict:
        return {
            "rotations": self.rotations,
            "pt_mults": self.pt_mults,
            "ct_mults": self.ct_mults,
            "adds": self.adds,
        }

    def snapshot(self) -> tuple:
        return (self.rotations, self.pt_mults, self.ct_mults, self.adds, dict(self.by_level))


def diff_snapshots(before: tuple, after: tuple) -> tuple:
    """Per-kind totals and level histogram accumulated between two snapshots."""
    totals = {
        "rotations": after[0] - before[0],
        "pt_mults": after[1] - before[1],
        "ct_mults": after[2] - before[2],
        "adds": after[3] - before[3],
    }
    hist = {}
    for key, count in after[4].items():
        delta = count - before[4].get(key, 0)
        if delta:
            hist[key] = delta
    return totals, hist


class Backend:
    """Executes slot operations for one inference and counts them.

    All value semantics are pure functions of the operands; the counter and
    the cached doubled copy of the last vector rotated are the only mutable
    state, so one backend must not be shared between concurrent inferences.
    """

    def __init__(self, params: HEParams):
        self.params = params
        self.num_slots = params.num_slots
        self.counter = OpCounter()
        self._scale = float(2**params.scale_bits)
        self._doubled = (None, None)  # the last full-width vector rotated, held so its id stays unique

    # -- encoding ---------------------------------------------------------

    def encode(self, data) -> PlainVector:
        """Encode a vector of at most ``num_slots`` reals, zero-filling the rest."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise OversizedInput(f"encode expects a 1-D vector, got shape {arr.shape}")
        n = self.num_slots
        if arr.size > n:
            raise OversizedInput(f"vector of length {arr.size} does not fit into {n} slots")
        out = np.zeros(n, dtype=np.float64)
        out[: arr.size] = arr
        return PlainVector(self._quantized(out))

    def _plain(self, arr: np.ndarray) -> PlainVector:
        """Wrap an owned full-width float64 array with encode semantics.

        Internal fast path for mask construction: the caller guarantees the
        array has exactly ``num_slots`` entries and is not aliased elsewhere.
        """
        return PlainVector(self._quantized(arr))

    def encrypt(self, plain: PlainVector) -> CipherVector:
        """Turn a plaintext into a fresh ciphertext at the full level budget."""
        return CipherVector(plain.values.copy(), self.params.depth)

    def decrypt(self, cipher: CipherVector) -> np.ndarray:
        return cipher.values.copy()

    # -- arithmetic -------------------------------------------------------

    def _check_width(self, a, b) -> None:
        if a.values.size != b.values.size:
            raise SlotMismatch(f"operand widths differ: {a.values.size} vs {b.values.size}")

    def add(self, a: CipherVector, b) -> CipherVector:
        """Slot-wise sum; free of level cost.

        ``b`` may be another ciphertext (result level is the minimum of the
        two) or a plaintext (result keeps ``a``'s level).
        """
        return self.sum((a, b))

    def mul_plain(self, cipher: CipherVector, plain: PlainVector) -> CipherVector:
        """Slot-wise ciphertext-plaintext product; consumes one level."""
        if cipher.level < 1:
            raise LevelExhausted("ciphertext has no multiplication budget left")
        self._check_width(cipher, plain)
        self.counter.record("pt_mult", cipher.level)
        return CipherVector(self._quantized(cipher.values * plain.values), cipher.level - 1)

    def mul_cipher(self, a: CipherVector, b: CipherVector) -> CipherVector:
        """Slot-wise ciphertext-ciphertext product; consumes one level."""
        level = min(a.level, b.level)
        if level < 1:
            raise LevelExhausted("ciphertext has no multiplication budget left")
        self._check_width(a, b)
        self.counter.record("ct_mult", level)
        return CipherVector(self._quantized(a.values * b.values), level - 1)

    def masked_sum(self, terms, coefs, support, bias=None) -> list:
        """Per-row masked linear combinations of a stream of ciphertexts.

        ``terms`` is an iterable of ciphertexts at one level, read once and in
        order, so a generator of rotations keeps one alive at a time.  Row
        ``o`` holds ``sum_t terms[t] * mask[o][t]``, plus ``bias[o]`` on the
        support when ``bias`` is given, formed only on the masks' slots: every
        other slot is an exact zero, whatever the terms hold there.  Either
        ``support`` is a flat array of slot indices shared by all masks and
        ``coefs[o, t]`` a scalar, or ``support`` is the tuple of evenly spaced
        batch offsets and ``coefs[o][t]`` a :class:`RegionMask` applied at
        each of them (``None`` for no slots, and no ``bias``).

        Values on the mask slots and the ledger are those of the ``mul_plain``
        / ``add`` loop over full-width masks, summed in term order from +0.0
        with the bias last; flat masks in one contraction.  The ledger is
        recorded as the stream is read: per term, ``rows`` products at the
        terms' level and, after the first term, ``rows`` additions one level
        below; then ``rows`` bias additions.  Rows of unequal length raise
        before anything is read or recorded; a term of the wrong width, or a
        stream of the wrong length, raises and takes back the earlier records.
        """
        if isinstance(support, tuple) and (bias is not None or len({b - a for a, b in zip(support, support[1:])}) > 1):
            raise ValueError(f"region masks need evenly spaced batch offsets and no bias, got offsets {support}")
        count = len(coefs[0])
        if not isinstance(coefs, np.ndarray) and len(set(map(len, coefs))) > 1:  # an array has equal rows
            raise ValueError(f"masked_sum needs one mask per term in every row, got rows of {list(map(len, coefs))}")
        terms = iter(terms)
        first = next(terms, None)
        if first is None:
            raise ValueError("masked_sum needs at least one term")
        level = first.level
        if level < 1:
            raise LevelExhausted("ciphertext has no multiplication budget left")
        checked = self._checked(itertools.chain([first], terms), level, len(coefs), count)
        out = self._masked_rows(checked, coefs, support, bias)
        if bias is not None:
            self.counter.record("add", level - 1, len(coefs))
        return [CipherVector(v, level - 1) for v in out]

    def _checked(self, terms, level: int, rows: int, count: int):
        """Yield ``count`` terms' slots, each once its width is checked and its products and sums are recorded."""
        n = self.num_slots
        for t, term in enumerate(itertools.chain(terms, [None])):
            if t == count and term is None:
                return
            if t == count or term is None or term.values.size != n:
                self.counter.discard("pt_mult", level, rows * t)
                self.counter.discard("add", level - 1, rows * (t - 1))
                if t < count and term is not None:
                    raise SlotMismatch(f"operand widths differ: {term.values.size} vs {n}")
                raise ValueError(f"masked_sum needs {count} terms, got {'more' if term is not None else t}")
            self.counter.record("pt_mult", level, rows)
            if t:
                self.counter.record("add", level - 1, rows)
            yield term.values

    def sum(self, terms) -> CipherVector:
        """Slot-wise sum of a ciphertext and the terms after it, read once and in order.

        Values, level and ledger equal those of ``add(add(t0, t1), t2) ...``:
        each term's ``add`` is recorded before the next term is pulled.
        """
        terms = iter(terms)
        first = next(terms, None)
        if first is None:
            raise ValueError("sum needs at least one term")
        acc = CipherVector(first.values.copy(), first.level)
        for term in terms:
            self._check_width(acc, term)
            if isinstance(term, CipherVector):
                acc.level = min(acc.level, term.level)
            self.counter.record("add", acc.level)
            acc.values += term.values
        return acc

    def rotate(self, cipher: CipherVector, r: int) -> CipherVector:
        """Cyclic left shift by ``r`` slots (negative ``r`` shifts right)."""
        r = r % self.num_slots
        self.counter.record("rotation", cipher.level)
        return CipherVector(self._rotated(cipher.values, r), cipher.level)

    # -- slot values -------------------------------------------------------

    def _quantized(self, arr: np.ndarray) -> np.ndarray:
        """Round an owned array in place to ``scale_bits`` fractional bits when quantization is on."""
        if self.params.quantize:
            np.multiply(arr, self._scale, out=arr)
            np.rint(arr, out=arr)
            np.divide(arr, self._scale, out=arr)
        return arr

    def _masked_rows(self, values, coefs, support, bias) -> list:
        if isinstance(support, tuple):
            return self._region_rows(values, coefs, support)
        coefs = self._quantized(np.array(coefs, dtype=np.float64).T.copy())
        width = len(support)
        gathered = np.zeros((len(coefs), max(width, 2)))  # a pad column keeps einsum's term axis outermost
        for term, row in zip(values, gathered):  # values first, so zip pulls the stream's length check
            term.take(support, out=row[:width])
        if self.params.quantize:
            acc = np.zeros((coefs.shape[1], width))
            for c, row in zip(coefs, gathered):
                acc += self._quantized(c[:, None] * row[:width])
        else:
            acc = np.einsum("to,ts->os", coefs, gathered, optimize=False)[:, :width]
        if bias is not None:
            acc += self._quantized(np.array(bias, dtype=np.float64))[:, None]
        out = np.zeros((len(acc), self.num_slots))
        out[:, support] = acc
        return list(out)

    def _region_rows(self, values, masks, offsets: tuple) -> list:
        stride = offsets[1] - offsets[0] if len(offsets) > 1 else 0
        out = [np.zeros(self.num_slots) for _ in masks]
        for t, term in enumerate(values):
            term = np.ascontiguousarray(term, dtype=np.float64)
            for row, row_masks in zip(out, masks):
                mask = row_masks[t]
                if mask is None:
                    continue
                coef = self._quantized(np.array(mask.values, dtype=np.float64))
                for shape, offset, strides in _grid_views(mask, offsets, stride, row.size):
                    acc = np.ndarray(shape, np.float64, row, offset, strides)
                    acc += self._quantized(np.ndarray(shape, np.float64, term, offset, strides) * coef)
        return out

    def _rotated(self, values: np.ndarray, r: int) -> np.ndarray:
        if values.size != self.num_slots:
            return np.concatenate((values[r:], values[:r]))
        if self._doubled[0] is not values:
            self._doubled = (values, np.concatenate((values, values)))
            self._doubled[1].flags.writeable = False
        return self._doubled[1][r : r + self.num_slots]


def _grid_views(mask: RegionMask, offsets: tuple, stride: int, width: int) -> list:
    """``(shape, byte offset, byte strides)`` of the mask's grid at every offset, in ``width`` float64 slots.

    Offsets whose grid starts before slot 0 wrap to the end of the vector and get a view of their own.
    """
    wrapped = bisect.bisect_left(offsets, -mask.start)
    strides = (8 * stride, 8 * mask.steps[0], 8 * mask.steps[1])
    groups = ((0, wrapped, width), (wrapped, len(offsets), 0))
    return [((hi - lo, *mask.shape), 8 * (offsets[lo] + mask.start + shift), strides) for lo, hi, shift in groups if lo < hi]
