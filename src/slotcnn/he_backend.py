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
call over the terms' gathered support slots, and :meth:`Backend.diagonal_sum`
the fully connected layer's in one call per block of terms over their runs.
That is exact where einsum without ``optimize`` adds the terms in order from
+0.0 with no fused multiply-add, as numpy's x86-64 wheels do; a numpy build
that does not fails the pinned tests and ``slotcnn verify``.

Every operation of :class:`Backend` checks widths and levels, records itself
in the :class:`OpCounter`'s ``(kind, level)`` histogram, the op ledger's one
stored form, and then computes the result's slots.  The op
ledger does not depend on slot values, so pricing a schedule needs no run:
each layer class in :mod:`slotcnn.layers` states its ledger in closed form,
and :func:`slotcnn.engine.ledger_metrics` (``slotcnn bench``) reads those.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import LevelExhausted, OversizedInput, SlotMismatch

__all__ = [
    "HEParams",
    "PlainVector",
    "CipherVector",
    "RegionMask",
    "KindTotals",
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
        for name in ("poly_degree", "depth", "scale_bits", "log_q"):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
            if isinstance(value, bool) or not integral:  # range() and bit tests would fail or mislead later
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.quantize, bool):  # any string, "no" included, would be true
            raise TypeError(f"quantize must be true or false, got {self.quantize!r}")
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
_GATHER_BYTES = 1 << 18  # about the most bytes of term slots diagonal_sum gathers for one contraction


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

    The grid holds the positions ``start + i * steps[0] + j * steps[1]``, ``i < shape[0]``
    and ``j < shape[1]``, counted from each batch offset; it lies inside the vector.
    """

    start: int
    shape: tuple
    values: object = 1.0
    steps: tuple = (0, 1)


_KINDS = {"rotation": "rotations", "pt_mult": "pt_mults", "ct_mult": "ct_mults", "add": "adds"}


class KindTotals:
    """Per-kind totals read from the ``(kind, level) -> count`` histogram ``hist``."""

    def totals(self) -> dict:
        totals = dict.fromkeys(_KINDS.values(), 0)
        for (kind, _), count in self.hist.items():
            totals[_KINDS[kind]] += count
        return totals

    rotations = property(lambda self: self.totals()["rotations"])
    pt_mults = property(lambda self: self.totals()["pt_mults"])
    ct_mults = property(lambda self: self.totals()["ct_mults"])
    adds = property(lambda self: self.totals()["adds"])


@dataclass
class OpCounter(KindTotals):
    """Write-only tally of backend operations, bucketed by level.

    ``by_level`` maps ``(kind, level)`` to a count, where ``level`` is the
    operand level at the time of the call (for rotations and additions the
    level of the result), in the order each key was first recorded.  It is
    the only stored form of the ledger; the per-kind totals are read from it.
    """

    by_level: dict = field(default_factory=dict)

    hist = property(lambda self: self.by_level)

    def record(self, kind: str, level: int, count: int = 1) -> None:
        if kind not in _KINDS:
            raise KeyError(kind)
        self.by_level[kind, level] = self.by_level.get((kind, level), 0) + count

    def discard(self, kind: str, level: int, count: int) -> None:
        """Take back ``count`` earlier records of an operation that raised part way."""
        if count > 0:
            self.record(kind, level, -count)
            if not self.by_level[kind, level]:
                del self.by_level[kind, level]

    def snapshot(self) -> dict:
        return dict(self.by_level)


def diff_snapshots(before: dict, after: dict) -> dict:
    """The histogram of the ops recorded between two snapshots, in ``after``'s key order."""
    return {key: count - before.get(key, 0) for key, count in after.items() if count != before.get(key, 0)}


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
        each of them (and no ``bias``).

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
        if not isinstance(coefs, np.ndarray) and len(set(map(len, coefs))) > 1:  # an array has equal rows
            raise ValueError(f"masked_sum needs one mask per term in every row, got rows of {list(map(len, coefs))}")
        level, checked = self._stream("masked_sum", terms, len(coefs), len(coefs[0]))
        out = self._masked_rows(checked, coefs, support, bias)
        if bias is not None:
            self.counter.record("add", level - 1, len(coefs))
        return [CipherVector(v, level - 1) for v in out]

    def diagonal_sum(self, terms, diag: np.ndarray, offsets: tuple) -> list:
        """The front and wrap rows of the diagonal method's masked products over a stream of ciphertexts.

        Term ``t`` is read only on its run of ``d = diag.shape[1]`` slots from ``t`` slots before each batch offset,
        times ``diag[t]``; slots at or after an offset form the front row, those before it the wrap row.  Values,
        ledger and stream are ``masked_sum``'s with those runs as full-width masks, every other slot an exact zero.
        Offsets are evenly spaced, ``max(d, len(diag) - 1)`` or more apart and from the end of the vector.
        """
        (count, width), n, wide = diag.shape, self.num_slots, len(offsets)
        reach, stride = max(width, count - 1), (offsets[1:2] or (n,))[0] - offsets[0]  # a lone offset: room to the end
        if stride < reach or offsets != tuple(range(offsets[0], offsets[-1] + 1, stride)) or offsets[0] < 0 or offsets[-1] + reach > n:
            raise ValueError(f"diagonal_sum needs offsets evenly spaced at least {reach} apart, got {offsets}")
        level, checked = self._stream("diagonal_sum", terms, 2, count)
        block = max(2, min(count, _GATHER_BYTES // (8 * wide * width)))  # terms per contraction
        span, origin = width + block - 1, -(-count // block) * block - 1  # acc column origin + s: slot s after each offset
        acc, coefs, gathered = np.zeros((wide, origin + width)), np.zeros((block + 1, span)), np.zeros((block + 1, wide, span))
        coefs[0] = 1.0  # row 0 carries the sums so far through each contraction
        for t, term in enumerate(checked):
            term, b, start = np.ascontiguousarray(term, dtype=np.float64), t % block, offsets[0] - t
            # The block's term i goes to row 1 + i, i columns left of its first term, so one slot's products share a column.
            coefs[1 + b, block - 1 - b :][:width] = diag[t]
            run = gathered[1 + b, :, block - 1 - b :][:, :width]
            cut = min(max(-start, 0), width)  # the first run's slots before slot 0 are the last ones
            run[0, :cut], run[0, cut:] = term[n + start : n + start + cut], term[start + cut : start + width]
            run[1:] = np.ndarray((wide - 1, width), np.float64, term, 8 * (start + stride), (8 * stride, 8))
            if b == block - 1 or t == count - 1:
                self._quantized(coefs[1 : b + 2])
                part = acc[:, origin - t + b - block + 1 :][:, :span]
                if self.params.quantize:  # every product is rounded, so one term at a time
                    for c, g in zip(coefs[1 : b + 2], gathered[1 : b + 2]):
                        part += self._quantized(c * g)
                else:
                    gathered[0] = part
                    np.einsum("ts,tks->ks", coefs[: b + 2], gathered[: b + 2], out=part, optimize=False)
        out = np.zeros((2, n))
        out[0, np.add.outer(offsets, np.arange(width))] = acc[:, origin:]
        out[1, np.add.outer(offsets, np.arange(1 - count, 0))] = acc[:, origin - count + 1 : origin]
        return [CipherVector(row, level - 1) for row in out]

    def _stream(self, name: str, terms, rows: int, count: int):
        """The level and a stream of ``count`` checked terms recording ``rows`` products and sums each; errors name ``name``."""
        terms = iter(terms)
        first = next(terms, None)
        if first is None:
            raise ValueError(f"{name} needs at least one term")
        if first.level < 1:
            raise LevelExhausted("ciphertext has no multiplication budget left")
        return first.level, self._checked(name, itertools.chain([first], terms), first.level, rows, count)

    def _checked(self, name: str, terms, level: int, rows: int, count: int):
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
                raise ValueError(f"{name} needs {count} terms, got {'more' if term is not None else t}")
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
            for row, mask in zip(out, [row_masks[t] for row_masks in masks]):
                coef = self._quantized(np.array(mask.values, dtype=np.float64))
                grid = (len(offsets), *mask.shape), np.float64
                at = 8 * (offsets[0] + mask.start), (8 * stride, 8 * mask.steps[0], 8 * mask.steps[1])
                acc = np.ndarray(*grid, row, *at)
                acc += self._quantized(np.ndarray(*grid, term, *at) * coef)
        return out

    def _rotated(self, values: np.ndarray, r: int) -> np.ndarray:
        if values.size != self.num_slots:
            return np.concatenate((values[r:], values[:r]))
        if self._doubled[0] is not values:
            self._doubled = (values, np.concatenate((values, values)))
            self._doubled[1].flags.writeable = False
        return self._doubled[1][r : r + self.num_slots]
