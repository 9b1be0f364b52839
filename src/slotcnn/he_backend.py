"""Exact slot-level simulator of a leveled SIMD ciphertext.

The simulator models the three properties the layer schedules care about:

* a fixed-width vector of real-valued slots operated on element-wise,
* cyclic rotation of that vector,
* a multiplicative level budget that every multiplication consumes.

Slot arithmetic is plain 64-bit floating point, so results are exactly
reproducible.  The only modeled approximation is an optional fixed-point
quantization (round to ``scale_bits`` fractional bits, ties to even) applied
at encode time and after every multiplication.  There is no noise model
beyond that and no actual encryption.

Every operation of :class:`Backend` runs in two steps: shared bookkeeping
(width and level checks, the :class:`OpCounter` record, the result level),
then a value hook that computes the result's slots.  The op ledger does not
depend on slot values, so :class:`CountingBackend` overrides only the value
hooks: every ciphertext and plaintext it returns shares one read-only zero
vector of ``num_slots`` slots (or of the operand's width, for hand-built
vectors of another width).  It raises the same errors, records the same
ledger in the same order and reaches the same levels as :class:`Backend`,
without the slot arithmetic or quantization, so it prices a schedule
(``slotcnn bench``) at a fraction of the cost of running it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LevelExhausted, OversizedInput, SlotMismatch

__all__ = [
    "HEParams",
    "PlainVector",
    "CipherVector",
    "OpCounter",
    "Backend",
    "CountingBackend",
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

    _ATTRS = {"rotation": "rotations", "pt_mult": "pt_mults", "ct_mult": "ct_mults", "add": "adds"}

    def record(self, kind: str, level: int, count: int = 1) -> None:
        setattr(self, self._ATTRS[kind], getattr(self, self._ATTRS[kind]) + count)
        key = (kind, level)
        self.by_level[key] = self.by_level.get(key, 0) + count

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

    All value semantics are pure functions of the operands; the embedded
    :class:`OpCounter` is the only mutable state, so one backend instance
    must not be shared between concurrent inferences.
    """

    def __init__(self, params: HEParams):
        self.params = params
        self.counter = OpCounter()
        self._scale = float(2**params.scale_bits)

    # -- encoding ---------------------------------------------------------

    def encode(self, data) -> PlainVector:
        """Encode a vector of at most ``num_slots`` reals, zero-filling the rest."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise OversizedInput(f"encode expects a 1-D vector, got shape {arr.shape}")
        n = self.params.num_slots
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
        return CipherVector(self._copied(plain.values), self.params.depth)

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
        self._check_width(a, b)
        level = a.level if isinstance(b, PlainVector) else min(a.level, b.level)
        self.counter.record("add", level)
        return CipherVector(self._sum(a.values, b.values), level)

    def mul_plain(self, cipher: CipherVector, plain: PlainVector) -> CipherVector:
        """Slot-wise ciphertext-plaintext product; consumes one level."""
        if cipher.level < 1:
            raise LevelExhausted("ciphertext has no multiplication budget left")
        self._check_width(cipher, plain)
        self.counter.record("pt_mult", cipher.level)
        return CipherVector(self._product(cipher.values, plain.values), cipher.level - 1)

    def mul_cipher(self, a: CipherVector, b: CipherVector) -> CipherVector:
        """Slot-wise ciphertext-ciphertext product; consumes one level."""
        level = min(a.level, b.level)
        if level < 1:
            raise LevelExhausted("ciphertext has no multiplication budget left")
        self._check_width(a, b)
        self.counter.record("ct_mult", level)
        return CipherVector(self._product(a.values, b.values), level - 1)

    def masked_sum(self, terms, coefs, support, bias) -> list:
        """Per-row masked linear combinations of ``terms``, plus a masked bias.

        ``terms`` are ciphertexts at one common level.  Returns one
        ciphertext per row ``o`` of ``coefs`` holding
        ``sum_t terms[t] * (coefs[o, t] on support) + (bias[o] on support)``
        and exact zeros off ``support``.  Values and op ledger equal those of
        the loop ``mul_plain`` / ``add`` over full-width masks that are
        ``coefs[o, t]`` on ``support`` and zero elsewhere, accumulated in term
        order with the bias added last: ``len(coefs) * len(terms)`` plaintext
        products at the terms' level and as many additions one level below.
        Only the ``support`` slots are computed, since every product is zero
        elsewhere.
        """
        level = terms[0].level
        if level < 1:
            raise LevelExhausted("ciphertext has no multiplication budget left")
        n = self.params.num_slots
        for t in terms:
            if t.values.size != n:
                raise SlotMismatch(f"operand widths differ: {t.values.size} vs {n}")
        rows, n_terms = np.shape(coefs)
        self.counter.record("pt_mult", level, rows * n_terms)
        self.counter.record("add", level - 1, rows * n_terms)
        return [CipherVector(v, level - 1) for v in self._masked_rows(terms, coefs, support, bias)]

    def rotate(self, cipher: CipherVector, r: int) -> CipherVector:
        """Cyclic left shift by ``r`` slots (negative ``r`` shifts right)."""
        r = r % self.params.num_slots
        self.counter.record("rotation", cipher.level)
        return CipherVector(self._rotated(cipher.values, r), cipher.level)

    # -- slot values: the only part CountingBackend replaces ---------------

    def _quantized(self, arr: np.ndarray) -> np.ndarray:
        """Round an owned array in place to ``scale_bits`` fractional bits when quantization is on."""
        if self.params.quantize:
            np.multiply(arr, self._scale, out=arr)
            np.rint(arr, out=arr)
            np.divide(arr, self._scale, out=arr)
        return arr

    def _copied(self, values: np.ndarray) -> np.ndarray:
        return values.copy()

    def _sum(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._quantized(a * b)

    def _masked_rows(self, terms, coefs, support, bias) -> np.ndarray:
        coefs = self._quantized(np.array(coefs, dtype=np.float64))
        bias = self._quantized(np.array(bias, dtype=np.float64))
        acc = None
        for t, term in enumerate(terms):
            prod = self._quantized(coefs[:, t, None] * term.values[support])
            acc = prod if acc is None else np.add(acc, prod, out=acc)
        acc += bias[:, None]
        out = np.zeros((len(coefs), self.params.num_slots))
        out[:, support] = acc
        return out

    def _rotated(self, values: np.ndarray, r: int) -> np.ndarray:
        return np.concatenate((values[r:], values[:r]))


class CountingBackend(Backend):
    """A :class:`Backend` that keeps the checks, levels and op ledger but no values.

    Every ciphertext and plaintext it returns holds the shared read-only
    zero vector of its width, which is ``num_slots`` for anything the layer
    schedules build, so running a schedule on it costs only the
    bookkeeping.  Use it to read a schedule's ledger, never its outputs.
    """

    def __init__(self, params: HEParams):
        super().__init__(params)
        self._zero_vectors = {}

    def _zeros_like(self, values: np.ndarray, *_) -> np.ndarray:
        zeros = self._zero_vectors.get(values.size)
        if zeros is None:
            zeros = self._zero_vectors[values.size] = np.zeros(values.size)
            zeros.flags.writeable = False
        return zeros

    _quantized = _copied = _sum = _product = _rotated = _zeros_like

    def _masked_rows(self, terms, coefs, support, bias):
        return [self._zeros_like(terms[0].values)] * len(coefs)
