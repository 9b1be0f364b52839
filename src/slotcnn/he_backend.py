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

Every plaintext product follows one masking rule, in :meth:`Backend.mul_plain`,
:meth:`Backend.masked_sum`, :meth:`Backend.diagonal_sum` and
:meth:`Backend.gather` alike: a product is formed only on a slot where its mask
is nonzero and added to +0.0, and every other slot is an exact +0.0, whatever
the ciphertext holds there.  So no value of one sample reaches another sample's
slots through a zero mask slot, however large it grows.

A :class:`CipherVector` is a stack of ciphertexts, one row of slots each, at
one level; a model's channels travel as one stack.  A full-width stack stores
every slot, and its rotation is a read-only view of one doubled copy of it,
shared by consecutive rotations of that stack (the simulator's hoisted
rotations).  A compact stack stores only its live slots, every other slot being
+0.0.  One operation makes one: :meth:`Backend.masked_sum` (convolution) of
more than one row formed on fewer than ``_COMPACT_SHARE`` of the slots.  Its
rotations only move the slot indices, a ``mul_cipher`` of two stacks on the
same slots and a sum of compact stacks of more than one row each stay compact,
and every other result is full-width, so compact storage never changes a
decrypted byte.  Slot values are never written after they are made, and
:meth:`Backend.decrypt` writes every NaN as one quiet NaN, whichever NaN
operand numpy's kernels kept.

Both sums and :meth:`Backend.gather` take their input stack and make its
rotations themselves, through :meth:`Backend.rotate` on a stack with no
columns, so the ledger sees every rotation and no rotated copy is made.
:meth:`Backend.masked_sum` reads each of convolution's taps straight from the
input on the support slots and sums the products in one ``np.einsum`` call.
:meth:`Backend.diagonal_sum` sums the fully connected layer's products in one
call per block of terms over their runs, reading the input's slots once, since
every rotation only moves those same slots onto its run.  That is exact where
einsum without ``optimize`` adds the terms in order from +0.0 with no fused
multiply-add, as numpy's x86-64 wheels do.  :func:`exact_einsum` checks that
once per process; where it fails, both sums take their per-term loop, the one
fixed-point runs take, to the same bytes.

Every operation of :class:`Backend` runs once per stack: it checks widths and
levels, records one op per row in the :class:`OpCounter`'s ``(kind, level)``
histogram, the op ledger's one stored form, and then computes the result's
slots.  The op ledger does not depend on slot values, so pricing a schedule
needs no run: each layer class in :mod:`slotcnn.layers` states its ledger in
closed form, and :func:`slotcnn.engine.ledger_metrics` (``slotcnn bench``)
reads those.

Every operation allocates its arrays afresh, sized to their contents.  So
that a pass reuses heap pages instead of faulting in new ones, the first
:class:`Backend` of a process allocates and frees one untouched block of
``_HEAP_RESERVE`` (8 MiB).  glibc frees an mmapped block by raising its mmap
threshold to the block's size, up to its cap of 32 MiB, and its trim
threshold to twice that.  Every array of a pass, at most about 2 MiB at the
default parameters, then comes from a heap whose top is not trimmed between
passes: a full-capacity M4 + M5 pass faulted in about 1070 pages before the
reserve and none after, and the dense built-ins stayed at none.  The price
is that the process keeps up to twice the reserve of freed heap instead of
returning it to the OS.  Under another C library the untouched block costs
nothing.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import LevelExhausted, OversizedInput, SlotMismatch

__all__ = [
    "HEParams",
    "PlainVector",
    "CipherVector",
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
_GATHER_BYTES = 1 << 19  # about the most bytes of term slots diagonal_sum gathers for one contraction, kept in cache
# The block the first Backend of a process allocates and frees untouched, raising glibc's mmap threshold to its size
# (glibc's cap is 32 MiB) and its trim threshold to twice that, so the process keeps up to 16 MiB of freed heap.  The
# largest arrays of a pass at the default parameters are about 2 MiB: M5's doubled (16, 16384) copy and its
# (256, 1008) conv gather.  Median minor page faults per full-capacity M4 + M5 pass in one process: 1620 with no
# reserve, 1072 with a 2 MiB request in every diagonal_sum call instead, 0 with a 4 or 8 MiB reserve.  8 MiB keeps
# a doubled copy of 16 rows below the threshold at twice the default slot count too.
_HEAP_RESERVE = 1 << 23
# A masked sum (convolution) of two or more rows formed on fewer than this share of the slots returns a compact
# stack, the only operation that makes one.  At 8192 slots that takes M1's conv (810 slots) and the convs after
# M2's, M4's and M5's first pooling (7-1008 slots), and leaves the first convs of M2-M5 (4732-6300 slots), M6's
# conv (1225) and M7's (2048-4096) full-width.  In per-layer timings M6 ran no faster with its conv compact, and
# denser supports pay more for index work than they save.
_COMPACT_SHARE = 1 / 8
# Products that sum to +0.0 when each is rounded and added in term order from +0.0, and to something else when the
# terms are reassociated, a product is fused into its addition, or a sum starts from its first product.
_PROBES = (([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]), ([-(1 + 2.0**-29), 1 + 2.0**-30], [1.0, 1 + 2.0**-30]), ([-0.0], [1.0]))

# The one NaN that decrypt writes, x86's default quiet NaN.  Which of two NaN operands a numpy addition returns
# depends on where the pair falls in the array and on the SIMD kernels numpy dispatches to.
_NAN = np.array(0xFFF8_0000_0000_0000, np.uint64).view(np.float64)


@functools.cache
def _reserve_heap() -> None:
    """Allocate and free one untouched ``_HEAP_RESERVE``-byte block, once per process; under another C library a no-op in effect."""
    np.empty(_HEAP_RESERVE, np.uint8)


@functools.cache
def exact_einsum() -> bool:
    """Whether ``np.einsum`` without ``optimize`` sums as :meth:`Backend.masked_sum` and :meth:`Backend.diagonal_sum` need.

    Checked once per process, on both contractions in the layouts they use: every product rounded and added in term
    order from +0.0, with no fused multiply-add.  Where it does not, both sums take their per-term loop instead.
    """
    for values, coefs in _PROBES:
        terms = np.repeat(np.array(values)[:, None], 37, axis=1)  # enough slots for numpy's vector loops and their tails
        coefs = np.array(coefs)[:, None]
        flat = np.einsum("to,ts->os", coefs, terms, optimize=False)
        part = np.zeros((3, 40))[:, 2:39]  # rows of a wider accumulator, carried in through row 0 as diagonal_sum does
        rows = np.concatenate((np.ones((1, 37)), np.repeat(coefs, 37, axis=1)))
        np.einsum("ts,tks->ks", rows, np.concatenate((part[None], np.repeat(terms[:, None], 3, axis=1))), out=part, optimize=False)
        if any(sums.any() or np.signbit(sums).any() for sums in (flat, part)):
            return False
    return True


@dataclass(eq=False)
class PlainVector:
    """An encoded plaintext: one float64 value per slot."""

    values: np.ndarray

    def __len__(self) -> int:
        return self.values.size


@dataclass(eq=False)
class CipherVector:
    """A simulated ciphertext stack: slot values, one row per ciphertext, and the level budget the rows share.

    ``values`` is ``(rows, width)``, or ``(width,)`` for a lone ciphertext.  A full-width stack stores every
    slot.  A compact stack stores only its live columns: column ``j`` holds slot ``(slots[j] - shift) %
    num_slots``, for sorted ``slots``, and every other slot of every row is +0.0; rotating it moves ``shift``
    and copies nothing.  Only :meth:`Backend.masked_sum` makes one; its rotations, a same-slot ``mul_cipher``
    and sums of such stacks keep one.  Indexing and iteration go over the rows, which keep the stack's slots.
    """

    values: np.ndarray
    level: int
    slots: object = None
    shift: int = 0

    def __getitem__(self, index) -> "CipherVector":
        return CipherVector(self.values[index], self.level, self.slots, self.shift)

    def __iter__(self):
        return (self[i] for i in range(len(self.values)))


def _rows(cipher) -> int:
    """The number of ciphertexts in a stack."""
    shape = cipher.values.shape
    return shape[0] if len(shape) == 2 else math.prod(shape[:-1])


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

    def snapshot(self) -> dict:
        return dict(self.by_level)


def diff_snapshots(before: dict, after: dict) -> dict:
    """The histogram of the ops recorded between two snapshots, in ``after``'s key order."""
    return {key: count - before.get(key, 0) for key, count in after.items() if count != before.get(key, 0)}


class Backend:
    """Executes slot operations on ciphertext stacks for one inference and counts them.

    Every operation acts on a whole stack at once and records one op per row.  All value semantics are pure
    functions of the operands; the counter and the cached doubled copy of the last vector rotated, masked-summed
    or spread out are the only mutable state, so one backend must not be shared between concurrent inferences.
    """

    def __init__(self, params: HEParams):
        self.params = params
        self.num_slots = params.num_slots
        self.counter = OpCounter()
        self._scale = float(2**params.scale_bits)
        self._doubled = (None, None, None)  # the values and slots last doubled, held so their ids stay unique, and the copy
        _reserve_heap()

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

    def encrypt(self, plain) -> CipherVector:
        """Turn a plaintext, or a list of plaintexts (the rows of a stack), into a fresh ciphertext at the full level budget."""
        values = np.stack([p.values for p in plain]) if isinstance(plain, (list, tuple)) else plain.values.copy()
        return CipherVector(values, self.params.depth)

    def decrypt(self, cipher: CipherVector) -> np.ndarray:
        """Every slot of every row: ``(rows, num_slots)``, or ``(num_slots,)`` for a lone ciphertext, each NaN as ``_NAN``."""
        out = self._dense(cipher).copy()
        np.copyto(out, _NAN, where=np.isnan(out))
        return out

    # -- arithmetic -------------------------------------------------------

    def _width(self, x) -> int:
        return self.num_slots if getattr(x, "slots", None) is not None else x.values.shape[-1]

    def _check_width(self, a, b) -> None:
        if self._width(a) != self._width(b):
            raise SlotMismatch(f"operand widths differ: {self._width(a)} vs {self._width(b)}")
        if isinstance(b, CipherVector) and a.values.shape[:-1] != b.values.shape[:-1]:
            raise SlotMismatch(f"operand stacks differ: {a.values.shape[:-1]} vs {b.values.shape[:-1]} rows")

    def add(self, a: CipherVector, b) -> CipherVector:
        """Slot-wise sum; free of level cost.

        ``b`` may be another ciphertext (result level is the minimum of the
        two) or a plaintext (result keeps ``a``'s level).
        """
        return self.sum((a, b))

    def mul_plain(self, cipher: CipherVector, plain: PlainVector) -> CipherVector:
        """Slot-wise ciphertext-plaintext product; consumes one level.

        The product is formed only on the plaintext's nonzero slots and added to +0.0; every other slot is an exact
        +0.0, whatever the ciphertext holds there.  The result is always full-width, whatever the form of ``cipher``.
        """
        if cipher.level < 1:
            raise LevelExhausted("ciphertext has no multiplication budget left")
        self._check_width(cipher, plain)
        self.counter.record("pt_mult", cipher.level, _rows(cipher))
        # Where the plaintext is zero, a finite slot's product is a zero that the +0.0 below makes +0.0
        values = self._quantized(self._dense(cipher) * plain.values)
        if np.isnan(values).any():  # and a slot that is not finite gives NaN there
            values[..., plain.values == 0] = 0.0
        values += 0.0
        return CipherVector(values, cipher.level - 1)

    def mul_cipher(self, a: CipherVector, b: CipherVector) -> CipherVector:
        """Slot-wise ciphertext-ciphertext product; consumes one level.  Compact only for two stacks on the same slots."""
        level = min(a.level, b.level)
        if level < 1:
            raise LevelExhausted("ciphertext has no multiplication budget left")
        self._check_width(a, b)
        self.counter.record("ct_mult", level, _rows(a))
        if a.slots is not None and a.slots is b.slots and a.shift == b.shift:
            return CipherVector(self._quantized(a.values * b.values), level - 1, a.slots, a.shift)
        return CipherVector(self._quantized(self._dense(a) * self._dense(b)), level - 1)

    def masked_sum(self, cipher: CipherVector, shifts, coefs, support, bias=None) -> CipherVector:
        """Masked linear combinations of the rotations of one stack, one result row per mask row.

        Term ``t`` is ``cipher`` rotated left by ``shifts[t]``.  ``support`` is
        a flat array of slot indices shared by all masks and ``coefs[o]`` holds
        a scalar per term row, in row-major order over (row of the stack,
        term): result row ``o`` is ``sum_r,t term[t][r] * coefs[o, r *
        len(shifts) + t]``, plus ``bias[o]`` when ``bias`` is given.  As in
        :meth:`mul_plain`, products are formed only on the mask slots, every
        other slot is an exact +0.0 whatever the stack holds there.  A result
        of more than one row on few slots is compact, the one way a compact
        stack is made.

        Values and ledger are those of the ``rotate`` / ``mul_plain`` / ``add``
        loop over full-width masks, summed in the order above from +0.0 with
        the bias last, in one contraction, and the records keep that loop's
        key order.  The rotations go through :meth:`rotate` and copy nothing;
        each term is read straight from ``cipher`` on the mask slots.  Every
        refusal comes before any record.
        """
        if not isinstance(coefs, np.ndarray) and len(set(map(len, coefs))) > 1:  # an array has equal rows
            raise ValueError(f"masked_sum needs one mask per term in every row, got rows of {list(map(len, coefs))}")
        rows, outs, count, n = _rows(cipher), len(coefs), len(shifts), self.num_slots
        coefs = np.asarray(coefs, dtype=np.float64)
        if coefs.ndim != 2 or not coefs.size or coefs.shape[1] != rows * count:
            raise ValueError(f"masked_sum needs one or more rows of a coefficient per term row, got {coefs.shape} for {count} terms of {rows} rows")
        self._check_spendable(cipher)
        shifts = self._rotations(cipher, shifts)
        level = cipher.level
        self.counter.record("pt_mult", level, outs * rows * count)
        adds = outs * (rows * count - (bias is None))
        if adds:
            self.counter.record("add", level - 1, adds)
        slots = np.asarray(support)
        if np.any(slots[1:] <= slots[:-1]):
            slots = np.unique(slots)
        # Term t's slot j is the input's slot j + shifts[t] of one doubled copy, made first so that the copy it
        # replaces is freed before the terms are gathered: in the other order an M5 pass peaked 2 MB higher.
        doubled = self._twice(cipher.values).reshape(rows, 2 * n) if cipher.slots is None else None
        gathered = np.zeros((rows * count, max(slots.size, 2)))  # a pad column keeps einsum's term axis outermost
        if doubled is not None:
            at = np.add.outer(shifts, slots)
            for row, dest in zip(doubled, gathered.reshape(rows, count, -1)):
                row.take(at, out=dest[:, : slots.size], mode="clip")
        else:
            for t, s in enumerate(shifts):
                self._take(CipherVector(cipher.values, level, cipher.slots, cipher.shift + s), slots, gathered[t::count, : slots.size])
        coefs = self._quantized(coefs.T.copy())
        if self.params.quantize or not exact_einsum():  # one rounded product at a time
            acc = np.zeros((outs, slots.size))
            for c, row in zip(coefs, gathered):
                acc += self._quantized(c[:, None] * row[: slots.size])
        else:
            acc = np.einsum("to,ts->os", coefs, gathered, optimize=False)[:, : slots.size]
        if bias is not None:
            acc += self._quantized(np.array(bias, dtype=np.float64))[:, None]
        if outs > 1 and slots.size < _COMPACT_SHARE * n:
            return CipherVector(acc, level - 1, slots)
        out = np.zeros((outs, n))
        out[:, slots] = acc
        return CipherVector(out, level - 1)

    def diagonal_sum(self, cipher: CipherVector, diag: np.ndarray, offsets: tuple) -> CipherVector:
        """The front and wrap rows of the diagonal method's masked products on the rotations of one ciphertext.

        Rotation ``t`` of ``cipher``, for ``t`` below ``count = len(diag)``, is read only on its run of ``d =
        diag.shape[1]`` slots from ``t`` slots before each batch offset, times ``diag[t]``; slots at or after an offset
        form the front row, those before it the wrap row.  Values and ledger are those of the ``rotate`` /
        ``mul_plain`` / ``add`` loop with those runs as full-width masks, every other slot an exact zero: the ``count -
        1`` rotations go through :meth:`rotate`, and the records keep the loop's key order.  Rotation ``t`` only moves
        ``cipher``'s slots ``[off, off + d)`` onto its run, so those slots are read once per call, not once per
        rotation.  ``diag`` is quantized a block of rows at a time, so a caller may keep one unquantized copy.  The
        gather buffer holds about ``_GATHER_BYTES`` at most and is sized to its contents, like every other array of
        a pass; the heap reserve keeps all of them from faulting in new pages.
        Offsets are evenly spaced, ``max(d, count - 1)`` or more apart and from the end of the vector; ``cipher``
        holds one ciphertext, and the two full-width rows are shaped like it.  Every refusal comes before any record.
        """
        (count, width), n, wide = diag.shape, self.num_slots, len(offsets)
        reach, stride = max(width, count - 1), (offsets[1:2] or (n,))[0] - offsets[0]  # a lone offset: room to the end
        if stride < reach or offsets != tuple(range(offsets[0], offsets[-1] + 1, stride)) or offsets[0] < 0 or offsets[-1] + reach > n:
            raise ValueError(f"diagonal_sum needs offsets evenly spaced at least {reach} apart, got {offsets}")
        self._check_spendable(cipher)
        if _rows(cipher) != 1:
            raise ValueError(f"diagonal_sum needs one ciphertext, got a stack of {_rows(cipher)}")
        self.counter.record("pt_mult", cipher.level, 2 * count)
        self._rotations(cipher, range(1, count))
        if count > 1:
            self.counter.record("add", cipher.level - 1, 2 * (count - 1))

        block = max(2, min(count, _GATHER_BYTES // (8 * wide * width)))  # terms per contraction
        span, origin = width + block - 1, -(-count // block) * block - 1  # acc column origin + s: slot s after each offset
        acc, coefs, gathered = np.zeros((wide, origin + width)), np.zeros((block + 1, span)), np.zeros((block + 1, wide, span))
        coefs[0] = 1.0  # row 0 carries the sums so far through each contraction

        def per_offset(a, d):  # ``d`` slots from each offset of the flat buffer ``a``, a row per offset
            return np.ndarray((wide, d), np.float64, a, 8 * offsets[0], (8 * stride, 8))

        def skewed(a):  # row 1 + i of ``a`` from column block - 1 - i on: term i of a block, so one slot's products share a column
            return np.ndarray((block, *a.shape[1:-1], width), np.float64, a, a.strides[0] + 8 * (block - 1), (a.strides[0] - 8, *a.strides[1:]))

        skewed(gathered)[...] = per_offset(np.ascontiguousarray(self._dense(cipher)).reshape(n), width)
        rows, exact = skewed(coefs), not self.params.quantize and exact_einsum()
        for first in range(0, count, block):
            terms = min(block, count - first)
            rows[:terms] = diag[first : first + terms]
            self._quantized(coefs[1 : terms + 1])
            part = acc[:, origin - first - block + 1 :][:, :span]
            if exact:
                gathered[0] = part
                np.einsum("ts,tks->ks", coefs[: terms + 1], gathered[: terms + 1], out=part, optimize=False)
            else:  # one rounded product at a time
                for c, g in zip(coefs[1 : terms + 1], gathered[1 : terms + 1]):
                    part += self._quantized(c * g)
        out, wrap = np.zeros((2, n)), np.zeros(n)  # the wrap row with slot s at s + count - 1, so no run crosses the end
        per_offset(out, width)[...] = acc[:, origin:]
        per_offset(wrap, count - 1)[...] = acc[:, origin - count + 1 : origin]
        out[1, : n - count + 1], out[1, n - count + 1 :] = wrap[count - 1 :], wrap[: count - 1]
        return CipherVector(out.reshape(2, *cipher.values.shape[:-1], n), cipher.level - 1)

    def gather(self, cipher: CipherVector, reads: np.ndarray, dest: np.ndarray, scales, records) -> CipherVector:
        """One full-width row: slot ``dest[r, j]`` is row ``r``'s slots ``reads[:, j]`` added in order, times each scale.

        Each of ``scales`` multiplies as :meth:`mul_plain` by a plaintext holding it: quantized and added to +0.0, or
        +0.0 where it encodes to zero.  Every other slot is +0.0, and the level drops by one per scale.  ``records``
        are the ``(kind, level, count, shifts)`` records of the loop this stands for, made in order, a rotation's
        ``count // len(shifts)`` rows through :meth:`rotate` once per shift, and no count of 0.  Level and width are
        refused before any record.
        """
        self._check_spendable(cipher, len(scales))
        for kind, level, count, shifts in records:
            if shifts:
                self._rotations(CipherVector(np.empty((count // len(shifts), 0)), level), shifts)
            elif count:
                self.counter.record(kind, level, count)
        terms = self._take(cipher, reads.reshape(-1)).reshape(_rows(cipher), *reads.shape)
        acc = functools.reduce(np.add, terms.swapaxes(0, 1))  # in term order from the first
        for scale in self._quantized(np.array(scales, dtype=np.float64)):
            acc = self._quantized(acc * scale) + 0.0 if scale else np.zeros_like(acc)
        out = np.zeros((1, self.num_slots))
        out[0, dest] = acc
        return CipherVector(out, cipher.level - len(scales))

    def sum(self, terms) -> CipherVector:
        """Slot-wise sum of a ciphertext and the terms after it, read once and in order.

        Values, level and ledger equal those of ``add(add(t0, t1), t2) ...``:
        each term's ``add`` is recorded before the next term is pulled.  The
        sum is compact only when every term is a compact stack of two or more
        rows, as pooling after a sparse conv sums: it then holds the union of
        their live slots.  Any other sum is full-width, and after a full-width
        first term or a lone row each term is added as it is pulled.  Every
        slot a term does not hold gets the +0.0 that a full-width term adds
        there.
        """
        terms = iter(terms)
        first = next(terms, None)
        if first is None:
            raise ValueError("sum needs at least one term")
        level, pairs, slots, columns = first.level, self._added(first, terms), None, None
        if first.slots is not None and _rows(first) > 1:
            pairs = list(pairs)
            if all(getattr(term, "slots", None) is not None for term, _ in pairs):
                columns = [self._live(term) for term in (first, *(term for term, _ in pairs))]
                covered = np.zeros(self.num_slots, bool)
                for live in columns:
                    covered[live] = True
                slots = covered.nonzero()[0]
                lookup = np.zeros(self.num_slots, np.intp)  # each term's live slots become its columns of the compact sum
                lookup[slots] = np.arange(slots.size)
                columns = [lookup[live] for live in columns]
        if slots is None:
            acc = self._dense(first).copy()
        else:
            acc = np.zeros((*first.values.shape[:-1], slots.size))
            acc.T[columns[0]] = first.values.T
        signed = None  # whether the first term holds a -0.0, which an uncovered slot's +0.0 would turn to +0.0
        for i, (term, level) in enumerate(pairs, 1):
            if getattr(term, "slots", None) is None:
                acc += term.values
            else:
                cols = self._live(term) if columns is None else columns[i]
                acc.T[cols] += term.values.T
                if signed is None:
                    signed = bool(np.any(np.signbit(first.values) & (first.values == 0)))
                if signed and cols.size < acc.shape[-1]:
                    uncovered = np.ones(acc.shape[-1], bool)
                    uncovered[cols] = False
                    acc[..., uncovered] += 0.0
        return CipherVector(acc, level, slots)

    def _added(self, first, terms):
        """Yield each term after ``first`` with the sum's level so far, once its width is checked and its add recorded."""
        level, rows = first.level, _rows(first)
        for term in terms:
            self._check_width(first, term)
            if isinstance(term, CipherVector):
                level = min(level, term.level)
            self.counter.record("add", level, rows)
            yield term, level

    def _check_spendable(self, cipher: CipherVector, levels: int = 1) -> None:
        """Refuse a stack with fewer than ``levels`` levels left, or with fewer than ``num_slots`` slots."""
        if cipher.level < levels:
            raise LevelExhausted("ciphertext has no multiplication budget left")
        if self._width(cipher) != self.num_slots:
            raise SlotMismatch(f"operand widths differ: {self._width(cipher)} vs {self.num_slots}")

    def _rotations(self, cipher: CipherVector, shifts) -> list:
        """Record the rotations of ``cipher`` by ``shifts`` through :meth:`rotate`, copying nothing; return the amounts mod ``num_slots``."""
        ghost = CipherVector(np.empty((*cipher.values.shape[:-1], 0)), cipher.level, np.empty(0, np.intp))
        return [self.rotate(ghost, s).shift for s in shifts]

    def rotate(self, cipher: CipherVector, r: int) -> CipherVector:
        """Cyclic left shift by ``r`` slots (negative ``r`` shifts right) of every row."""
        r = r % self.num_slots
        self.counter.record("rotation", cipher.level, _rows(cipher))
        if cipher.slots is not None:
            return CipherVector(cipher.values, cipher.level, cipher.slots, (cipher.shift + r) % self.num_slots)
        return CipherVector(self._rotated(cipher.values, r), cipher.level)

    # -- slot values -------------------------------------------------------

    def _live(self, cipher) -> np.ndarray:
        """The slot each column of a compact stack holds."""
        return cipher.slots if not cipher.shift else (cipher.slots - cipher.shift) % self.num_slots

    def _take(self, cipher, slots: np.ndarray, out=None) -> np.ndarray:
        """Every row's values on ``slots``, written to ``out`` when given."""
        if cipher.slots is None:
            return cipher.values.take(slots, axis=-1, out=out, mode="clip")
        if out is None:
            out = np.zeros((*cipher.values.shape[:-1], slots.size))
        if cipher.slots.size:
            stored = (slots + cipher.shift) % self.num_slots
            columns = np.minimum(np.searchsorted(cipher.slots, stored), cipher.slots.size - 1)
            out[...] = np.where(cipher.slots[columns] == stored, cipher.values[..., columns], 0.0)
        else:
            out[...] = 0.0
        return out

    def _dense(self, cipher) -> np.ndarray:
        """Every slot of a stack: its values, or a read-only spread of a compact stack's columns."""
        if cipher.slots is None:
            return cipher.values
        if self._doubled[0] is not cipher.values or self._doubled[1] is not cipher.slots:
            spread = np.zeros((*cipher.values.shape[:-1], 2 * self.num_slots))
            spread[..., cipher.slots] = spread[..., cipher.slots + self.num_slots] = cipher.values
            spread.flags.writeable = False
            self._doubled = (cipher.values, cipher.slots, spread)
        return self._doubled[2][..., cipher.shift : cipher.shift + self.num_slots]

    def _quantized(self, arr: np.ndarray) -> np.ndarray:
        """Round an owned array in place to ``scale_bits`` fractional bits when quantization is on."""
        if self.params.quantize:
            np.multiply(arr, self._scale, out=arr)
            np.rint(arr, out=arr)
            np.divide(arr, self._scale, out=arr)
        return arr

    def _rotated(self, values: np.ndarray, r: int) -> np.ndarray:
        if values.shape[-1] != self.num_slots:
            return np.concatenate((values[..., r:], values[..., :r]), axis=-1)
        return self._twice(values)[..., r : r + self.num_slots]

    def _twice(self, values: np.ndarray) -> np.ndarray:
        """A read-only copy of full-width ``values`` twice over, kept for the next rotation or masked sum of them."""
        if self._doubled[0] is not values or self._doubled[1] is not None:
            doubled = np.concatenate((values, values), axis=-1)
            doubled.flags.writeable = False
            self._doubled = (values, None, doubled)
        return self._doubled[2]
