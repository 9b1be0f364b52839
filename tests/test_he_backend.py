"""Slot simulator: encoding, arithmetic, levels, rotation, counters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import loop_masked_sum

from slotcnn import Backend, CipherVector, DEFAULT_PARAMS, HEParams, OpCounter, PlainVector
from slotcnn.errors import LevelExhausted, OversizedInput, SlotMismatch
from slotcnn import he_backend
from slotcnn.he_backend import diff_snapshots, lattice_slots

P8 = HEParams(poly_degree=16, depth=5)  # 8 slots
P4 = HEParams(poly_degree=8, depth=3)  # 4 slots


class TestParams:
    def test_defaults(self):
        assert DEFAULT_PARAMS.poly_degree == 16384
        assert DEFAULT_PARAMS.num_slots == 8192
        assert DEFAULT_PARAMS.depth == 11
        assert DEFAULT_PARAMS.scale_bits == 32
        assert DEFAULT_PARAMS.quantize is False
        assert DEFAULT_PARAMS.log_q == 432

    @pytest.mark.parametrize("bad", [3, 0, 6, 1000])
    def test_poly_degree_power_of_two(self, bad):
        with pytest.raises(ValueError):
            HEParams(poly_degree=bad)

    def test_depth_and_scale_bounds(self):
        with pytest.raises(ValueError):
            HEParams(depth=0)
        with pytest.raises(ValueError):
            HEParams(scale_bits=0)
        with pytest.raises(ValueError):
            HEParams(log_q=0)

    def test_dict_round_trip(self):
        p = HEParams(poly_degree=4096, depth=9, scale_bits=20, quantize=True, log_q=100)
        assert HEParams.from_dict(p.to_dict()) == p

    def test_from_dict_ignores_extras(self):
        p = HEParams.from_dict({"poly_degree": 64, "num_slots": 9999, "comment": "x"})
        assert p.poly_degree == 64 and p.num_slots == 32

    @pytest.mark.parametrize("field", ["poly_degree", "depth", "scale_bits", "log_q"])
    @pytest.mark.parametrize("value", [True, 11.5, "16", None])
    def test_integer_fields_refuse_other_types(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            HEParams(**{field: value})

    def test_integral_numbers_become_ints(self):
        p = HEParams(poly_degree=64.0, depth=np.int64(4))
        assert (p.poly_degree, p.depth) == (64, 4) and type(p.poly_degree) is int and type(p.depth) is int

    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_quantize_must_be_a_bool(self, value):
        with pytest.raises(TypeError, match="quantize"):
            HEParams(quantize=value)


class TestEncode:
    def test_zero_fill(self):
        be = Backend(P8)
        out = be.encode([1, 2, 3]).values
        assert np.array_equal(out, [1, 2, 3, 0, 0, 0, 0, 0])

    def test_empty_is_all_zero(self):
        be = Backend(P8)
        assert np.array_equal(be.encode([]).values, np.zeros(8))

    def test_scalar_becomes_slot0(self):
        be = Backend(P8)
        assert np.array_equal(be.encode(2.5).values, [2.5, 0, 0, 0, 0, 0, 0, 0])

    def test_quantize_rounding(self):
        be = Backend(HEParams(poly_degree=16, depth=2, scale_bits=4, quantize=True))
        assert be.encode([0.1]).values[0] == 0.125

    def test_oversize_rejected(self):
        be = Backend(P8)
        with pytest.raises(OversizedInput):
            be.encode(np.zeros(9))

    def test_non_vector_rejected(self):
        be = Backend(P8)
        with pytest.raises(OversizedInput):
            be.encode(np.zeros((2, 2)))

    def test_quantize_round_trip_bound(self):
        rng = np.random.default_rng(3)
        for bits in (4, 8, 16):
            be = Backend(HEParams(poly_degree=64, depth=2, scale_bits=bits, quantize=True))
            x = rng.uniform(-1, 1, 32)
            got = be.decrypt(be.encrypt(be.encode(x)))[:32]
            assert np.max(np.abs(got - x)) <= 2.0 ** (-bits - 1)


class TestEncryptDecrypt:
    def test_fresh_level_is_depth(self):
        be = Backend(HEParams(poly_degree=16, depth=11))
        assert be.encrypt(be.encode([1])).level == 11

    def test_zero_ciphertext(self):
        be = Backend(P8)
        ct = be.encrypt(be.encode(np.zeros(8)))
        assert ct.level == P8.depth
        assert np.array_equal(be.decrypt(ct), np.zeros(8))

    def test_deterministic(self):
        be = Backend(P8)
        p = be.encode([1.5, -2.25])
        assert np.array_equal(be.encrypt(p).values, be.encrypt(p).values)

    def test_round_trip_exact(self):
        be = Backend(P8)
        x = np.array([0.1, -3.7, 2.5])
        got = be.decrypt(be.encrypt(be.encode(x)))
        assert np.array_equal(got, np.concatenate([x, np.zeros(5)]))

    def test_encrypt_copies(self):
        be = Backend(P8)
        p = be.encode([1.0])
        ct = be.encrypt(p)
        p.values[0] = 99.0
        assert ct.values[0] == 1.0


class TestAdd:
    def test_values(self):
        be = Backend(P4)
        a = be.encrypt(be.encode([1, 2]))
        b = be.encrypt(be.encode([3, 4]))
        assert np.array_equal(be.decrypt(be.add(a, b))[:2], [4, 6])

    def test_zero_plain_identity(self):
        be = Backend(P4)
        a = be.encrypt(be.encode([1.5, 2.5]))
        out = be.add(a, be.encode([]))
        assert np.array_equal(out.values, a.values)
        assert out.level == a.level

    def test_cipher_level_is_min(self):
        be = Backend(HEParams(poly_degree=8, depth=5))
        a = be.encrypt(be.encode([1]))
        b = be.encrypt(be.encode([1]))
        ones = be.encode(np.ones(4))
        b = be.mul_plain(be.mul_plain(b, ones), ones)  # level 3
        assert be.add(a, b).level == 3

    def test_plain_keeps_cipher_level(self):
        be = Backend(P4)
        a = be.encrypt(be.encode([1]))
        assert be.add(a, be.encode([7])).level == a.level

    def test_width_mismatch(self):
        be = Backend(P4)
        a = be.encrypt(be.encode([1]))
        with pytest.raises(SlotMismatch):
            be.add(a, PlainVector(np.zeros(8)))


class TestMulPlain:
    def test_values_and_level(self):
        be = Backend(P4)
        c = be.encrypt(be.encode([2, 3]))
        out = be.mul_plain(c, be.encode([4, 0]))
        assert np.array_equal(be.decrypt(out)[:2], [8, 0])
        assert out.level == c.level - 1

    def test_all_ones_preserves_values(self):
        be = Backend(P4)
        c = be.encrypt(be.encode([1.1, -2.2, 3.3, 4.4]))
        out = be.mul_plain(c, be.encode(np.ones(4)))
        assert np.array_equal(out.values, c.values)
        assert out.level == c.level - 1

    def test_exhaustion(self):
        be = Backend(HEParams(poly_degree=8, depth=1))
        c = be.encrypt(be.encode([1]))
        ones = be.encode(np.ones(4))
        c = be.mul_plain(c, ones)
        assert c.level == 0
        with pytest.raises(LevelExhausted):
            be.mul_plain(c, ones)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 3), n_nonzero=st.integers(0, 32), n_live=st.integers(0, 32),
           seed=st.integers(0, 2**32 - 1), quantize=st.booleans())
    def test_products_only_on_nonzero_plaintext_slots(self, data, rows, n_nonzero, n_live, seed, quantize):
        """A product is formed on each nonzero plaintext slot and added to +0.0; every other slot is +0.0, whatever the ciphertext holds."""
        params = HEParams(poly_degree=64, depth=3, scale_bits=8, quantize=quantize)
        rng = np.random.default_rng(seed)
        specials = st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e-200, -1e200, np.inf, -np.inf, np.nan])
        live = np.sort(rng.choice(32, n_live, replace=False))
        values = np.array(data.draw(st.lists(specials, min_size=rows * n_live, max_size=rows * n_live))).reshape(rows, n_live)
        plain = np.full(32, data.draw(st.sampled_from([0.0, -0.0])))
        nonzero_values = st.lists(specials.filter(bool), min_size=n_nonzero, max_size=n_nonzero)
        plain[rng.choice(32, n_nonzero, replace=False)] = data.draw(nonzero_values)
        be = Backend(params)
        ct = CipherVector(values, 3, live)
        if data.draw(st.booleans()):
            ct = CipherVector(be.decrypt(ct), 3)
        plain = be.encode(plain)
        with np.errstate(all="ignore"):
            out = be.mul_plain(ct, plain)
            nonzero = plain.values != 0
            want = np.zeros((rows, 32))
            want[:, nonzero] = be._quantized(be.decrypt(ct)[:, nonzero] * plain.values[nonzero]) + 0.0
        want[np.isnan(want)] = np.array(0xFFF8_0000_0000_0000, np.uint64).view(np.float64)  # the one NaN decrypt writes
        assert be.decrypt(out).tobytes() == want.tobytes() and out.level == 2
        assert out.slots is None and out.values.shape == (rows, 32) and be.counter.by_level == {("pt_mult", 3): rows}


class TestMulCipher:
    def test_square(self):
        be = Backend(P4)
        c = be.encrypt(be.encode([3]))
        assert be.decrypt(be.mul_cipher(c, c))[0] == 9

    def test_zero_annihilates(self):
        be = Backend(P4)
        a = be.encrypt(be.encode([5, 6, 7, 8]))
        z = be.encrypt(be.encode(np.zeros(4)))
        assert np.array_equal(be.decrypt(be.mul_cipher(a, z)), np.zeros(4))

    def test_level_is_min_minus_one(self):
        be = Backend(HEParams(poly_degree=8, depth=2))
        a = be.encrypt(be.encode([1]))
        b = be.mul_plain(be.encrypt(be.encode([1])), be.encode(np.ones(4)))  # level 1
        assert be.mul_cipher(a, b).level == 0

    def test_exhaustion(self):
        be = Backend(HEParams(poly_degree=8, depth=1))
        a = be.mul_plain(be.encrypt(be.encode([1])), be.encode(np.ones(4)))
        with pytest.raises(LevelExhausted):
            be.mul_cipher(a, a)


class TestRotate:
    def test_left_by_one(self):
        be = Backend(P4)
        c = be.encrypt(be.encode([1, 2, 3, 4]))
        assert np.array_equal(be.decrypt(be.rotate(c, 1)), [2, 3, 4, 1])

    def test_zero_identity(self):
        be = Backend(P4)
        c = be.encrypt(be.encode([1, 2, 3, 4]))
        out = be.rotate(c, 0)
        assert np.array_equal(out.values, c.values)
        assert out.level == c.level

    def test_negative_is_right(self):
        be = Backend(P4)
        c = be.encrypt(be.encode([1, 2, 3, 4]))
        for k in range(1, 4):
            left = be.decrypt(be.rotate(c, 4 - k))
            right = be.decrypt(be.rotate(c, -k))
            assert np.array_equal(left, right)

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(-40, 40), b=st.integers(-40, 40))
    def test_group_law(self, a, b):
        be = Backend(HEParams(poly_degree=32, depth=2))
        c = be.encrypt(be.encode(np.arange(16.0)))
        two = be.decrypt(be.rotate(be.rotate(c, a), b))
        one = be.decrypt(be.rotate(c, a + b))
        assert np.array_equal(two, one)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(st.tuples(st.integers(0, 1), st.integers(-3 * 16, 3 * 16)), min_size=1, max_size=8),
    )
    def test_equals_np_roll(self, seed, steps):
        """Repeated rotations of one source, and rotations alternating between two sources."""
        be = Backend(HEParams(poly_degree=32, depth=2))
        xs = np.random.default_rng(seed).uniform(-4, 4, (2, 16))
        cts = [be.encrypt(be.encode(x)) for x in xs]
        for source, r in steps:
            out = be.rotate(cts[source], r)
            assert out.values.tobytes() == np.roll(xs[source], -r).tobytes()

    def test_fresh_sources_never_see_an_earlier_copy(self):
        be = Backend(P8)
        for k in range(50):
            x = np.arange(8.0) * (k + 1)
            out = be.rotate(be.encrypt(be.encode(x)), 3)
            assert np.array_equal(out.values, np.roll(x, -3))

    def test_rotated_values_are_read_only(self):
        be = Backend(P8)
        c = be.encrypt(be.encode(np.arange(8.0)))
        for r in (0, 1, 5):
            out = be.rotate(c, r)
            with pytest.raises(ValueError):
                out.values[0] = 1.0
        assert np.array_equal(c.values, np.arange(8.0))

    def test_narrower_hand_built_vector(self):
        be = Backend(P8)
        c = CipherVector(np.arange(4.0), 3)
        # r is reduced modulo the 8 slots; a shift of at least the width leaves the vector as is.
        for r, want in ((1, [1, 2, 3, 0]), (3, [3, 0, 1, 2]), (5, [0, 1, 2, 3]), (-1, [0, 1, 2, 3])):
            out = be.rotate(c, r)
            assert np.array_equal(out.values, want) and out.values.flags.writeable


class TestLevelBudget:
    def test_monotone_consumption(self):
        depth = 5
        be = Backend(HEParams(poly_degree=8, depth=depth))
        c = be.encrypt(be.encode([2.0]))
        ones = be.encode(np.ones(4))
        for k in range(1, depth + 1):
            c = be.mul_plain(c, ones)
            assert c.level == depth - k
        with pytest.raises(LevelExhausted):
            be.mul_plain(c, ones)


class TestHomomorphism:
    def test_bit_exact_against_numpy(self):
        rng = np.random.default_rng(11)
        be = Backend(HEParams(poly_degree=128, depth=4))
        x = rng.uniform(-3, 3, 64)
        y = rng.uniform(-3, 3, 64)
        cx, cy = be.encrypt(be.encode(x)), be.encrypt(be.encode(y))
        assert np.array_equal(be.decrypt(be.add(cx, cy)), x + y)
        assert np.array_equal(be.decrypt(be.mul_cipher(cx, cy)), x * y)
        assert np.array_equal(be.decrypt(be.mul_plain(cx, be.encode(y))), x * y)
        assert np.array_equal(be.decrypt(be.rotate(cx, 5)), np.roll(x, -5))


class TestQuantizationTrend:
    def test_error_non_increasing_in_scale(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 128)
        y = rng.uniform(-1, 1, 128)
        errs = []
        for bits in (8, 16, 24, 30, 32):
            be = Backend(HEParams(poly_degree=256, depth=3, scale_bits=bits, quantize=True))
            out = be.decrypt(be.mul_plain(be.encrypt(be.encode(x)), be.encode(y)))
            errs.append(float(np.max(np.abs(out - x * y))))
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < errs[0]


class TestCounter:
    def test_counts_and_histogram(self):
        be = Backend(HEParams(poly_degree=8, depth=4))
        c = be.encrypt(be.encode([1, 2]))
        ones = be.encode(np.ones(4))
        c = be.mul_plain(c, ones)  # at level 4
        c = be.rotate(c, 1)  # at level 3
        c = be.add(c, c)  # at level 3
        c = be.mul_cipher(c, c)  # at level 3
        assert be.counter.totals() == {"rotations": 1, "pt_mults": 1, "ct_mults": 1, "adds": 1}
        assert be.counter.by_level == {
            ("pt_mult", 4): 1,
            ("rotation", 3): 1,
            ("add", 3): 1,
            ("ct_mult", 3): 1,
        }

    def test_diff_snapshots(self):
        counter = OpCounter()
        before = counter.snapshot()
        counter.record("rotation", 2)
        counter.record("rotation", 2)
        counter.record("add", 1)
        hist = diff_snapshots(before, counter.snapshot())
        assert OpCounter(hist).totals() == {"rotations": 2, "pt_mults": 0, "ct_mults": 0, "adds": 1}
        assert hist == {("rotation", 2): 2, ("add", 1): 1}


def random_lattice(rng, n, axes, max_count, increasing):
    """A random slot lattice inside ``[0, n)`` with ``axes`` axes: strictly increasing when ``increasing``, else of taps."""
    while True:
        pairs, reach = [], 0
        for _ in range(axes):  # innermost first
            count = int(rng.integers(0 if increasing else 1, max_count + 1))
            stride = reach + 1 + int(rng.integers(0, 3)) if increasing else int(rng.integers(0, 8))
            pairs.insert(0, (count, stride))
            reach += max(count - 1, 0) * stride
        if reach < n:
            return int(rng.integers(0, n - reach)), tuple(pairs)


class TestMaskedSum:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tap_axes=st.integers(0, 2),
        rows=st.integers(1, 4),
        in_rows=st.integers(1, 3),
        support_axes=st.integers(1, 3),
        drops=st.integers(0, 3),
        quantize=st.booleans(),
        with_bias=st.booleans(),
    )
    def test_equals_mul_plain_add_loop(self, seed, tap_axes, rows, in_rows, support_axes, drops, quantize, with_bias):
        """Random tap and support lattices, the support empty, lone or dense among them, against the loop on flat slots."""
        params = HEParams(poly_degree=64, depth=4, scale_bits=8, quantize=quantize)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-4, 4, (in_rows, params.num_slots))
        support_lattice = random_lattice(rng, params.num_slots, support_axes, 5, True)
        taps = random_lattice(rng, params.num_slots, tap_axes, 6, False)
        support, shifts = lattice_slots(*support_lattice), lattice_slots(*taps).tolist()
        coefs = rng.uniform(-2, 2, (rows, in_rows * len(shifts)))
        bias = rng.uniform(-2, 2, rows) if with_bias else None
        results = []
        for method in (loop_masked_sum, Backend.masked_sum):
            be = Backend(params)
            ct = be.encrypt([be.encode(row) for row in x])
            ones = be.encode(np.ones(params.num_slots))
            for _ in range(drops):
                ct = be.mul_plain(ct, ones)
            if method is loop_masked_sum:
                out = method(be, [be.rotate(ct, s) for s in shifts], coefs, support, bias)
            else:
                out = method(be, ct, taps, coefs, support_lattice, bias)
            results.append((out, be.counter.snapshot()))
        (want, want_ledger), (got, got_ledger) = results
        assert got_ledger == want_ledger
        assert list(got_ledger) == list(want_ledger)
        for g, w in zip(got, want, strict=True):
            assert g.level == w.level
            assert np.array_equal(be.decrypt(g), be.decrypt(w))  # every slot, zeros compared by value
            assert be.decrypt(g)[support].tobytes() == be.decrypt(w)[support].tobytes()

    @pytest.mark.parametrize("n_terms", [4, 17, 64])
    @pytest.mark.parametrize("quantize", [False, True])
    def test_cancelling_terms_on_one_slot_sum_in_term_order(self, n_terms, quantize):
        """One result row on one slot: ``1e16 + 1 - 1e16 + 1`` is 1.0 in term order and 2.0 with partial sums.

        The terms are the rows of one stack, each rotated by 0.
        """
        params = HEParams(poly_degree=16, depth=2, scale_bits=8, quantize=quantize)
        values = np.resize([1e16, 1.0, -1e16, 1.0], n_terms)
        support = np.array([3])
        results = []
        for method in (loop_masked_sum, Backend.masked_sum):
            be = Backend(params)
            ct = be.encrypt([be.encode(np.full(params.num_slots, v)) for v in values])
            coefs = np.ones((1, n_terms))
            if method is loop_masked_sum:
                out = method(be, [be.rotate(ct, 0)], coefs, support, np.zeros(1))
            else:
                out = method(be, ct, (0, ()), coefs, (3, ()), np.zeros(1))
            results.append((be.decrypt(out[0])[support].tobytes(), be.counter.snapshot()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("values,coefs,other", [
        ([1e16, 1.0, -1e16], [1.0, 1.0, 1.0], 1.0),  # the first and last terms added first
        ([-(1 + 2.0**-29), 1 + 2.0**-30], [1.0, 1 + 2.0**-30], 2.0**-60),  # the last product fused into its addition
    ])
    def test_einsum_adds_rounded_products_in_term_order(self, values, coefs, other):
        """The flat contraction is exact only where numpy's einsum adds each rounded product in term order from +0.0.

        Both cases sum to 0.0 on their slot that way, and to ``other`` when reassociated or fused, so a numpy build
        that does either fails here.
        """
        want = 0.0
        for c, v in zip(coefs, values):  # Python floats round every product and every addition
            want += c * v
        assert want == 0.0 != other
        be = Backend(HEParams(poly_degree=16, depth=2))
        ct = be.encrypt([be.encode(np.full(8, v)) for v in values])
        out = be.masked_sum(ct, (0, ()), np.array([coefs]), (5, ()))
        assert be.decrypt(out)[0, 5] == want

    def test_probe_refuses_an_einsum_that_reorders_its_terms(self, monkeypatch):
        einsum = np.einsum

        def last_term_first(subscripts, *operands, **kwargs):
            return einsum(subscripts, *(np.roll(op, 1, axis=0) for op in operands), **kwargs)

        assert isinstance(he_backend.exact_einsum(), bool)
        monkeypatch.setattr(he_backend.np, "einsum", last_term_first)
        assert he_backend.exact_einsum.__wrapped__() is False

    def test_level_and_width_checks(self):
        be = Backend(HEParams(poly_degree=8, depth=1))
        ct = be.mul_plain(be.encrypt(be.encode([1])), be.encode(np.ones(4)))
        before = be.counter.snapshot()
        with pytest.raises(LevelExhausted):
            be.masked_sum(ct, (0, ()), np.ones((1, 1)), (0, ((2, 1),)), np.zeros(1))
        with pytest.raises(SlotMismatch):
            be.masked_sum(CipherVector(np.zeros(8), 1), (0, ((2, 1),)), np.ones((1, 2)), (0, ((2, 1),)), np.zeros(1))
        assert be.counter.snapshot() == before

    @pytest.mark.parametrize("taps,support", [((4, ()), (0, ((2, 1),))), ((2, ((2, 2),)), (1, ((2, 1),))), ((0, ()), (0, ((2, 0),))),
                                              ((0, ()), (1, ((2, 2), (2, 1)))), ((0, ()), (-1, ((2, 1),))), ((0, ()), (3, ((2, 1),)))])
    def test_taps_and_support_outside_the_slots_or_out_of_order_are_refused_before_any_record(self, taps, support):
        """Taps outside ``[0, 4)``, or support slots repeated, out of order or outside ``[0, 4)``."""
        be = Backend(P4)
        ct = be.encrypt(be.encode([1.0, 2.0]))
        terms = lattice_slots(*taps).size
        with pytest.raises(ValueError, match="strictly increasing"):
            be.masked_sum(ct, taps, np.ones((1, terms)), support, np.zeros(1))
        assert be.counter.snapshot() == {}


class TestCountingBackend:
    """Level and width errors leave the op ledger as it was.

    The class name and the ``cls`` parameters date from when these checks
    also ran on a counting-only backend; they keep the test ids stable.
    """

    @pytest.mark.parametrize("cls", [Backend])
    def test_level_exhausted_at_level_zero(self, cls):
        be = cls(HEParams(poly_degree=8, depth=1))
        ones = be.encode(np.ones(4))
        ct = be.mul_plain(be.encrypt(be.encode([1.0])), ones)
        assert ct.level == 0
        before = be.counter.snapshot()
        with pytest.raises(LevelExhausted):
            be.mul_plain(ct, ones)
        with pytest.raises(LevelExhausted):
            be.mul_cipher(ct, ct)
        with pytest.raises(LevelExhausted):
            be.masked_sum(ct, (0, ()), np.ones((1, 1)), (0, ((2, 1),)), np.zeros(1))
        assert be.counter.snapshot() == before

    @pytest.mark.parametrize("cls", [Backend])
    def test_width_and_size_errors(self, cls):
        be = cls(P4)
        ct = be.encrypt(be.encode([1, 2]))
        wide = CipherVector(np.zeros(8), P4.depth)
        for call in (
            lambda: be.add(ct, wide),
            lambda: be.add(ct, PlainVector(np.zeros(8))),
            lambda: be.mul_plain(ct, PlainVector(np.zeros(8))),
            lambda: be.mul_cipher(ct, wide),
            lambda: be.masked_sum(wide, (0, ((2, 1),)), np.ones((1, 2)), (0, ((2, 1),)), np.zeros(1)),
        ):
            with pytest.raises(SlotMismatch):
                call()
        with pytest.raises(OversizedInput):
            be.encode(np.ones(5))
        with pytest.raises(OversizedInput):
            be.encode(np.ones((2, 2)))
        assert be.counter.totals() == {"rotations": 0, "pt_mults": 0, "ct_mults": 0, "adds": 0}


class TestMaskedSumStream:
    """Malformed coefficients are refused before anything is recorded.

    The class name dates from when masked_sum read a stream of rotated stacks; it keeps the test ids stable.
    """

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_ragged_rows_are_refused_before_anything_is_recorded(self, with_bias):
        be = Backend(P8)
        ct = be.encrypt(be.encode(np.arange(8.0)))
        with pytest.raises(ValueError, match="one mask per term"):
            be.masked_sum(ct, (0, ((2, 1),)), [[1.0, 1.0], [1.0]], (0, ((8, 1),)), np.ones(2) if with_bias else None)
        assert be.counter.snapshot() == {}

    @pytest.mark.parametrize("rows,shifts,shape", [(1, (0, ((2, 1),)), (2, 1)), (1, (0, ((2, 1),)), (2, 3)), (2, (0, ((2, 1),)), (2, 2)),
                                                   (2, (3, ()), (2, 1)), (1, (0, ((0, 1),)), (2, 0)), (1, (0, ()), (0, 1)), (1, (0, ()), (0,))])
    def test_wrong_coefficient_count_is_refused_before_anything_is_recorded(self, rows, shifts, shape):
        """One or more mask rows, each with one coefficient per row of the stack and tap; ``shifts`` is the tap lattice."""
        be = Backend(P8)
        ct = be.encrypt([be.encode(np.arange(8.0))] * rows)
        with pytest.raises(ValueError, match="a coefficient per term row"):
            be.masked_sum(ct, shifts, np.ones(shape), (0, ((8, 1),)), np.ones(shape[0]))
        assert be.counter.snapshot() == {}


def loop_diagonal_sum(be, terms, diag, offsets):
    """The mul_plain / add loop over full-width front and wrap masks that Backend.diagonal_sum stands for.

    Term ``t`` meets ``diag[t, j]`` at slot ``off + j - t`` of every offset: in the front mask when
    ``j >= t``, else in the wrap mask.  Each row starts with its first product, with no ``add`` recorded for it.
    """
    n = be.params.num_slots
    acc = [None, None]
    for t, term in enumerate(terms):
        masks = np.zeros((2, n))
        for off in offsets:
            for j, c in enumerate(diag[t]):
                masks[int(j < t), (off + j - t) % n] = c
        prods = [be.mul_plain(term, be.encode(mask)) for mask in masks]
        acc = [p if a is None else be.add(a, p) for a, p in zip(acc, prods)]
    return acc


class TestDiagonalSum:
    @settings(max_examples=120, deadline=None)
    @given(width=st.integers(1, 9), count=st.integers(1, 9), n_offsets=st.integers(1, 4), extra=st.integers(0, 3),
           first=st.integers(0, 2), seed=st.integers(0, 2**32 - 1), quantize=st.booleans(), n_live=st.sampled_from([None, 0, 5, 40]))
    def test_equals_full_width_loop(self, width, count, n_offsets, extra, first, seed, quantize, n_live):
        params = HEParams(poly_degree=128, depth=3, scale_bits=8, quantize=quantize)
        stride = max(width, count - 1) + extra
        offsets = tuple(first + i * stride for i in range(n_offsets))
        rng = np.random.default_rng(seed)
        x = rng.uniform(-4, 4, params.num_slots)
        diag = rng.uniform(-2, 2, (count, width))
        live = None if n_live is None else np.sort(rng.choice(params.num_slots, n_live, replace=False))
        results = []
        for method in (loop_diagonal_sum, Backend.diagonal_sum):
            be = Backend(params)
            ct = be.encrypt(be.encode(x)) if live is None else CipherVector(x[live], 3, live)  # full-width or compact
            if method is loop_diagonal_sum:
                out = method(be, (be.rotate(ct, t) if t else ct for t in range(count)), diag, offsets)
            else:
                out = method(be, ct, diag, offsets)
            results.append(([be.decrypt(v) for v in out], [v.level for v in out], be.counter.snapshot(), list(be.counter.by_level)))
        (want, *want_rest), (got, *got_rest) = results
        assert all(map(np.array_equal, got, want)) and got_rest == want_rest  # every slot, zeros compared by value

    @pytest.mark.parametrize("gather_bytes", [8, 1 << 18])
    def test_blocks_of_terms_sum_in_term_order(self, gather_bytes, monkeypatch):
        """Cancelling products on one slot sum in term order, however the terms are split into contractions."""
        monkeypatch.setattr(he_backend, "_GATHER_BYTES", gather_bytes)
        for quantize in (False, True):
            be = Backend(HEParams(poly_degree=64, depth=3, scale_bits=8, quantize=quantize))
            ct = be.encrypt(be.encode(np.ones(32)))
            diag = np.diag(np.tile([1e16, 1.0, -1e16, 1.0], 5))  # term t meets diag[t, t] on slot 0
            front, _ = be.diagonal_sum(ct, diag, (0,))
            want = loop_diagonal_sum(Backend(be.params), [ct] * 20, diag, (0,))[0]
            assert np.array_equal(be.decrypt(front), be.decrypt(want)) and front.values[0] == 1.0

    def test_reads_each_term_only_on_its_runs(self):
        be = Backend(P8)
        junk = np.full(8, np.inf)
        junk[[0, 1, 4, 5]] = [1.0, 2.0, 3.0, 4.0]
        front, wrap = be.diagonal_sum(CipherVector(junk, 3), np.ones((3, 2)), (0, 4))
        assert np.array_equal(front.values, [3, 2, 0, 0, 7, 4, 0, 0]) and np.array_equal(wrap.values, [0, 0, 3, 7, 0, 0, 1, 3])

    def test_overflowing_input_reaches_only_its_own_runs(self):
        """A 1e200 input at one offset changes no slot outside the front and wrap runs of that offset."""
        be = Backend(HEParams(poly_degree=64, depth=3))
        rng = np.random.default_rng(4)
        x, diag = rng.uniform(-1, 1, 32), rng.uniform(-1, 1, (4, 5))
        rows = []
        for values in (x, np.where(np.arange(32) == 10, 1e200, x)):  # input 2 of the sample at offset 8
            rows.append(be.decrypt(be.diagonal_sum(be.encrypt(be.encode(values)), diag, (0, 8, 16, 24))))
        changed = rows[0] != rows[1]
        own = np.zeros((2, 32), bool)
        own[0, 8:13] = own[1, 5:8] = True  # the front run from offset 8 and the wrap run before it
        assert changed.any() and not (changed & ~own).any()

    @pytest.mark.parametrize("case", ["wrong width", "two rows", "level 0", "bad offsets"])
    def test_refused_before_any_record(self, case):
        be = Backend(P8)
        ct = be.encrypt(be.encode(np.arange(8.0)))
        cipher, offsets = ct, (0, 4)
        if case == "wrong width":
            cipher, error = CipherVector(np.zeros(4), 3), SlotMismatch
        elif case == "two rows":
            cipher, error = be.encrypt([be.encode(np.arange(8.0))] * 2), ValueError
        elif case == "level 0":
            cipher, error = CipherVector(ct.values, 0), LevelExhausted
        else:
            offsets, error = (0, 1), ValueError
        with pytest.raises(error):
            be.diagonal_sum(cipher, np.ones((3, 2)), offsets)
        assert be.counter.snapshot() == {}

    @pytest.mark.parametrize("offsets", [(0, 2, 5), (0, 1), (0, 4, 8), (7,), (-1, 3)])
    def test_offsets_that_let_rows_overlap_are_refused(self, offsets):
        be = Backend(P8)
        ct = be.encrypt(be.encode(np.arange(8.0)))
        with pytest.raises(ValueError, match="evenly spaced"):
            be.diagonal_sum(ct, np.ones((3, 2)), offsets)
        assert be.counter.totals() == {"rotations": 0, "pt_mults": 0, "ct_mults": 0, "adds": 0}


def add_chain(be, terms):
    """The ``add`` loop that :meth:`Backend.sum` stands for, pulling each term as it goes."""
    terms = iter(terms)
    acc = next(terms)
    for term in terms:
        acc = be.add(acc, term)
    return acc


class TestSum:
    @pytest.mark.parametrize("cls", [Backend])
    @pytest.mark.parametrize("quantize", [False, True])
    def test_equals_add_chain(self, cls, quantize):
        params = HEParams(poly_degree=64, depth=4, scale_bits=8, quantize=quantize)
        xs = np.random.default_rng(6).uniform(-4, 4, (3, params.num_slots))
        drops = (0, 2, 1)
        plan = [(0, 0), (0, 5), (1, -3), (2, 7), (0, 9), (2, 0), (1, 1)]
        results = []
        for combine in (add_chain, Backend.sum):
            be = cls(params)
            ones = be.encode(np.ones(params.num_slots))
            cts = []
            for x, drop in zip(xs, drops):
                ct = be.encrypt(be.encode(x))
                for _ in range(drop):
                    ct = be.mul_plain(ct, ones)
                cts.append(ct)
            out = combine(be, (be.rotate(cts[i], r) if r else cts[i] for i, r in plan))
            results.append((out.values.tobytes(), out.level, be.counter.snapshot(), list(be.counter.by_level)))
            want = np.roll(cts[plan[0][0]].values, -plan[0][1])
            for i, r in plan[1:]:
                want = want + np.roll(cts[i].values, -r)
            assert out.values.tobytes() == want.tobytes()
        assert results[0] == results[1]
        assert results[1][1] == 2 and OpCounter(results[1][2]).adds == len(plan) - 1

    @pytest.mark.parametrize("cls", [Backend])
    def test_pulls_each_term_after_the_previous_add(self, cls):
        be = cls(P8)
        ct = be.encrypt(be.encode(np.arange(8.0)))
        pulls = []

        def terms():
            for r in range(5):
                pulls.append(be.counter.adds)
                yield be.rotate(ct, r)

        be.sum(terms())
        assert pulls == [0, 0, 1, 2, 3]

    def test_terms_are_left_unchanged(self):
        be = Backend(P8)
        ct = be.encrypt(be.encode(np.arange(8.0)))
        out = be.sum([ct, ct, be.rotate(ct, 2)])
        assert np.array_equal(ct.values, np.arange(8.0))
        assert np.array_equal(out.values, 2 * np.arange(8.0) + np.roll(np.arange(8.0), -2))
        single = be.sum([ct])
        assert single.values is not ct.values and np.array_equal(single.values, ct.values)
        assert single.level == ct.level and be.counter.adds == 2

    @pytest.mark.parametrize("cls", [Backend])
    def test_width_mismatch_keeps_the_chain_ledger(self, cls):
        be = cls(P8)
        ct = be.encrypt(be.encode(np.arange(8.0)))
        narrow = CipherVector(np.zeros(4), ct.level)
        with pytest.raises(SlotMismatch):
            be.sum([ct, ct, narrow, ct])
        assert be.counter.adds == 1
        with pytest.raises(ValueError):
            be.sum(iter([]))


def compact_ops(be, ct, shifts, plain, coefs, support, taps):
    """Results of every operation on ``ct`` and its rotations, for comparing a compact stack with its full-width copy.

    ``taps`` and ``support`` are the masked sum's lattices.

    The last sum takes a compact first term of any number of rows, adds a compact term into a full-width sum, where
    the first term's -0.0 slots that the term does not hold meet its +0.0, and adds a plaintext.
    """
    rotated = be.rotate(ct, shifts[0])
    return [
        be.sum(be.rotate(ct, r) for r in shifts),
        be.add(rotated, plain),
        be.mul_plain(rotated, plain),
        be.mul_cipher(rotated, rotated),
        be.mul_cipher(ct, rotated),
        be.masked_sum(ct, taps, coefs, support, np.ones(len(coefs))),
        be.sum([ct, rotated, plain]),
    ]


class TestCompactStacks:
    """A compact stack decrypts, after every operation, to the bytes its full-width copy gives, signed zeros included."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 3), n_live=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
           shifts=st.lists(st.integers(-40, 40), min_size=1, max_size=5), quantize=st.booleans())
    def test_every_operation_equals_full_width(self, data, rows, n_live, seed, shifts, quantize):
        params = HEParams(poly_degree=64, depth=3, scale_bits=8, quantize=quantize)
        rng = np.random.default_rng(seed)
        slots = np.sort(rng.choice(32, n_live, replace=False))
        zeros_and_signs = st.sampled_from([0.0, -0.0, 1.5, -2.25, 3.0])
        values = np.array(data.draw(st.lists(zeros_and_signs, min_size=rows * n_live, max_size=rows * n_live))).reshape(rows, n_live)
        plain = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -0.5, np.inf]), min_size=32, max_size=32)))
        taps = random_lattice(rng, 32, 2, 3, False)
        coefs = rng.uniform(-2, 2, (2, rows * lattice_slots(*taps).size))
        support = random_lattice(rng, 32, 2, 3, True)
        results = []
        for compact in (True, False):
            be = Backend(params)
            ct = CipherVector(values, 3, slots)
            if not compact:
                ct = CipherVector(be.decrypt(ct), 3)
            with np.errstate(invalid="ignore"):  # inf times a zero slot is NaN, in both forms
                out = compact_ops(be, ct, shifts, PlainVector(plain), coefs, support, taps)
            results.append(([(be.decrypt(x).tobytes(), x.level) for x in out], be.counter.snapshot(), list(be.counter.by_level)))
        assert results[0] == results[1]

    def test_rotation_moves_the_shift_and_copies_nothing(self):
        be = Backend(P8)
        ct = CipherVector(np.array([[1.0, 2.0], [3.0, 4.0]]), 2, np.array([1, 6]))
        out = be.rotate(ct, 3)
        assert out.values is ct.values and out.slots is ct.slots and out.shift == 3
        assert np.array_equal(be.decrypt(out), np.roll(be.decrypt(ct), -3, axis=1))
        assert be.counter.by_level == {("rotation", 2): 2}

    def test_sum_after_a_lone_row_is_full_width(self):
        """A lone compact row and its rotation sum full-width, to the bytes of their full-width copies' sum."""
        be = Backend(P8)
        row = CipherVector(np.array([[1.5, -0.0]]), 2, np.array([1, 6]))
        out = be.sum([row, be.rotate(row, 3)])
        dense = CipherVector(be.decrypt(row), 2)
        want = be.add(dense, be.rotate(dense, 3))
        assert out.slots is None and out.values.shape == (1, 8) and out.values.tobytes() == want.values.tobytes()

    def test_uncovered_slots_of_a_sum_add_plus_zero(self):
        """-0.0 on a slot that a later term does not hold becomes +0.0, as a full-width +0.0 there makes it."""
        be = Backend(P8)
        a = CipherVector(np.array([-0.0, -0.0]), 2, np.array([0, 1]))
        b = CipherVector(np.array([-0.0]), 2, np.array([0]))
        out = be.decrypt(be.sum([a, b]))
        assert np.signbit(out[0]) and not np.signbit(out[1])

    def test_product_of_a_compact_stack_is_full_width(self):
        """A plaintext product on few slots is full-width, +0.0 on every slot where the plaintext is zero."""
        be = Backend(HEParams(poly_degree=64, depth=3))
        ct = CipherVector(np.array([[2.0, -3.0], [1.0, 5.0]]), 2, np.array([3, 9]))
        plain = np.full(32, -0.0)
        plain[[3, 5]] = [-1.0, 4.0]
        kept = be.mul_plain(ct, be.encode(plain))
        want = np.zeros((2, 32))
        want[:, 3] = [-2.0, -1.0]
        assert kept.slots is None and kept.values.tobytes() == want.tobytes()
        lone = be.mul_plain(ct[0], be.encode(plain))
        assert lone.slots is None and be.decrypt(lone).tobytes() == be.decrypt(kept[0]).tobytes()
        spread = be.mul_plain(ct[0], be.encode(np.full(32, -1.0)))  # -1 times a +0.0 slot is -0.0, and +0.0 once added to +0.0
        assert spread.slots is None and np.flatnonzero(np.signbit(be.decrypt(spread))).tolist() == [3]
