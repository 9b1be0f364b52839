"""Slot-level layer constructions checked against the plaintext oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import SMALL_PARAMS, build_state, gap_slots, make_backend, read_state, single_layout

from slotcnn import (
    FC,
    ApproxReLU,
    AvgPool2d,
    Backend,
    CipherState,
    Conv1d,
    Conv2d,
    Flatten,
    HEParams,
    RELU_COEFFS,
    Square,
    apply_layer,
    drop_level,
    valid_positions,
)
from slotcnn.errors import (
    FootprintOverflow,
    NonDivisibleDims,
    NotFlattened,
    PaddingUnsupported,
    ShapeMismatch,
    TargetAboveCurrent,
)


def rand_conv2d(rng, ch_in, ch_out, kernel, stride, padding=0):
    return Conv2d(ch_in=ch_in, ch_out=ch_out, kernel=kernel, stride=stride, padding=padding,
                  weights=rng.uniform(-1, 1, (ch_out, ch_in, kernel, kernel)),
                  bias=rng.uniform(-1, 1, ch_out))


def rand_conv1d(rng, ch_in, ch_out, kernel, stride):
    return Conv1d(ch_in=ch_in, ch_out=ch_out, kernel=kernel, stride=stride,
                  weights=rng.uniform(-1, 1, (ch_out, ch_in, kernel)),
                  bias=rng.uniform(-1, 1, ch_out))


def rand_fc(rng, d_in, d_out):
    return FC(dat_in=d_in, dat_out=d_out, weights=rng.uniform(-1, 1, (d_out, d_in)),
              bias=rng.uniform(-1, 1, d_out))


def flat_layout(d_in, footprint):
    return single_layout(1, 1, d_in, footprint=footprint)


class TestValidPositions:
    def test_strided_grid(self):
        lay = single_layout(1, 2, 3, interval=2, w_img=5, h_img=2)
        assert valid_positions(lay).tolist() == [0, 2, 4, 10, 12, 14]

    def test_flat_vector(self):
        lay = flat_layout(5, 8)
        assert valid_positions(lay).tolist() == [0, 1, 2, 3, 4]


class TestDropLevel:
    def test_consumes_to_target(self):
        be = make_backend()
        lay = single_layout(2, 2, 2)
        state = build_state(be, lay, np.arange(8.0).reshape(2, 2, 2))
        out = drop_level(be, state, 7)
        assert out.level == 7
        assert be.counter.pt_mults == 2 * (SMALL_PARAMS.depth - 7)
        assert np.array_equal(read_state(be, out), np.arange(8.0).reshape(2, 2, 2))

    def test_noop_at_target(self):
        be = make_backend()
        state = build_state(be, single_layout(1, 1, 1), [[[1.0]]])
        out = drop_level(be, state, SMALL_PARAMS.depth)
        assert out.level == SMALL_PARAMS.depth and be.counter.pt_mults == 0

    def test_cannot_raise(self):
        be = make_backend()
        state = build_state(be, single_layout(1, 1, 1), [[[1.0]]])
        with pytest.raises(TargetAboveCurrent):
            drop_level(be, state, SMALL_PARAMS.depth + 1)


class TestConv2d:
    def test_pointwise_kernel(self):
        be = make_backend()
        lay = single_layout(1, 3, 3, pending=0.25, gaps_zero=False)
        x = np.arange(9.0).reshape(1, 3, 3)
        layer = Conv2d(ch_in=1, ch_out=1, kernel=1, stride=1,
                       weights=np.array([[[[2.0]]]]), bias=np.array([0.5]))
        out = apply_layer(be, build_state(be, lay, x, gap_rng=np.random.default_rng(0)), layer)
        assert out.layout.interval == 1 and (out.layout.h_in, out.layout.w_in) == (3, 3)
        assert np.array_equal(read_state(be, out), 2.0 * x + 0.5)

    @pytest.mark.parametrize(
        "interval,ch_in,ch_out,kernel,stride,h,w",
        [
            (1, 1, 1, 2, 1, 5, 5),
            (1, 2, 3, 3, 2, 7, 7),
            (2, 1, 2, 2, 1, 5, 5),
            (3, 2, 1, 2, 2, 4, 4),
            (4, 1, 1, 3, 3, 5, 5),
        ],
    )
    def test_matches_oracle_exactly(self, interval, ch_in, ch_out, kernel, stride, h, w):
        rng = np.random.default_rng(interval * 97 + kernel)
        be = make_backend()
        pending = 1.0 if interval == 1 else 0.25
        lay = single_layout(
            ch_in, h, w, interval=interval, w_img=w * interval, h_img=h * interval,
            pending=pending, gaps_zero=pending == 1.0,
        )
        x = rng.uniform(-1, 1, (ch_in, h, w))
        gap_rng = None if lay.gaps_zero else np.random.default_rng(5)
        state = build_state(be, lay, x, gap_rng=gap_rng)
        layer = rand_conv2d(rng, ch_in, ch_out, kernel, stride)
        out = apply_layer(be, state, layer)
        want = layer.forward(x)
        assert np.array_equal(read_state(be, out), want)
        assert out.layout.interval == interval * stride
        assert out.layout.pending_const == 1.0 and out.layout.gaps_zero
        assert np.all(gap_slots(be, out) == 0.0)

    def test_operation_counts(self):
        be = make_backend()
        rng = np.random.default_rng(3)
        lay = single_layout(2, 6, 6)
        state = build_state(be, lay, rng.uniform(-1, 1, (2, 6, 6)))
        layer = rand_conv2d(rng, 2, 3, 3, 1)
        apply_layer(be, state, layer)
        assert be.counter.rotations == 2 * 9
        assert be.counter.pt_mults == 2 * 3 * 9
        assert be.counter.ct_mults == 0
        assert be.counter.adds == 3 * (2 * 9)

    def test_level_consumption(self):
        be = make_backend()
        state = build_state(be, single_layout(1, 4, 4), np.zeros((1, 4, 4)))
        out = apply_layer(be, state, rand_conv2d(np.random.default_rng(0), 1, 2, 2, 1))
        assert out.level == SMALL_PARAMS.depth - 1

    def test_padding_rejected(self):
        be = make_backend()
        state = build_state(be, single_layout(1, 4, 4), np.zeros((1, 4, 4)))
        with pytest.raises(PaddingUnsupported):
            apply_layer(be, state, rand_conv2d(np.random.default_rng(0), 1, 1, 2, 1, padding=1))

    def test_channel_mismatch(self):
        be = make_backend()
        state = build_state(be, single_layout(1, 4, 4), np.zeros((1, 4, 4)))
        with pytest.raises(ShapeMismatch):
            apply_layer(be, state, rand_conv2d(np.random.default_rng(0), 2, 1, 2, 1))

    def test_kernel_too_large(self):
        be = make_backend()
        state = build_state(be, single_layout(1, 3, 3), np.zeros((1, 3, 3)))
        with pytest.raises(ShapeMismatch):
            apply_layer(be, state, rand_conv2d(np.random.default_rng(0), 1, 1, 4, 1))

    def test_batched_offsets_match_solo(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, (1, 5, 5))
        layer = rand_conv2d(rng, 1, 2, 2, 2)
        be_b = make_backend()
        lay_b = single_layout(1, 5, 5, footprint=25, offsets=(0, 25, 50))
        out_b = apply_layer(be_b, build_state(be_b, lay_b, x), layer)
        be_s = make_backend()
        lay_s = single_layout(1, 5, 5, footprint=25, offsets=(0,))
        out_s = apply_layer(be_s, build_state(be_s, lay_s, x), layer)
        for off in (0, 25, 50):
            assert np.array_equal(read_state(be_b, out_b, offset=off), read_state(be_s, out_s))


class TestConv1d:
    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(4)
        be = make_backend()
        lay = single_layout(2, 1, 16)
        x = rng.uniform(-1, 1, (2, 1, 16))
        layer = rand_conv1d(rng, 2, 3, 2, 2)
        out = apply_layer(be, build_state(be, lay, x), layer)
        assert np.array_equal(read_state(be, out), layer.forward(x))
        assert (out.layout.h_in, out.layout.w_in, out.layout.interval) == (1, 8, 2)

    def test_strided_layout_with_pending(self):
        rng = np.random.default_rng(6)
        be = make_backend()
        lay = single_layout(1, 1, 8, interval=2, w_img=16, h_img=1, pending=0.25, gaps_zero=False)
        x = rng.uniform(-1, 1, (1, 1, 8))
        layer = rand_conv1d(rng, 1, 2, 2, 2)
        out = apply_layer(be, build_state(be, lay, x, gap_rng=np.random.default_rng(1)), layer)
        assert np.array_equal(read_state(be, out), layer.forward(x))
        assert out.layout.interval == 4

    def test_rejects_two_dim_layout(self):
        be = make_backend()
        state = build_state(be, single_layout(1, 2, 8), np.zeros((1, 2, 8)))
        with pytest.raises(ShapeMismatch):
            apply_layer(be, state, rand_conv1d(np.random.default_rng(0), 1, 1, 2, 1))

    def test_operation_counts(self):
        be = make_backend()
        rng = np.random.default_rng(7)
        state = build_state(be, single_layout(2, 1, 8), rng.uniform(-1, 1, (2, 1, 8)))
        apply_layer(be, state, rand_conv1d(rng, 2, 4, 2, 2))
        assert be.counter.rotations == 2 * 2
        assert be.counter.pt_mults == 2 * 4 * 2


class TestAvgPool:
    def test_window_sum_and_pending(self):
        be = make_backend()
        lay = single_layout(1, 2, 2)
        out = apply_layer(be, build_state(be, lay, [[[1.0, 2.0], [3.0, 4.0]]]), AvgPool2d(kernel=2))
        assert be.decrypt(out.ct)[0, 0] == 10.0
        assert out.layout.pending_const == 0.25
        assert not out.layout.gaps_zero
        assert read_state(be, out)[0, 0, 0] == 2.5

    @pytest.mark.parametrize("c,channels", [(2, 1), (2, 3), (3, 2)])
    def test_matches_oracle_exactly(self, c, channels):
        rng = np.random.default_rng(c * 13 + channels)
        be = make_backend()
        lay = single_layout(channels, 6, 6)
        x = rng.uniform(-1, 1, (channels, 6, 6))
        out = apply_layer(be, build_state(be, lay, x), AvgPool2d(kernel=c))
        assert np.array_equal(read_state(be, out), AvgPool2d(kernel=c).forward(x))

    def test_zero_multiplications(self):
        be = make_backend()
        state = build_state(be, single_layout(3, 4, 4), np.zeros((3, 4, 4)))
        out = apply_layer(be, state, AvgPool2d(kernel=2))
        assert be.counter.pt_mults == 0 and be.counter.ct_mults == 0
        assert be.counter.rotations == 3 * 4
        assert be.counter.adds == 3 * 3
        assert out.level == SMALL_PARAMS.depth

    def test_divisibility(self):
        be = make_backend()
        state = build_state(be, single_layout(1, 5, 5), np.zeros((1, 5, 5)))
        with pytest.raises(NonDivisibleDims):
            apply_layer(be, state, AvgPool2d(kernel=2))

    def test_pending_composes(self):
        be = make_backend()
        lay = single_layout(1, 4, 4, pending=0.25)
        state = build_state(be, lay, np.ones((1, 4, 4)))
        out = apply_layer(be, state, AvgPool2d(kernel=2))
        assert out.layout.pending_const == 0.25 * 0.25


class TestSquare:
    def test_values_and_pending(self):
        be = make_backend()
        lay = single_layout(1, 2, 2, pending=0.25, gaps_zero=False)
        x = np.array([[[1.5, -2.0], [0.5, 3.0]]])
        out = apply_layer(be, build_state(be, lay, x), Square())
        assert out.layout.pending_const == 0.0625
        assert np.array_equal(read_state(be, out), x * x)
        assert out.level == SMALL_PARAMS.depth - 1
        assert be.counter.ct_mults == 1


class TestApproxReLU:
    def test_at_zero_and_one(self):
        a0, a1, a2 = RELU_COEFFS
        be = make_backend()
        lay = single_layout(1, 1, 2)
        out = apply_layer(be, build_state(be, lay, [[[0.0, 1.0]]]), ApproxReLU())
        got = read_state(be, out)[0, 0]
        assert got[0] == a0
        assert got[1] == pytest.approx(0.992444, abs=1e-9)

    def test_matches_oracle_with_pending_and_junk(self):
        rng = np.random.default_rng(17)
        be = make_backend()
        lay = single_layout(2, 3, 3, interval=2, w_img=6, h_img=6, pending=0.25, gaps_zero=False)
        x = rng.uniform(-1, 1, (2, 3, 3))
        layer = ApproxReLU()
        out = apply_layer(be, build_state(be, lay, x, gap_rng=np.random.default_rng(2)), layer)
        assert np.array_equal(read_state(be, out), layer.forward(x))
        assert out.layout.pending_const == 1.0 and out.layout.gaps_zero
        assert np.all(gap_slots(be, out) == 0.0)

    def test_costs_two_levels(self):
        be = make_backend()
        state = build_state(be, single_layout(2, 2, 2), np.zeros((2, 2, 2)))
        out = apply_layer(be, state, ApproxReLU())
        assert out.level == SMALL_PARAMS.depth - 2
        assert be.counter.pt_mults == 2 and be.counter.ct_mults == 2 and be.counter.adds == 4


class TestFlatten:
    def assert_flattened(self, be, out, tensor, levels_used):
        flat = np.asarray(tensor).reshape(-1)
        lay = out.layout
        assert (lay.interval, lay.h_in, lay.channels) == (1, 1, 1)
        assert lay.w_in == flat.size
        assert lay.pending_const == 1.0 and lay.gaps_zero
        assert np.array_equal(read_state(be, out).reshape(-1), flat)
        assert out.level == SMALL_PARAMS.depth - levels_used

    def test_masked_path(self):
        rng = np.random.default_rng(23)
        be = make_backend()
        lay = single_layout(2, 3, 3, interval=2, w_img=6, h_img=6, pending=0.25, gaps_zero=False)
        x = rng.uniform(-1, 1, (2, 3, 3))
        out = apply_layer(be, build_state(be, lay, x, gap_rng=np.random.default_rng(3)), Flatten())
        self.assert_flattened(be, out, x, levels_used=2)

    def test_masked_path_single_row(self):
        rng = np.random.default_rng(29)
        be = make_backend()
        lay = single_layout(2, 1, 8, interval=4, w_img=32, h_img=1, pending=0.0625, gaps_zero=False)
        x = rng.uniform(-1, 1, (2, 1, 8))
        out = apply_layer(be, build_state(be, lay, x, gap_rng=np.random.default_rng(4)), Flatten())
        self.assert_flattened(be, out, x, levels_used=1)

    def test_row_removal_path(self):
        rng = np.random.default_rng(31)
        be = make_backend()
        lay = single_layout(2, 3, 3, interval=3, w_img=9, h_img=9)
        x = rng.uniform(-1, 1, (2, 3, 3))
        out = apply_layer(be, build_state(be, lay, x), Flatten())
        self.assert_flattened(be, out, x, levels_used=2)

    def test_column_removal_only(self):
        rng = np.random.default_rng(37)
        be = make_backend()
        lay = single_layout(2, 4, 4)
        x = rng.uniform(-1, 1, (2, 4, 4))
        out = apply_layer(be, build_state(be, lay, x), Flatten())
        self.assert_flattened(be, out, x, levels_used=1)

    def test_pure_channel_packing(self):
        rng = np.random.default_rng(41)
        be = make_backend()
        lay = single_layout(5, 1, 1, interval=4, w_img=4, h_img=4)
        x = rng.uniform(-1, 1, (5, 1, 1))
        out = apply_layer(be, build_state(be, lay, x), Flatten())
        assert be.counter.pt_mults == 0 and be.counter.ct_mults == 0
        assert be.counter.rotations == 4 and be.counter.adds == 4
        self.assert_flattened(be, out, x, levels_used=0)

    def test_single_slot_identity(self):
        be = make_backend()
        lay = single_layout(1, 1, 1)
        out = apply_layer(be, build_state(be, lay, [[[3.25]]]), Flatten())
        assert be.counter.totals() == {"rotations": 0, "pt_mults": 0, "ct_mults": 0, "adds": 0}
        self.assert_flattened(be, out, [[[3.25]]], levels_used=0)

    def test_row_major_channel_major_order(self):
        be = make_backend()
        lay = single_layout(2, 2, 2, interval=2, w_img=4, h_img=4)
        x = np.arange(8.0).reshape(2, 2, 2)
        out = apply_layer(be, build_state(be, lay, x), Flatten())
        off = out.layout.batch_offsets[0]
        assert np.array_equal(be.decrypt(out.ct)[0, off : off + 8], np.arange(8.0))


class TestFC:
    @pytest.mark.parametrize("d_in,d_out,fp", [(64, 10, 128), (10, 10, 16), (13, 5, 16), (5, 8, 8), (7, 1, 8), (6, 6, 8), (648, 64, 704)])
    def test_matches_matvec(self, d_in, d_out, fp):
        rng = np.random.default_rng(d_in + d_out)
        be = make_backend()
        lay = flat_layout(d_in, fp)
        x = rng.uniform(-1, 1, d_in)
        layer = rand_fc(rng, d_in, d_out)
        out = apply_layer(be, build_state(be, lay, x.reshape(1, 1, d_in)), layer)
        got = read_state(be, out).reshape(-1)
        assert np.array_equal(got, layer.forward(x))
        assert np.allclose(got, layer.weights @ x + layer.bias, atol=1e-12)
        assert (out.layout.w_in, out.layout.h_in, out.layout.interval) == (d_out, 1, 1)
        assert not out.layout.gaps_zero

    def test_single_weight(self):
        be = make_backend()
        lay = flat_layout(1, 4)
        layer = FC(dat_in=1, dat_out=1, weights=np.array([[2.5]]), bias=np.array([0.5]))
        out = apply_layer(be, build_state(be, lay, [[[3.0]]]), layer)
        assert be.decrypt(out.ct)[0, 0] == 2.5 * 3.0 + 0.5

    def test_pending_prescales_weights(self):
        rng = np.random.default_rng(51)
        be = make_backend()
        lay = single_layout(1, 1, 16, footprint=32, pending=0.25)
        x = rng.uniform(-1, 1, 16)
        layer = rand_fc(rng, 16, 4)
        out = apply_layer(be, build_state(be, lay, x.reshape(1, 1, 16)), layer)
        assert np.array_equal(read_state(be, out).reshape(-1), layer.forward(x))
        assert out.layout.pending_const == 1.0

    def test_junk_beyond_input_ignored(self):
        rng = np.random.default_rng(53)
        be = make_backend()
        fp = 32
        x = rng.uniform(-1, 1, 13)
        region = np.zeros(fp)
        region[:13] = x
        region[13:] = rng.uniform(-9, 9, fp - 13)
        full = np.zeros(be.params.num_slots)
        full[:fp] = region
        lay = flat_layout(13, fp)
        from slotcnn import CipherState

        state = CipherState(be.encrypt([be.encode(full)]), lay)
        layer = rand_fc(rng, 13, 5)
        out = apply_layer(be, state, layer)
        assert np.array_equal(read_state(be, out).reshape(-1), layer.forward(x))

    def test_operation_counts_64_10(self):
        rng = np.random.default_rng(55)
        be = make_backend()
        lay = flat_layout(64, 128)
        state = build_state(be, lay, rng.uniform(-1, 1, (1, 1, 64)))
        layer = rand_fc(rng, 64, 10)
        level = SMALL_PARAMS.depth
        # 9 diagonal rotations with 2 masked products each, then the wrap correction and 6 more folds.
        assert layer.ledger(lay, level) == [("pt_mult", level, 20), ("rotation", level, 9), ("add", level - 1, 18),
                                            ("rotation", level - 1, 7), ("add", level - 1, 8)]
        out = apply_layer(be, state, layer)
        assert be.counter.rotations == 16
        assert be.counter.pt_mults == 20
        assert out.level == SMALL_PARAMS.depth - 1

    def test_rotation_indices_follow_output_size(self):
        """One rotation per diagonal but the 0th, then ``ceil(dat_in / dat_out)`` folds, the wrap correction included."""
        def rotations(d_in, d_out):
            ledger = rand_fc(np.random.default_rng(0), d_in, d_out).ledger(flat_layout(d_in, d_in), 3)
            return [count for kind, _, count in ledger if kind == "rotation"]

        assert rotations(648, 64) == [63, 11]
        assert rotations(192, 10) == [9, 20]

    def test_requires_flat_layout(self):
        rng = np.random.default_rng(57)
        be = make_backend()
        layer = rand_fc(rng, 8, 2)
        strided = build_state(be, single_layout(1, 1, 8, interval=2, w_img=16, h_img=1), np.zeros((1, 1, 8)))
        with pytest.raises(NotFlattened):
            apply_layer(be, strided, layer)
        tall = build_state(be, single_layout(1, 2, 4), np.zeros((1, 2, 4)))
        with pytest.raises(NotFlattened):
            apply_layer(be, tall, layer)
        multi = build_state(be, single_layout(2, 1, 8), np.zeros((2, 1, 8)))
        with pytest.raises(NotFlattened):
            apply_layer(be, multi, layer)

    def test_dimension_mismatch(self):
        be = make_backend()
        state = build_state(be, flat_layout(8, 16), np.zeros((1, 1, 8)))
        with pytest.raises(ShapeMismatch):
            apply_layer(be, state, rand_fc(np.random.default_rng(0), 9, 2))

    def test_window_must_fit_footprint(self):
        be = make_backend()
        state = build_state(be, flat_layout(65, 70), np.zeros((1, 1, 65)))
        with pytest.raises(FootprintOverflow):
            apply_layer(be, state, rand_fc(np.random.default_rng(0), 65, 16))


def loop_fc(be, state, layer):
    """fc's schedule over full-width masks: two mul_plain per rotation, summed by add, then fc's fold and bias."""
    lay, n = state.layout, be.params.num_slots
    d_in, d_out = layer.dat_in, layer.dat_out
    reps = -(-d_in // d_out)
    weights = layer.weights * lay.pending_const
    acc = [None, None]
    for o in range(d_out):
        term = be.rotate(state.ct, o) if o else state.ct
        masks = np.zeros((2, n))  # diagonal o meets input j at slot j - o: the front when j >= o, else the wrap
        for off in lay.batch_offsets:
            for j in range(d_in):
                masks[int(j < o), (off + j - o) % n] = weights[(j - o) % d_out, j]
        prods = [be.mul_plain(term, be.encode(mask)) for mask in masks]
        acc = [p if a is None else be.add(a, p) for a, p in zip(acc, prods)]
    summed = be.add(acc[0], be.rotate(acc[1], -reps * d_out))
    out = be.sum(be.rotate(summed, i * d_out) if i else summed for i in range(reps))
    bias = np.zeros(n)
    bias[np.add.outer(lay.batch_offsets, np.arange(d_out))] = layer.bias
    return be.add(out, be.encode(bias))


@st.composite
def fc_cases(draw):
    """An FC layer on a flat layout of 1-4 samples at 128 slots, with ``d_out`` above, at or below ``d_in``."""
    d_in, d_out = draw(st.sampled_from([1, 2, 5, 9, 16])), draw(st.sampled_from([1, 2, 3, 7, 12]))
    window = -(-d_in // d_out) * d_out
    footprint = window + draw(st.sampled_from([0, 0, 1, 5]))  # 0 puts the window on the whole footprint
    stride = footprint + draw(st.integers(0, 3))
    n_offsets = draw(st.integers(1, max(1, min(4, 128 // stride))))
    pending = draw(st.sampled_from([1.0, 0.25, -1.5, 1 / 9]))
    lay = single_layout(1, 1, d_in, footprint=footprint, pending=pending, offsets=[i * stride for i in range(n_offsets)])
    params = HEParams(poly_degree=256, depth=4, scale_bits=draw(st.sampled_from([8, 30])), quantize=draw(st.booleans()))
    layer = rand_fc(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d_in, d_out)
    return lay, params, layer


class TestFCDiagonals:
    @settings(max_examples=150, deadline=None)
    @given(case=fc_cases(), seed=st.integers(0, 2**32 - 1))
    def test_equals_full_width_loop(self, case, seed):
        lay, params, layer = case
        x = np.random.default_rng(seed).uniform(-4, 4, params.num_slots)
        results = []
        for method in (loop_fc, apply_layer):
            be = Backend(params)
            out = method(be, CipherState(be.encrypt([be.encode(x)]), lay), layer)
            out = out.ct if isinstance(out, CipherState) else out
            results.append((be.decrypt(out), out.level, be.counter.snapshot(), list(be.counter.by_level)))
        (want, *want_rest), (got, *got_rest) = results
        assert np.array_equal(got, want) and got_rest == want_rest  # every slot, zeros compared by value

    @settings(max_examples=60, deadline=None)
    @given(case=fc_cases(), junk=st.sampled_from([np.inf, -np.inf, 1e200]), seed=st.integers(0, 2**32 - 1))
    def test_junk_in_one_sample_region_reaches_no_output(self, case, junk, seed):
        lay, params, layer = case
        assume(lay.footprint > lay.w_in)  # some slots lie between the input and the end of the footprint
        rng = np.random.default_rng(seed)
        x = rng.uniform(-4, 4, params.num_slots)
        hit = int(rng.integers(len(lay.batch_offsets)))
        spoiled = x.copy()
        spoiled[lay.batch_offsets[hit] + lay.w_in : lay.batch_offsets[hit] + lay.footprint] = junk
        outs = []
        for values in (x, spoiled):
            be = Backend(params)
            out = apply_layer(be, CipherState(be.encrypt([be.encode(values)]), lay), layer)
            outs.append([be.decrypt(out.ct)[0, off : off + layer.dat_out].tobytes() for off in lay.batch_offsets])
        assert outs[0] == outs[1]


    @settings(max_examples=60, deadline=None)
    @given(case=fc_cases(), seed=st.integers(0, 2**32 - 1))
    def test_overflowing_sample_leaves_neighbours_bit_identical(self, case, seed):
        lay, params, layer = case
        assume(len(lay.batch_offsets) > 1)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-4, 4, params.num_slots)
        hit = int(rng.integers(len(lay.batch_offsets)))
        spoiled = x.copy()
        spoiled[lay.batch_offsets[hit] + int(rng.integers(lay.w_in))] = 1e200
        outs = []
        for values in (x, spoiled):
            be = Backend(params)
            with np.errstate(all="ignore"):
                out = apply_layer(be, CipherState(be.encrypt([be.encode(values)]), lay), layer)
            outs.append([be.decrypt(out.ct)[0, off : off + layer.dat_out].tobytes() for off in lay.batch_offsets])
        assert outs[0][:hit] + outs[0][hit + 1 :] == outs[1][:hit] + outs[1][hit + 1 :]


class TestApplyLayer:
    def test_matches_direct_constructions(self):
        rng = np.random.default_rng(61)
        x = rng.uniform(0, 1, (1, 6, 6))
        conv_layer = rand_conv2d(rng, 1, 2, 3, 1)
        be_a, be_b = make_backend(), make_backend()
        st_a = build_state(be_a, single_layout(1, 6, 6), x)
        st_b = build_state(be_b, single_layout(1, 6, 6), x)
        st_a = apply_layer(be_a, st_a, conv_layer)
        st_b = conv_layer.schedule(be_b, st_b)
        assert np.array_equal(read_state(be_a, st_a), read_state(be_b, st_b))

    def test_unknown_layer(self):
        be = make_backend()
        state = build_state(be, single_layout(1, 1, 1), [[[1.0]]])
        with pytest.raises(ShapeMismatch):
            apply_layer(be, state, object())


class TestLayerChain:
    def test_conv_pool_square_flatten_fc_matches_oracle(self):
        rng = np.random.default_rng(67)
        be = make_backend(HEParams(poly_degree=2048, depth=8))
        x = rng.uniform(0, 1, (1, 8, 8))
        conv_layer = rand_conv2d(rng, 1, 2, 3, 1)
        pool_layer = AvgPool2d(kernel=2)
        fc_layer = rand_fc(rng, 18, 4)
        lay = single_layout(1, 8, 8, footprint=81)
        state = build_state(be, lay, x)
        state = apply_layer(be, state, conv_layer)
        state = apply_layer(be, state, pool_layer)
        state = apply_layer(be, state, Square())
        state = apply_layer(be, state, Flatten())
        state = apply_layer(be, state, fc_layer)
        want = x
        for layer in (conv_layer, pool_layer, Square(), Flatten(), fc_layer):
            want = layer.forward(want)
        assert np.array_equal(read_state(be, state).reshape(-1), want)
