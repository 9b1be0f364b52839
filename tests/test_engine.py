"""End-to-end scheduling, metrics, cost estimation, and oracle verification."""

import dataclasses
import itertools
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import random_stack, stage_bytes
from slotcnn import (
    FC,
    ApproxReLU,
    AvgPool2d,
    Backend,
    CipherState,
    Conv1d,
    Conv2d,
    CostModel,
    Flatten,
    LayerMetrics,
    LevelAlignment,
    HEParams,
    Layer,
    ModelSpec,
    Square,
    apply_layer,
    builtin,
    builtin_names,
    estimate_cost,
    footprint,
    infer,
    ledger_metrics,
    reference_infer,
    run_inference,
    trace_layout,
    validate,
    verify_against_oracle,
)
from slotcnn import engine, he_backend
from slotcnn.errors import NonFiniteInput, SlotCnnError

PARAMS = HEParams()

LEVEL_TRACES = {
    "M1": [7, 6, 5, 3, 2, 1, 0],
    "M2": [7, 6, 5, 5, 4, 3, 3, 1, 0],
    "M3": [9, 8, 6, 6, 4, 3, 1, 0],
    "M4": [9, 8, 7, 7, 6, 5, 5, 4, 3, 3, 2, 1, 0],
    "M5": [8, 7, 6, 6, 5, 4, 4, 3, 2, 2, 1, 0],
    "M6": [7, 6, 5, 3, 2, 1, 0],
    "M7": [7, 6, 5, 4, 3, 2, 1, 0],
}


def rand_samples(m, count, seed=0):
    rng = np.random.default_rng(seed)
    return list(rng.uniform(0.0, 1.0, size=(count, m.channels, m.height, m.width)))


class TestInference:
    def test_m1_matches_oracle_exactly(self):
        m = builtin("M1")
        samples = rand_samples(m, 1)
        outputs, metrics, _ = run_inference(m, samples, PARAMS)
        want = reference_infer(m, samples[0])
        assert np.array_equal(outputs[0], want)
        assert np.argmax(outputs[0]) == np.argmax(want)

    def test_m7_five_logits(self):
        m = builtin("M7")
        samples = rand_samples(m, 3, seed=2)
        outputs, _, _ = run_inference(m, samples, PARAMS)
        assert len(outputs) == 3
        for sample, out in zip(samples, outputs):
            assert out.shape == (5,)
            assert np.array_equal(out, reference_infer(m, sample))

    @pytest.mark.parametrize("name", builtin_names())
    def test_level_trace(self, name):
        m = builtin(name)
        _, metrics, _ = run_inference(m, rand_samples(m, 1), PARAMS)
        assert [row.level_after for row in metrics.per_layer] == LEVEL_TRACES[name]
        assert metrics.per_layer[0].name == "Drop Level"
        assert metrics.per_layer[0].level_after == metrics.total_mults
        assert metrics.per_layer[-1].level_after == 0

    def test_empty_batch_is_refused(self):
        with pytest.raises(ValueError, match="at least one sample"):
            run_inference(builtin("M7"), [], PARAMS)

    def test_m1_operation_totals(self):
        m = builtin("M1")
        _, metrics, _ = run_inference(m, rand_samples(m, 1), PARAMS)
        totals = metrics.totals()
        assert totals["rotations"] == 209
        assert totals["pt_mults"] == 376
        assert totals["ct_mults"] == 9
        assert totals["adds"] == 395

    def test_m2_layer_rows(self):
        m = builtin("M2")
        _, metrics, _ = run_inference(m, rand_samples(m, 1), PARAMS)
        names = [row.name for row in metrics.per_layer]
        assert names == [
            "Drop Level", "Conv2d", "Square", "AvgPool2d",
            "Conv2d", "Square", "AvgPool2d", "Flatten", "FC1",
        ]
        conv2 = metrics.per_layer[4]
        assert conv2.rotations == 100 and conv2.pt_mults == 1200

    def test_metrics_match_backend_counter(self):
        m = builtin("M6")
        backend = Backend(PARAMS)
        _, metrics, _ = run_inference(m, rand_samples(m, 2), PARAMS, backend=backend)
        totals = metrics.totals()
        counted = backend.counter.totals()
        for key in counted:
            assert totals[key] == counted[key]

    def test_deterministic(self):
        m = builtin("M7", seed=3)
        a_out, a_metrics, _ = run_inference(m, rand_samples(m, 2, seed=5), PARAMS)
        b_out, b_metrics, _ = run_inference(m, rand_samples(m, 2, seed=5), PARAMS)
        for a, b in zip(a_out, b_out):
            assert np.array_equal(a, b)
        assert [r.to_dict() for r in a_metrics.per_layer] == [r.to_dict() for r in b_metrics.per_layer]

    def test_batch_matches_solo(self):
        m = builtin("M6")
        samples = rand_samples(m, 3, seed=7)
        batched, _, _ = run_inference(m, samples, PARAMS)
        for i, sample in enumerate(samples):
            solo, _, _ = run_inference(m, [sample], PARAMS)
            assert np.array_equal(batched[i], solo[0])

    def test_non_finite_sample_refused_and_neighbour_unaffected(self):
        m = builtin("M1")
        samples = rand_samples(m, 2, seed=9)
        poisoned = [samples[0], samples[1].copy()]
        poisoned[1][0, 5, 5] = np.nan
        with pytest.raises(NonFiniteInput, match="sample 1 channel 0"):
            run_inference(m, poisoned, PARAMS)
        batched, _, _ = run_inference(m, samples, PARAMS)
        solo, _, _ = run_inference(m, samples[:1], PARAMS)
        assert np.array_equal(batched[0], solo[0])

    def test_invalid_model_raises(self):
        m = builtin("M1")
        with pytest.raises(SlotCnnError, match="depth budget exceeded"):
            run_inference(m, rand_samples(m, 1), HEParams(depth=6))

    def test_zero_layer_model_passes_through(self):
        m = ModelSpec("empty", 1, 2, 3, ())
        samples = [np.arange(6.0).reshape(1, 2, 3)]
        outputs, metrics, _ = run_inference(m, samples, PARAMS)
        assert np.array_equal(outputs[0], np.arange(6.0))
        assert metrics.per_layer == []

    def test_infer_respects_sample_count(self):
        m = builtin("M7")
        plan = footprint(m, PARAMS)
        from slotcnn import batch_pack, flatten_input

        samples = rand_samples(m, 2, seed=9)
        packed = batch_pack([flatten_input(s) for s in samples], plan)
        outputs, _ = infer(m, packed, PARAMS, plan, n_samples=2)
        assert len(outputs) == 2

    def test_metrics_to_dict_shape(self):
        m = builtin("M7")
        _, metrics, _ = run_inference(m, rand_samples(m, 1), PARAMS)
        doc = metrics.to_dict()
        assert set(doc) == {"per_layer", "totals"}
        row = doc["per_layer"][0]
        assert set(row) == {"layer", "rotations", "pt_mults", "ct_mults", "adds", "level_after", "est_cost"}


class TestCostModel:
    def test_prices(self):
        cm = CostModel()
        assert cm.price("pt_mult", 1024, 3) == 1024 * 3
        assert cm.price("rotation", 1024, 3) == 1024 * 10 * 9
        assert cm.price("ct_mult", 1024, 3) == 3.0 * 1024 * 3
        assert cm.price("add", 1024, 7) == 1024
        with pytest.raises(ValueError):
            cm.price("bootstrap", 1024, 1)

    def test_estimate_matches_recorded_run(self):
        m = builtin("M1")
        _, metrics, _ = run_inference(m, rand_samples(m, 1), PARAMS)
        assert estimate_cost(metrics, PARAMS) == pytest.approx(metrics.totals()["est_cost"])

    def test_strictly_increasing_in_depth(self):
        m = builtin("M1")
        _, metrics, _ = run_inference(m, rand_samples(m, 1), PARAMS)
        costs = [estimate_cost(metrics, PARAMS, depth_override=d) for d in range(7, 12)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_budget_below_need_rejected(self):
        m = builtin("M1")
        _, metrics, _ = run_inference(m, rand_samples(m, 1), PARAMS)
        with pytest.raises(ValueError):
            estimate_cost(metrics, PARAMS, depth_override=6)

    def test_zero_layer_model_costs_nothing(self):
        m = ModelSpec("empty", 1, 2, 2, ())
        _, metrics, _ = run_inference(m, [np.zeros((1, 2, 2))], PARAMS)
        assert estimate_cost(metrics, PARAMS) == 0.0

    def test_doubling_ring_more_than_doubles_cost(self):
        m = builtin("M1")
        _, metrics, _ = run_inference(m, rand_samples(m, 1), PARAMS)
        small = estimate_cost(metrics, HEParams(poly_degree=8192))
        large = estimate_cost(metrics, HEParams(poly_degree=16384))
        assert large > 2 * small


class TestVerify:
    def test_exact_without_quantization(self):
        result = verify_against_oracle(builtin("M7"), PARAMS, n_trials=5, seed=1)
        assert result["trials"] == 5
        assert result["max_abs_err"] == 0.0
        assert result["mean_abs_err"] == 0.0
        assert result["argmax_agreement"] == 1.0
        assert result["ok"]

    def test_quantized_m1_error_small_on_unit_inputs(self):
        params = HEParams(quantize=True, scale_bits=32)
        result = verify_against_oracle(builtin("M1"), params, n_trials=3, seed=2, tol=1e-4)
        assert 0.0 < result["max_abs_err"] < 1e-4
        assert result["ok"]

    def test_scale_trend(self):
        coarse = verify_against_oracle(builtin("M7"), HEParams(quantize=True, scale_bits=16), n_trials=4)
        fine = verify_against_oracle(builtin("M7"), HEParams(quantize=True, scale_bits=30), n_trials=4)
        assert fine["mean_abs_err"] < coarse["mean_abs_err"]

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            verify_against_oracle(builtin("M7"), PARAMS, n_trials=0)

    @pytest.mark.parametrize("layer,value", [(0, np.nan), (3, 1e308)])
    def test_non_finite_error_fails(self, layer, value):
        m = builtin("M1")
        weights = m.layers[layer].weights.copy()  # layer tensors are read-only, so the poisoned model is built anew
        weights.flat[0] = value
        layers = list(m.layers)
        layers[layer] = dataclasses.replace(layers[layer], weights=weights)
        m = dataclasses.replace(m, layers=tuple(layers))
        with np.errstate(all="ignore"):
            result = verify_against_oracle(m, PARAMS, n_trials=2)
        assert not result["ok"]
        assert not np.isfinite(result["max_abs_err"])

    def test_batches_through_capacity(self):
        m = builtin("M6")
        result = verify_against_oracle(m, PARAMS, n_trials=30, seed=3)
        assert result["trials"] == 30 and result["ok"]


MAX_SWEEP_DEPTH = 13


def ledger(metrics, params):
    """Everything a run reports that does not depend on slot values.

    Per-layer rows (type, ``to_dict``, ``hist`` in key order,
    ``level_after``), the run-wide facts, and ``estimate_cost`` at every
    budget from the model's need up to ``MAX_SWEEP_DEPTH``.
    """
    rows = [(type(r), r.to_dict(), list(r.hist.items()), r.level_after) for r in metrics.per_layer]
    facts = (metrics.poly_degree, metrics.depth, metrics.total_mults, metrics.input_channels)
    costs = [
        (d, estimate_cost(metrics, params, depth_override=d))
        for d in range(metrics.total_mults, MAX_SWEEP_DEPTH + 1)
    ]
    return rows, facts, costs


def assert_static_equals_live(m, params, samples):
    _, live, _ = run_inference(m, samples, params)
    assert ledger(ledger_metrics(m, params), params) == ledger(live, params), m.layers


def flatten_branches(m):
    """The flatten dispatch each flatten of ``m`` takes."""
    return {row.layer.dispatch(row.before) for row in trace_layout(m) if isinstance(row.layer, Flatten)}


class TestCountingLedger:
    """The ledger ``ledger_metrics`` counts in closed form equals the one a live Backend run records."""

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtins(self, name, quantize):
        m = builtin(name)
        for depth in range(validate(m, PARAMS).total_mults, MAX_SWEEP_DEPTH + 1):
            params = HEParams(depth=depth, quantize=quantize, scale_bits=32)
            assert_static_equals_live(m, params, rand_samples(m, 2, seed=7))

    def test_random_stacks(self):
        rng = np.random.default_rng(2024)
        checked = 0
        seen, branches = set(), set()
        for _ in range(1000):
            m = random_stack(rng)
            params = HEParams(poly_degree=int(rng.choice([2048, 4096])), depth=int(rng.integers(8, 13)),
                              quantize=bool(rng.random() < 0.5))
            if not validate(m, params).ok:
                continue
            assert_static_equals_live(m, params, rand_samples(m, int(rng.integers(1, 3)), seed=checked))
            seen.update(type(layer).__name__ for layer in m.layers)
            branches |= flatten_branches(m)
            checked += 1
            if checked == 300:
                break
        assert checked == 300
        assert seen == {"Conv2d", "Conv1d", "AvgPool2d", "Square", "ApproxReLU", "Flatten", "FC"}
        assert {masked or row for masked, row, _ in branches} == {True, False}
        assert {row for _, row, _ in branches} == {True, False} and {col for *_, col in branches} == {True, False}

    def test_alignment_row_is_typed(self):
        m = builtin("M1")
        _, live, _ = run_inference(m, rand_samples(m, 1), PARAMS)
        want = estimate_cost(live, PARAMS, depth_override=13)
        for metrics in (live, ledger_metrics(m, PARAMS)):
            assert [type(r) for r in metrics.per_layer] == [LevelAlignment] + [LayerMetrics] * len(m.layers)
            metrics.per_layer[0].name = "Conv2d"
            metrics.per_layer[1].name = "Drop Level"
            assert estimate_cost(metrics, PARAMS, depth_override=13) == want

    def test_empty_model_has_no_rows(self):
        m = ModelSpec(name="empty", channels=2, height=3, width=3, layers=())
        assert ledger_metrics(m, PARAMS).per_layer == []
        assert_static_equals_live(m, PARAMS, rand_samples(m, 1))


@dataclass(eq=False)
class Doubler(Layer):
    """A layer type the package does not know: it doubles every slot, with one addition per channel."""

    @staticmethod
    def step(lay):
        return lay, 0

    def schedule(self, backend, state):
        return CipherState(backend.add(state.ct, state.ct), state.layout)

    @staticmethod
    def ledger(lay, level):
        return [("add", level, lay.channels)]

    def forward(self, x):
        return x + x


class TestUnregisteredLayer:
    """A new ``Layer`` subclass runs, prices and checks against the oracle with nothing registered for it."""

    def test_inference_ledger_and_oracle(self):
        rng = np.random.default_rng(71)
        conv = Conv2d(ch_in=1, ch_out=2, kernel=3, stride=1, weights=rng.uniform(-1, 1, (2, 1, 3, 3)), bias=rng.uniform(-1, 1, 2))
        fc = FC(dat_in=8, dat_out=3, weights=rng.uniform(-1, 1, (3, 8)), bias=rng.uniform(-1, 1, 3))
        m = ModelSpec(name="doubled", channels=1, height=6, width=6,
                      layers=(conv, Doubler(), AvgPool2d(kernel=2), Doubler(), Square(), Flatten(), fc))
        assert validate(m, PARAMS).ok
        samples = rand_samples(m, 3, seed=5)
        outputs, metrics, _ = run_inference(m, samples, PARAMS)
        assert all(np.array_equal(out, reference_infer(m, x)) for out, x in zip(outputs, samples))
        assert [r.name for r in metrics.per_layer][2] == "Doubler" and metrics.per_layer[2].adds == 2
        assert_static_equals_live(m, PARAMS, samples)


class TestSampleIsolation:
    @pytest.mark.parametrize("name", ["M1", "M2", "M3", "M4", "M5", "M6", "M7"])
    def test_overflowing_sample_leaves_neighbours_bit_identical(self, name):
        m = builtin(name)
        plan = footprint(m, PARAMS)
        xs = np.random.default_rng(11).uniform(0.0, 1.0, size=(plan.capacity, m.channels, m.height, m.width))
        clean, _, _ = run_inference(m, xs, PARAMS, plan=plan)
        xs[1, 0, m.height // 2, m.width // 2] = 1e200
        with np.errstate(all="ignore"):
            dirty, _, _ = run_inference(m, xs, PARAMS, plan=plan)
        assert not np.isfinite(dirty[1]).all()
        for i in range(plan.capacity):
            if i != 1:
                assert dirty[i].tobytes() == clean[i].tobytes(), f"sample {i}"


class TestKeptDiagonals:
    """Each FC forms its plaintext diagonals on the first inference that needs them and keeps them."""

    def test_formed_once_across_inferences(self):
        m = builtin("M1")
        plan = footprint(m, PARAMS)
        fcs = [layer for layer in m.layers if isinstance(layer, FC)]
        samples = rand_samples(m, 3, seed=1)
        assert all(fc._diagonals is None for fc in fcs)
        first, _, _ = run_inference(m, samples, PARAMS, plan=plan)
        kept = [fc._diagonals[2] for fc in fcs]
        again, _, _ = run_inference(m, samples, PARAMS, plan=plan)
        assert all(fc._diagonals[2] is diag for fc, diag in zip(fcs, kept))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))

    def test_kept_diagonals_cannot_go_stale(self):
        """Layer tensors are read-only, a caller's array is copied, and weights rebound to a writeable array are never kept."""
        rng = np.random.default_rng(2)
        weights = rng.uniform(-1, 1, (3, 8))
        fc = FC(dat_in=8, dat_out=3, weights=weights, bias=np.zeros(3))
        weights[0, 0] = 5.0
        assert fc.weights[0, 0] != 5.0
        m = ModelSpec("fc", 1, 1, 8, (Flatten(), fc))
        samples = rand_samples(m, 2, seed=3)
        run_inference(m, samples, PARAMS)
        with pytest.raises(ValueError):
            fc.weights[0, 0] = 5.0
        with pytest.raises(ValueError):
            fc.bias[0] = 5.0
        fc.weights = weights  # writeable, so read afresh on every run, in-place changes included
        for value in (5.0, -2.0):
            weights[0, 0] = value
            outputs, _, _ = run_inference(m, samples, PARAMS)
            fresh = ModelSpec("fc", 1, 1, 8, (Flatten(), FC(dat_in=8, dat_out=3, weights=weights, bias=np.zeros(3))))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(outputs, run_inference(fresh, samples, PARAMS)[0]))


def fuzz_case(seed):
    """A valid ``random_stack`` model at 1024 slots with two or three samples."""
    rng = np.random.default_rng(seed)
    m = random_stack(rng)
    params = HEParams(poly_degree=2048, depth=int(rng.integers(8, 12)))
    assume(validate(m, params).ok)
    plan = footprint(m, params)
    assume(plan.capacity >= 2)
    xs = rng.uniform(0.0, 1.0, size=(min(3, plan.capacity), m.channels, m.height, m.width))
    return m, params, plan, xs


class TestRandomStackProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batched_equals_solo(self, seed):
        m, params, plan, xs = fuzz_case(seed)
        batched, _, _ = run_inference(m, xs, params, plan=plan)
        for i, x in enumerate(xs):
            solo, _, _ = run_inference(m, x[None], params, plan=plan)
            assert batched[i].tobytes() == solo[0].tobytes(), f"sample {i}"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_overflowing_sample_leaves_neighbours_bit_identical(self, seed):
        m, params, plan, xs = fuzz_case(seed)
        clean, _, _ = run_inference(m, xs, params, plan=plan)
        xs[1, 0, m.height // 2, m.width // 2] = 1e200
        with np.errstate(all="ignore"):
            dirty, _, _ = run_inference(m, xs, params, plan=plan)
        for i in range(len(xs)):
            if i != 1:
                assert dirty[i].tobytes() == clean[i].tobytes(), f"sample {i}"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_solo_equals_oracle_when_pool_kernels_are_2(self, seed):
        m, params, plan, xs = fuzz_case(seed)
        assume(all(layer.kernel == 2 for layer in m.layers if isinstance(layer, AvgPool2d)))
        solo, _, _ = run_inference(m, xs[:1], params, plan=plan)
        assert solo[0].tobytes() == reference_infer(m, xs[0]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_static_level_trace_equals_live_trace(self, seed):
        m, params, plan, xs = fuzz_case(seed)
        per_layer = [row.mults for row in plan.trace]
        total = sum(per_layer)
        _, metrics, _ = run_inference(m, xs[:1], params, plan=plan)
        static = list(itertools.accumulate(per_layer, lambda level, used: level - used, initial=total))
        assert [row.level_after for row in metrics.per_layer] == (static if m.layers else [])  # no Drop Level row when empty


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_static_ledger_equals_live_ledger(self, seed):
        m, params, _, xs = fuzz_case(seed)
        assert_static_equals_live(m, params, xs)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_live_layout_equals_static_trace(self, seed):
        m, params, plan, _ = fuzz_case(seed)
        backend = Backend(params)
        ct = backend.encrypt([backend.encode([])] * m.channels)
        state = CipherState(ct, m.input_layout(plan.offsets, plan.footprint))
        for layer, row in zip(m.layers, trace_layout(m)):
            state = apply_layer(backend, state, layer)
            assert state.layout._replace(batch_offsets=(), footprint=0) == row.after


class TestCompactStacks:
    """Stacks that store only their live slots change no decrypted slot of any layer."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), quantize=st.booleans())
    def test_layer_bytes_equal_an_all_full_width_run(self, seed, quantize):
        m, params, _, xs = fuzz_case(seed)
        params = dataclasses.replace(params, quantize=quantize)
        compact = stage_bytes(m, xs, params)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(he_backend, "_COMPACT_SHARE", 0)  # no masked sum is sparse enough: every stack is full-width
            full = stage_bytes(m, xs, params)
        assert compact == full

    def test_sparse_conv_outputs_are_compact(self, monkeypatch):
        """M1's conv (810 live slots of 8192) and M4's convs after the first pooling leave compact stacks; M3, M6 and M7 do not."""
        kept = []
        apply = engine.apply_layer
        monkeypatch.setattr(engine, "apply_layer", lambda be, state, layer: kept.append(apply(be, state, layer)) or kept[-1])
        compact = {}
        for name in ("M1", "M3", "M4", "M6", "M7"):
            m = builtin(name)
            kept.clear()
            run_inference(m, rand_samples(m, 1), PARAMS)
            compact[name] = [state.ct.slots is not None for layer, state in zip(m.layers, kept) if isinstance(layer, (Conv1d, Conv2d))]
        assert compact == {"M1": [True], "M3": [False], "M4": [False, True, True], "M6": [False], "M7": [False, False]}


def presum_models():
    """Two models whose flatten row-removal pre-sum reads past the input footprint."""
    rng = np.random.default_rng(0)
    u = lambda *shape: rng.uniform(-1.0, 1.0, shape)  # noqa: E731
    squared = ModelSpec(name="presum-square", channels=1, height=1, width=15, layers=(
        Conv1d(ch_in=1, ch_out=2, kernel=3, stride=3, weights=u(2, 1, 3), bias=u(2)),
        Conv1d(ch_in=2, ch_out=3, kernel=3, stride=2, weights=u(3, 2, 3), bias=u(3)),
        Square(), Flatten(), FC(dat_in=6, dat_out=2, weights=u(2, 6), bias=u(2))))
    relu = ModelSpec(name="presum-relu", channels=2, height=1, width=14, layers=(
        Conv1d(ch_in=2, ch_out=2, kernel=3, stride=3, weights=u(2, 2, 3), bias=u(2)),
        ApproxReLU(),
        Conv1d(ch_in=2, ch_out=2, kernel=2, stride=2, weights=u(2, 2, 2), bias=u(2)),
        Flatten(), FC(dat_in=4, dat_out=3, weights=u(3, 4), bias=u(3))))
    return [squared, relu]


class TestFlattenPreSumReach:
    """Row removal at interval 6 reads 25 slots past its last kept slot; the planner reserves them."""

    @pytest.mark.parametrize("m", presum_models(), ids=lambda m: m.name)
    def test_solo_and_batched_equal_oracle(self, m):
        params = HEParams(poly_degree=2048)
        plan = footprint(m, params)
        assert plan.footprint == 27
        xs = np.random.default_rng(1).uniform(0.0, 1.0, size=(4, m.channels, m.height, m.width))
        batched, _, _ = run_inference(m, xs, params, plan=plan)
        for i, x in enumerate(xs):
            solo, _, _ = run_inference(m, x[None], params, plan=plan)
            want = reference_infer(m, x)
            assert solo[0].tobytes() == want.tobytes(), f"sample {i}"
            assert batched[i].tobytes() == want.tobytes(), f"sample {i}"


class TestPlanBelongsToModel:
    """A plan carries the model and layout trace it was made from; inference reads them instead of walking the layers."""

    def test_plan_of_another_model_refused_before_any_op(self):
        m, params = presum_models()[0], HEParams(poly_degree=2048)
        other = ModelSpec(name="square", channels=1, height=1, width=15, layers=(Square(),))
        foreign = footprint(other, params)
        assert foreign.footprint == 15 and footprint(m, params).footprint == 27
        backend = Backend(params)
        xs = np.random.default_rng(1).uniform(0.0, 1.0, size=(2, 1, 1, 15))
        with pytest.raises(SlotCnnError, match="plan was made for another model"):
            run_inference(m, xs, params, plan=foreign, backend=backend)
        assert backend.counter.by_level == {}

    def test_plan_made_under_a_larger_budget_is_rechecked(self):
        m = builtin("M1")
        plan = footprint(m, PARAMS)
        with pytest.raises(SlotCnnError, match="model failed validation: depth budget exceeded"):
            run_inference(m, rand_samples(m, 1), HEParams(depth=6), plan=plan)

    def test_infer_runs_the_plans_trace(self):
        m = builtin("M1")
        plan = footprint(m, PARAMS)
        assert plan.model is m and [row.layer for row in plan.trace] == list(m.layers)
        _, metrics, _ = run_inference(m, rand_samples(m, 1), PARAMS, plan=plan)
        assert [row.name for row in metrics.per_layer[1:]] == [row.name for row in plan.trace]


class TestMemory:
    def test_m5_full_batch_peak_below_30_mb(self):
        m = builtin("M5")
        plan = footprint(m, PARAMS)
        xs = np.random.default_rng(3).uniform(0.0, 1.0, size=(plan.capacity, m.channels, m.height, m.width))
        run_inference(m, xs, PARAMS, plan=plan)
        tracemalloc.start()
        try:
            run_inference(m, xs, PARAMS, plan=plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30e6, f"peak {peak / 1e6:.1f} MB"


class KeyRecordingBackend(Backend):
    """Notes every rotation amount a schedule passes to ``Backend.rotate``, as ``r % num_slots``."""

    def __init__(self, params):
        super().__init__(params)
        self.amounts = set()

    def rotate(self, cipher, r):
        self.amounts.add(r % self.num_slots)
        return super().rotate(cipher, r)


ROTATION_KEYS = {"M1": 95, "M2": 74, "M3": 145, "M4": 241, "M5": 176, "M6": 79, "M7": 45}


@pytest.fixture(scope="module")
def rotation_keys():
    """The distinct rotation amounts of one solo run of every built-in at the default 8192 slots."""
    keys = {}
    for name in builtin_names():
        m, backend = builtin(name), KeyRecordingBackend(PARAMS)
        run_inference(m, rand_samples(m, 1), PARAMS, backend=backend)
        keys[name] = backend.amounts
    return keys


class TestRotationKeys:
    """Every rotation of a schedule goes through ``Backend.rotate``: the Galois-key set a subclass sees is pinned."""

    @pytest.mark.parametrize("name", sorted(ROTATION_KEYS))
    def test_distinct_amounts_per_builtin(self, rotation_keys, name):
        assert len(rotation_keys[name]) == ROTATION_KEYS[name]

    @pytest.mark.parametrize("names,count", [(("M4", "M5"), 253), (("M1", "M3", "M6", "M7"), 181), (tuple(ROTATION_KEYS), 342)])
    def test_union_over_each_benchmark_workload(self, rotation_keys, names, count):
        assert len(set().union(*(rotation_keys[name] for name in names))) == count
