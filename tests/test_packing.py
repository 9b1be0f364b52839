"""Footprint planning, batch packing and unpacking."""

import numpy as np
import pytest

from slotcnn import (
    HEParams,
    ModelSpec,
    PackPlan,
    batch_pack,
    builtin,
    builtin_names,
    flatten_input,
    footprint,
    infer,
    run_inference,
)
from slotcnn.errors import CapacityExceeded, FootprintOverflow, NonFiniteInput, OversizedInput, ShapeMismatch

PARAMS = HEParams()  # 8192 slots

FOOTPRINTS = {"M1": 784, "M2": 813, "M3": 1080, "M4": 1057, "M5": 1123, "M6": 320, "M7": 128}
CAPACITIES = {"M1": 10, "M2": 10, "M3": 7, "M4": 7, "M5": 7, "M6": 25, "M7": 64}


def toy_plan(fp, num_slots, capacity=None):
    cap = num_slots // fp if capacity is None else capacity
    return PackPlan(
        footprint=fp,
        capacity=cap,
        offsets=tuple(i * fp for i in range(cap)),
        per_layer_sizes=({"layer": "input", "slots": fp},),
        num_slots=num_slots,
        model=None,
        trace=(),
    )


class TestFlattenInput:
    def test_row_major(self):
        assert np.array_equal(flatten_input([[[1, 2], [3, 4]]])[0], [1, 2, 3, 4])

    def test_three_channel_image(self):
        vecs = flatten_input(np.zeros((3, 32, 32)))
        assert len(vecs) == 3 and all(v.size == 1024 for v in vecs)

    def test_single_row_signal(self):
        vecs = flatten_input(np.arange(128.0).reshape(1, 1, 128))
        assert len(vecs) == 1 and np.array_equal(vecs[0], np.arange(128.0))

    def test_requires_three_dims(self):
        with pytest.raises(ShapeMismatch):
            flatten_input(np.zeros((4, 4)))


class TestFootprint:
    def test_m1_terms(self):
        plan = footprint(builtin("M1"), PARAMS)
        assert plan.footprint == 784
        by_layer = {e["layer"]: e["slots"] for e in plan.per_layer_sizes}
        assert by_layer["input"] == 784
        assert by_layer["Flatten"] == 648
        assert by_layer["FC1"] == 704
        assert by_layer["FC2"] == 70

    def test_m1_aligned_800(self):
        plan = footprint(builtin("M1"), PARAMS, alignment=800)
        assert plan.footprint == 800
        assert plan.capacity == 10
        assert plan.offsets == tuple(800 * i for i in range(10))

    def test_fc_window_term(self):
        plan = footprint(builtin("M1"), PARAMS)
        fc1 = next(e for e in plan.per_layer_sizes if e["layer"] == "FC1")
        assert fc1["slots"] == 64 * 11 == 704

    def test_m2_pool_headroom(self):
        plan = footprint(builtin("M2"), PARAMS)
        pools = [e["slots"] for e in plan.per_layer_sizes if e["layer"] == "AvgPool2d"]
        assert pools == [784 + 29, 784 + 29]
        assert plan.footprint == 813

    @pytest.mark.parametrize("name", sorted(FOOTPRINTS))
    def test_all_builtin_footprints(self, name):
        plan = footprint(builtin(name), PARAMS)
        assert plan.footprint == FOOTPRINTS[name]
        assert plan.capacity == CAPACITIES[name]
        assert plan.offsets == tuple(i * plan.footprint for i in range(plan.capacity))
        assert plan.footprint >= max(e["slots"] for e in plan.per_layer_sizes)

    @pytest.mark.parametrize("name, reach", [("M1", 697), ("M6", 206), ("M7", 125)])
    def test_flatten_pre_sum_reach(self, name, reach):
        # Row removal reads (interval - 1)**2 slots past the last slot it keeps;
        # the planner reserves exactly that, and no built-in footprint grows.
        plan = footprint(builtin(name), PARAMS)
        assert [e["slots"] for e in plan.per_layer_sizes if e["layer"] == "Flatten pre-sum"] == [reach]
        assert plan.footprint == FOOTPRINTS[name]

    def test_footprint_overflow(self):
        with pytest.raises(FootprintOverflow):
            footprint(builtin("M1"), HEParams(poly_degree=1024, depth=11))

    def test_bad_alignment(self):
        with pytest.raises(ValueError):
            footprint(builtin("M1"), PARAMS, alignment=0)

    def test_to_dict_keys(self):
        doc = footprint(builtin("M7"), PARAMS).to_dict()
        assert sorted(doc) == ["capacity", "footprint", "offsets", "per_layer_sizes"]


class TestBatchPack:
    def test_two_samples_layout(self):
        plan = toy_plan(4, 8)
        out = batch_pack([[np.array([1.0, 2.0])], [np.array([3.0, 4.0])]], plan)
        assert len(out) == 1
        assert np.array_equal(out[0].values, [1, 2, 0, 0, 3, 4, 0, 0])

    def test_single_sample_is_zero_padded_identity(self):
        plan = toy_plan(4, 8)
        vec = np.array([5.0, 6.0, 7.0])
        out = batch_pack([[vec]], plan)
        assert np.array_equal(out[0].values, [5, 6, 7, 0, 0, 0, 0, 0])

    def test_empty_batch(self):
        assert batch_pack([], toy_plan(4, 8)) == []

    def test_capacity_enforced(self):
        plan = footprint(builtin("M1"), PARAMS, alignment=800)
        samples = [[np.zeros(784)] for _ in range(11)]
        with pytest.raises(CapacityExceeded):
            batch_pack(samples, plan)

    def test_oversized_vector(self):
        plan = toy_plan(4, 8)
        with pytest.raises(OversizedInput):
            batch_pack([[np.zeros(5)]], plan)

    def test_channel_count_must_match(self):
        plan = toy_plan(4, 16)
        with pytest.raises(ShapeMismatch):
            batch_pack([[np.zeros(2), np.zeros(2)], [np.zeros(2)]], plan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        plan = toy_plan(4, 8)
        poisoned = np.array([1.0, bad])
        with pytest.raises(NonFiniteInput, match="sample 1 channel 1"):
            batch_pack([[np.ones(2), np.ones(2)], [np.ones(2), poisoned]], plan)
        with pytest.raises(CapacityExceeded):
            batch_pack([[poisoned]] * 3, plan)

    def test_multi_channel_packing(self):
        plan = toy_plan(4, 8)
        out = batch_pack(
            [[np.array([1.0]), np.array([2.0])], [np.array([3.0]), np.array([4.0])]], plan
        )
        assert len(out) == 2
        assert np.array_equal(out[0].values, [1, 0, 0, 0, 3, 0, 0, 0])
        assert np.array_equal(out[1].values, [2, 0, 0, 0, 4, 0, 0, 0])


class TestBatchUnpack:
    """Inference reads each sample's outputs back at its offset; a model with no layers returns its inputs."""

    def test_slices_at_offsets(self):
        m = ModelSpec("identity", 1, 1, 10, ())
        plan = footprint(m, PARAMS, alignment=800)
        assert plan.offsets[:2] == (0, 800)
        outs, _, _ = run_inference(m, np.arange(20.0).reshape(2, 1, 1, 10), PARAMS, plan=plan)
        assert np.array_equal(outs[0], np.arange(10))
        assert np.array_equal(outs[1], np.arange(10, 20))

    def test_count_limits_samples(self):
        m, params = ModelSpec("identity", 1, 1, 4, ()), HEParams(poly_degree=32)
        plan = footprint(m, params)
        packed = batch_pack([[np.arange(4.0) + 4 * i] for i in range(3)], plan)
        outs, _ = infer(m, packed, params, plan, n_samples=3)
        assert len(outs) == 3 and np.array_equal(outs[2], [8, 9, 10, 11])
        assert len(infer(m, packed, params, plan)[0]) == plan.capacity == 4

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        m = ModelSpec("identity", 1, 1, 16, ())
        samples = rng.uniform(-1, 1, (4, 1, 1, 16))
        outs, _, _ = run_inference(m, samples, HEParams(poly_degree=128))
        for sample, out in zip(samples, outs):
            assert np.array_equal(sample.reshape(-1), out)
