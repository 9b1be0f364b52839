"""Model descriptions, validation, depth accounting, and the plaintext oracle."""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from helpers import random_stack, single_layout
from slotcnn import (
    FC,
    ApproxReLU,
    AvgPool2d,
    Conv1d,
    Conv2d,
    Flatten,
    HEParams,
    ModelSpec,
    RELU_COEFFS,
    Square,
    builtin,
    builtin_names,
    load_model,
    model_from_dict,
    model_to_dict,
    reference_infer,
    run_inference,
    trace_layout,
    validate,
)
from slotcnn.cli import main
from slotcnn.errors import (
    NonDivisibleDims,
    NotFlattened,
    PaddingUnsupported,
    ParseError,
    ShapeMismatch,
    UnknownModel,
)

DEPTH_TOTALS = {"M1": 7, "M2": 7, "M3": 9, "M4": 9, "M5": 8, "M6": 7, "M7": 7}
DEPTH_VECTORS = {
    "M1": [1, 1, 2, 1, 1, 1],
    "M2": [1, 1, 0, 1, 1, 0, 2, 1],
    "M3": [1, 2, 0, 2, 1, 2, 1],
    "M4": [1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1],
    "M5": [1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1],
    "M6": [1, 1, 2, 1, 1, 1],
    "M7": [1, 1, 1, 1, 1, 1, 1],
}
FLATTEN_MULTS = {"M1": 2, "M2": 2, "M3": 2, "M4": 0, "M5": 1, "M6": 2, "M7": 1}


def tiny_conv(ch_in=1, ch_out=1, kernel=2, stride=1, padding=0, fill=1.0):
    w = np.full((ch_out, ch_in, kernel, kernel), fill)
    return Conv2d(ch_in=ch_in, ch_out=ch_out, kernel=kernel, stride=stride, padding=padding,
                  weights=w, bias=np.zeros(ch_out))


def tiny_fc(d_in, d_out, rng=None):
    rng = rng or np.random.default_rng(0)
    return FC(dat_in=d_in, dat_out=d_out, weights=rng.uniform(-1, 1, (d_out, d_in)),
              bias=rng.uniform(-1, 1, d_out))


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ["M1", "M2", "M3", "M4", "M5", "M6", "M7"]

    def test_unknown(self):
        with pytest.raises(UnknownModel):
            builtin("M99")

    def test_case_insensitive(self):
        assert builtin("m3").name == "M3"

    def test_m2_layer_list(self):
        m = builtin("M2")
        kinds = [type(l).__name__ for l in m.layers]
        assert kinds == ["Conv2d", "Square", "AvgPool2d", "Conv2d", "Square", "AvgPool2d", "Flatten", "FC"]
        c1, c2 = m.layers[0], m.layers[3]
        assert (c1.ch_in, c1.ch_out, c1.kernel, c1.stride) == (1, 4, 5, 1)
        assert (c2.ch_in, c2.ch_out, c2.kernel, c2.stride) == (4, 12, 5, 1)
        assert m.layers[2].kernel == 2 and m.layers[5].kernel == 2
        assert (m.layers[7].dat_in, m.layers[7].dat_out) == (192, 10)
        assert m.input_shape == {"channels": 1, "height": 28, "width": 28}

    def test_m7_layer_list(self):
        m = builtin("M7")
        kinds = [type(l).__name__ for l in m.layers]
        assert kinds == ["Conv1d", "Square", "Conv1d", "Flatten", "FC", "Square", "FC"]
        c1, c2 = m.layers[0], m.layers[2]
        assert (c1.ch_in, c1.ch_out, c1.kernel, c1.stride) == (1, 2, 2, 2)
        assert (c2.ch_in, c2.ch_out, c2.kernel, c2.stride) == (2, 4, 2, 2)
        assert (m.layers[4].dat_in, m.layers[4].dat_out) == (128, 32)
        assert (m.layers[6].dat_in, m.layers[6].dat_out) == (32, 5)
        assert m.input_shape == {"channels": 1, "height": 1, "width": 128}

    def test_input_shapes(self):
        shapes = {name: tuple(builtin(name).input_shape.values()) for name in builtin_names()}
        assert shapes == {
            "M1": (1, 28, 28),
            "M2": (1, 28, 28),
            "M3": (1, 28, 28),
            "M4": (1, 32, 32),
            "M5": (3, 32, 32),
            "M6": (1, 16, 16),
            "M7": (1, 1, 128),
        }

    def test_seeded_weights_deterministic(self):
        a, b = builtin("M1", seed=4), builtin("M1", seed=4)
        assert np.array_equal(a.layers[0].weights, b.layers[0].weights)
        c = builtin("M1", seed=5)
        assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)

    def test_weight_range(self):
        for name in builtin_names():
            for layer in builtin(name).layers:
                for attr in ("weights", "bias"):
                    arr = getattr(layer, attr, None)
                    if arr is not None:
                        assert np.all(arr >= -0.5) and np.all(arr < 0.5)

    def test_seeded_weights_pinned(self):
        """The draw order and generator stay fixed: these are the weights every seeded run has used."""
        digest = hashlib.sha256()
        for seed in (0, 1, 7):
            for name in builtin_names():
                for layer in builtin(name, seed=seed).layers:
                    for attr in ("weights", "bias"):
                        if hasattr(layer, attr):
                            digest.update(getattr(layer, attr).tobytes())
        assert digest.hexdigest() == "c7ecc5ccee611411644d168b5e619e4bf05fc3ecc183d5f27d7ec0724f933018"

    @pytest.mark.parametrize("name", builtin_names())
    def test_architecture_only_placeholders(self, name):
        """Without weights, every tensor is a read-only NaN view of one value, on the seeded model's layers."""
        bare, seeded = builtin(name, seed=3, weights=False), builtin(name, seed=3)
        assert [type(l) for l in bare.layers] == [type(l) for l in seeded.layers]
        for layer, drawn in zip(bare.layers, seeded.layers):
            for attr in ("weights", "bias"):
                if hasattr(layer, attr):
                    arr = getattr(layer, attr)
                    assert arr.shape == getattr(drawn, attr).shape and not any(arr.strides)
                    assert np.isnan(arr).all() and not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr.flat[0] = 0.0
        assert [r[2:] for r in trace_layout(bare)] == [r[2:] for r in trace_layout(seeded)]

    def test_architecture_only_inference_is_nan(self):
        m = builtin("M7", weights=False)
        outputs, _, _ = run_inference(m, np.full((2, 1, 1, 128), 0.5), HEParams())
        assert all(np.isnan(out).all() for out in outputs)


class TestDepthAccounting:
    @pytest.mark.parametrize("name", sorted(DEPTH_TOTALS))
    def test_totals(self, name):
        report = validate(builtin(name), HEParams())
        assert report.total_mults == DEPTH_TOTALS[name]
        assert [row.mults for row in report.trace] == DEPTH_VECTORS[name]

    @pytest.mark.parametrize("name", sorted(FLATTEN_MULTS))
    def test_flatten_contribution(self, name):
        m = builtin(name)
        per_layer = [row.mults for row in trace_layout(m)]
        idx = next(i for i, l in enumerate(m.layers) if isinstance(l, Flatten))
        assert per_layer[idx] == FLATTEN_MULTS[name]


def flatten_dispatch(gaps_zero, pending_one, interval, w_in, h_in):
    """:meth:`Flatten.dispatch` of a one-channel layout with these facts."""
    lay = single_layout(1, h_in, w_in, interval=interval, pending=1.0 if pending_one else 0.25, gaps_zero=gaps_zero)
    return Flatten.dispatch(lay)


class TestFlattenDispatch:
    def test_masked_when_gaps_garbage(self):
        assert flatten_dispatch(False, True, 2, 4, 4) == (True, False, True)

    def test_masked_when_constant_pending(self):
        assert flatten_dispatch(True, False, 1, 4, 1) == (True, False, False)

    def test_row_removal_when_clean_and_strided(self):
        assert flatten_dispatch(True, True, 3, 9, 9) == (False, True, True)

    def test_nothing_when_single_column(self):
        assert flatten_dispatch(True, True, 4, 1, 1) == (False, False, False)

    def test_column_only_when_interval_one(self):
        assert flatten_dispatch(True, True, 1, 4, 4) == (False, False, True)


class TestTraceLayout:
    def test_m1_conv_dims(self):
        rows = trace_layout(builtin("M1"))
        conv = rows[0]
        assert (conv.after.h_in, conv.after.w_in, conv.after.channels, conv.after.interval) == (9, 9, 8, 3)
        flat = rows[2]
        assert flat.after.w_in == 648

    def test_fc_names_numbered(self):
        rows = trace_layout(builtin("M1"))
        assert [r.name for r in rows] == ["Conv2d", "Square", "Flatten", "FC1", "Square", "FC2"]

    def test_channel_mismatch(self):
        m = ModelSpec("x", 2, 4, 4, (tiny_conv(ch_in=1),))
        with pytest.raises(ShapeMismatch):
            trace_layout(m)

    def test_kernel_exceeds_input(self):
        m = ModelSpec("x", 1, 3, 3, (tiny_conv(kernel=4),))
        with pytest.raises(ShapeMismatch):
            trace_layout(m)

    def test_conv1d_needs_height_one(self):
        layer = Conv1d(ch_in=1, ch_out=1, kernel=2, stride=1, weights=np.ones((1, 1, 2)), bias=np.zeros(1))
        m = ModelSpec("x", 1, 2, 8, (layer,))
        with pytest.raises(ShapeMismatch):
            trace_layout(m)

    def test_fc_without_flatten(self):
        m = ModelSpec("x", 1, 1, 4, (tiny_fc(4, 2),))
        with pytest.raises(NotFlattened):
            trace_layout(m)

    def test_second_flatten_stops_the_walk_at_its_index(self):
        m = ModelSpec("x", 1, 2, 2, (Flatten(), tiny_fc(4, 4), Flatten(), tiny_fc(4, 2)))
        with pytest.raises(NotFlattened, match="at most one flatten") as err:
            trace_layout(m)
        assert err.value.layer_index == 2

    def test_fc_dims_must_chain(self):
        m = ModelSpec("x", 1, 2, 2, (Flatten(), tiny_fc(5, 2)))
        with pytest.raises(ShapeMismatch):
            trace_layout(m)

    def test_pool_divisibility(self):
        m = ModelSpec("x", 1, 5, 5, (AvgPool2d(kernel=2),))
        with pytest.raises(NonDivisibleDims):
            trace_layout(m)

    def test_error_tagged_with_layer_index(self):
        m = ModelSpec("x", 1, 4, 4, (Square(), AvgPool2d(kernel=3)))
        with pytest.raises(NonDivisibleDims) as exc:
            trace_layout(m)
        assert exc.value.layer_index == 1


class TestValidate:
    def test_m1_ok_at_depth_11(self):
        report = validate(builtin("M1"), HEParams(depth=11))
        assert report.ok and report.total_mults == 7 and report.violations == []

    def test_depth_budget_violation(self):
        report = validate(builtin("M1"), HEParams(depth=6))
        assert not report.ok
        rules = [v["rule"] for v in report.violations]
        assert rules == ["depth_budget"]
        assert "depth budget exceeded" in report.violations[0]["message"]

    def test_kernel_smaller_than_stride(self):
        m = ModelSpec("x", 1, 9, 9, (tiny_conv(kernel=2, stride=3),))
        report = validate(m, HEParams())
        assert any(v["rule"] == "kernel_stride" for v in report.violations)

    def test_padding_over_half_kernel(self):
        with pytest.raises(PaddingUnsupported):
            tiny_conv(kernel=2, stride=1, padding=2)

    def test_padding_flagged_unsupported(self, tmp_path, capsys):
        doc = model_to_dict(ModelSpec("x", 1, 9, 9, (tiny_conv(kernel=3, stride=1),)))
        doc["layers"][0]["padding"] = 1
        with pytest.raises(PaddingUnsupported):
            model_from_dict(doc)
        path = tmp_path / "padded.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", "--model", str(path)]) == 2
        assert "padding must be 0" in capsys.readouterr().err

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_reported_not_raised(self, stride):
        conv1d = Conv1d(ch_in=1, ch_out=1, kernel=2, stride=stride, weights=np.ones((1, 1, 2)), bias=np.zeros(1))
        for m in (ModelSpec("x", 1, 9, 9, (tiny_conv(stride=stride),)), ModelSpec("x", 1, 1, 9, (conv1d,))):
            report = validate(m, HEParams())
            assert [v["rule"] for v in report.violations] == ["shape"]
            assert "stride must be at least 1" in report.violations[0]["message"]

    def test_zero_kernel_refused_by_the_conv_step(self):
        doc = model_to_dict(builtin("M7"))
        doc["layers"][0].update(kernel=0, weights=[])
        m = model_from_dict(doc)
        with pytest.raises(ShapeMismatch, match="conv1d kernel must be at least 1, got 0") as err:
            trace_layout(m)
        assert err.value.layer_index == 0
        report = validate(m, HEParams())
        assert [(v["layer"], v["rule"]) for v in report.violations] == [(0, "shape")]
        conv2d = ModelSpec("x", 1, 9, 9, (Conv2d(ch_in=1, ch_out=1, kernel=0, stride=1, weights=[], bias=[0.0]),))
        with pytest.raises(ShapeMismatch, match="conv2d kernel must be at least 1"):
            trace_layout(conv2d)

    def test_shape_chain_violation_reported_not_raised(self):
        m = ModelSpec("x", 1, 5, 5, (AvgPool2d(kernel=2),))
        report = validate(m, HEParams())
        assert any(v["rule"] == "shape" and v["layer"] == 0 for v in report.violations)

    def test_fc_requires_flatten(self):
        m = ModelSpec("x", 1, 1, 4, (tiny_fc(4, 2),))
        report = validate(m, HEParams())
        assert any(v["rule"] == "flatten_structure" for v in report.violations)

    def test_at_most_one_flatten(self):
        m = ModelSpec("x", 1, 2, 2, (Flatten(), Flatten()))
        report = validate(m, HEParams())
        assert any(v["rule"] == "flatten_structure" for v in report.violations)

    def test_flatten_must_precede_fc(self):
        m = ModelSpec("x", 1, 1, 4, (tiny_fc(4, 2), Flatten()))
        report = validate(m, HEParams())
        assert any(v["rule"] == "flatten_structure" for v in report.violations)

    @pytest.mark.parametrize("layers", [(tiny_fc(4, 2),), (tiny_fc(4, 2), Flatten())], ids=["no-flatten", "flatten-after"])
    def test_placement_fault_reported_once(self, layers):
        report = validate(ModelSpec("x", 1, 1, 4, layers), HEParams())
        assert [(v["layer"], v["rule"]) for v in report.violations] == [(0, "flatten_structure")]
        assert report.violations[0]["message"] == "a fully connected layer requires a preceding flatten"

    def test_stride_headroom_violation(self):
        """A stride past the grid is one fault: a kernel at least as wide as its stride keeps every output on the grid."""
        m = ModelSpec("x", 1, 4, 4, (tiny_conv(kernel=1, stride=3),))
        report = validate(m, HEParams())
        assert [(v["layer"], v["rule"]) for v in report.violations] == [(0, "kernel_stride")]

    def test_all_builtins_validate(self):
        for name in builtin_names():
            assert validate(builtin(name), HEParams()).ok


class TestOracleBasics:
    def test_square_scalar(self):
        x = np.array([[[1.5]]])
        assert Square().forward(x)[0, 0, 0] == 2.25

    def test_avgpool_mean(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert AvgPool2d(kernel=2).forward(x)[0, 0, 0] == 2.5

    def test_avgpool_matches_window_means(self):
        rng = np.random.default_rng(0)
        for c in (2, 3):
            x = rng.uniform(-1, 1, (3, 6, 6))
            got = AvgPool2d(kernel=c).forward(x)
            h, w = 6 // c, 6 // c
            want = np.zeros((3, h, w))
            for ch in range(3):
                for r in range(h):
                    for q in range(w):
                        want[ch, r, q] = x[ch, r * c : (r + 1) * c, q * c : (q + 1) * c].mean()
            assert np.allclose(got, want, atol=1e-15)

    def test_relu_polynomial(self):
        a0, a1, a2 = RELU_COEFFS
        layer = ApproxReLU()
        assert layer.forward(np.zeros((1, 1, 1)))[0, 0, 0] == a0
        got = layer.forward(np.ones((1, 1, 1)))[0, 0, 0]
        assert got == pytest.approx(0.992444, abs=1e-9)
        assert got == (a2 * 1.0 + a1) * 1.0 + a0

    def test_flatten_row_major(self):
        x = np.arange(12.0).reshape(2, 2, 3)
        assert np.array_equal(Flatten().forward(x), np.arange(12.0))

    def test_padding_rejected(self):
        with pytest.raises(PaddingUnsupported):
            tiny_conv(kernel=3, padding=1)


class TestOracleConv:
    def brute_conv2d(self, layer, x):
        k, s = layer.kernel, layer.stride
        h_out = (x.shape[1] - k) // s + 1
        w_out = (x.shape[2] - k) // s + 1
        out = np.zeros((layer.ch_out, h_out, w_out))
        for o in range(layer.ch_out):
            for r in range(h_out):
                for q in range(w_out):
                    acc = 0.0
                    for i in range(layer.ch_in):
                        acc += np.sum(layer.weights[o, i] * x[i, r * s : r * s + k, q * s : q * s + k])
                    out[o, r, q] = acc + layer.bias[o]
        return out

    def test_conv2d_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for kernel, stride, ch_in, ch_out, dim in [(2, 1, 1, 1, 4), (3, 2, 2, 3, 7), (4, 3, 3, 2, 10)]:
            layer = Conv2d(ch_in=ch_in, ch_out=ch_out, kernel=kernel, stride=stride,
                           weights=rng.uniform(-1, 1, (ch_out, ch_in, kernel, kernel)),
                           bias=rng.uniform(-1, 1, ch_out))
            x = rng.uniform(-1, 1, (ch_in, dim, dim))
            assert np.allclose(layer.forward(x), self.brute_conv2d(layer, x), atol=1e-12)

    def test_conv1d_matches_brute_force(self):
        rng = np.random.default_rng(2)
        layer = Conv1d(ch_in=2, ch_out=3, kernel=3, stride=2,
                       weights=rng.uniform(-1, 1, (3, 2, 3)), bias=rng.uniform(-1, 1, 3))
        x = rng.uniform(-1, 1, (2, 1, 11))
        got = layer.forward(x)
        w_out = (11 - 3) // 2 + 1
        want = np.zeros((3, 1, w_out))
        for o in range(3):
            for q in range(w_out):
                want[o, 0, q] = sum(
                    np.dot(layer.weights[o, i], x[i, 0, q * 2 : q * 2 + 3]) for i in range(2)
                ) + layer.bias[o]
        assert np.allclose(got, want, atol=1e-12)

    def test_output_size_formula(self):
        for h in range(1, 13):
            for k in range(1, h + 1):
                for s in range(1, k + 1):
                    starts = [r for r in range(0, h - k + 1) if r % s == 0]
                    assert len(starts) == (h - k) // s + 1


class TestOracleFC:
    @pytest.mark.parametrize("d_in,d_out", [(64, 10), (10, 10), (13, 5), (5, 8), (7, 1), (1, 3), (648, 64)])
    def test_fc_matches_matvec(self, d_in, d_out):
        rng = np.random.default_rng(d_in * 31 + d_out)
        layer = tiny_fc(d_in, d_out, rng)
        x = rng.uniform(-1, 1, d_in)
        assert np.allclose(layer.forward(x), layer.weights @ x + layer.bias, atol=1e-12)

    def test_fc_requires_flat_input(self):
        layer = tiny_fc(4, 2)
        with pytest.raises(NotFlattened):
            layer.forward(np.zeros((1, 2, 2)))
        with pytest.raises(ShapeMismatch):
            layer.forward(np.zeros(5))


class TestReferenceInfer:
    def test_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            reference_infer(builtin("M1"), np.zeros((1, 27, 28)))

    def test_m1_end_to_end_shapes(self):
        out = reference_infer(builtin("M1"), np.zeros((1, 28, 28)))
        assert out.shape == (10,)

    def test_only_layers_reach_the_oracle(self):
        """``reference_infer`` calls each layer's ``forward``; a model holds nothing else."""
        with pytest.raises(ParseError, match="unknown layer type object"):
            ModelSpec("x", 1, 2, 2, (Square(), object()))

    def test_matches_layerwise_composition(self):
        m = builtin("M6")
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, (1, 16, 16))
        step = x
        for layer in m.layers:
            step = layer.forward(step)
        assert np.array_equal(reference_infer(m, x), step.reshape(-1))


class TestSerialization:
    def test_round_trip_all_builtins(self):
        rng = np.random.default_rng(8)
        stacks = [random_stack(rng) for _ in range(40)]
        for m in [builtin(name, seed=3) for name in builtin_names()] + stacks:
            m2 = model_from_dict(model_to_dict(m))
            assert m2.name == m.name and m2.input_shape == m.input_shape
            assert len(m2.layers) == len(m.layers)
            for a, b in zip(m.layers, m2.layers):
                assert type(a) is type(b)
                for attr in ("weights", "bias"):
                    if hasattr(a, attr):
                        assert np.array_equal(getattr(a, attr), getattr(b, attr))
            x = rng.uniform(0.0, 1.0, (m.channels, m.height, m.width))
            assert reference_infer(m2, x).tobytes() == reference_infer(m, x).tobytes()

    @pytest.mark.parametrize("layer,key", [(0, "paddng"), (1, "A2"), (3, "kernal"), (4, "dat_in")])
    def test_unknown_layer_keys_refused(self, layer, key):
        doc = model_to_dict(builtin("M3"))
        doc["layers"][layer][key] = 2
        with pytest.raises(ParseError, match=f"layer {layer} \\({doc['layers'][layer]['type']}\\): unknown key '{key}'"):
            model_from_dict(doc)

    @pytest.mark.parametrize("where,key", [("top", "nmae"), ("top", "layer"), ("input", "heigth"), ("input", "depth")])
    def test_unknown_document_and_input_keys_refused(self, where, key):
        doc = model_to_dict(builtin("M7"))
        (doc if where == "top" else doc["input"])[key] = 5
        prefix = "" if where == "top" else "input: "
        with pytest.raises(ParseError, match=f"^{prefix}unknown key '{key}'$"):
            model_from_dict(doc)

    def test_load_model_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model_to_dict(builtin("M7"))))
        m = load_model(str(path))
        assert m.name == "M7" and len(m.layers) == 7

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_model("/nonexistent/model.json")

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_unknown_layer_type(self):
        doc = {"name": "x", "input": {"channels": 1, "height": 2, "width": 2},
               "layers": [{"type": "maxpool2d", "kernel": 2}]}
        with pytest.raises(ParseError):
            model_from_dict(doc)

    def test_missing_key(self):
        doc = {"name": "x", "input": {"channels": 1, "height": 2, "width": 2},
               "layers": [{"type": "fc", "in": 4}]}
        with pytest.raises(ParseError):
            model_from_dict(doc)

    def test_wrong_weight_count(self):
        doc = {"name": "x", "input": {"channels": 1, "height": 2, "width": 2},
               "layers": [{"type": "fc", "in": 4, "out": 2, "weights": [1.0, 2.0], "bias": [0.0, 0.0]}]}
        with pytest.raises(ParseError):
            model_from_dict(doc)

    @pytest.mark.parametrize("key,value", [("stride", 2.9), ("kernel", "2"), ("stride", True), ("in", 1.5), ("out", None)])
    def test_int_fields_refuse_other_values(self, key, value):
        doc = model_to_dict(builtin("M7"))
        doc["layers"][0][key] = value
        with pytest.raises(ParseError, match=f"{key} must be an integer"):
            model_from_dict(doc)

    def test_int_fields_accept_integral_numbers(self):
        doc = model_to_dict(builtin("M7"))
        doc["layers"][0]["stride"] = 2.0
        doc["input"]["width"] = 128.0
        m = model_from_dict(doc)
        assert type(m.layers[0].stride) is int and m.layers[0].stride == 2 and m.width == 128
        doc["input"]["channels"] = "1"
        with pytest.raises(ParseError, match="channels must be an integer"):
            model_from_dict(doc)

    @pytest.mark.parametrize("layer,key,value", [(1, "a0", True), (1, "a1", "0.5"), (1, "a2", "abc"),
                                                 (0, "bias", ["0.5", True, 0, 0, 0, 0]), (0, "bias", [0.5, True, 0, 0, 0, 0]),
                                                 (4, "weights", [[1.0] * 1014, [False] + [1.0] * 1013] * 60)])
    def test_float_fields_and_weights_refuse_booleans_and_strings(self, layer, key, value):
        doc = model_to_dict(builtin("M3"))
        doc["layers"][layer][key] = value
        with pytest.raises(ParseError, match=f"{key}: expected a number, got "):
            model_from_dict(doc)

    def test_float_fields_and_weights_accept_numbers(self):
        doc = model_to_dict(builtin("M3"))
        doc["layers"][1].update(a0=1, a1=-0.5, a2=np.float64(2.0))
        doc["layers"][0]["bias"] = [1, 2.5, -3, 0, 0, 0]
        m = model_from_dict(doc)
        assert (m.layers[1].a0, m.layers[1].a1, m.layers[1].a2) == (1.0, -0.5, 2.0)
        assert m.layers[0].bias.tolist() == [1.0, 2.5, -3.0, 0.0, 0.0, 0.0]

    def test_relu_coefficient_round_trip(self):
        doc = {"name": "x", "input": {"channels": 1, "height": 2, "width": 2},
               "layers": [{"type": "approx_relu", "a0": 1.0, "a1": 2.0, "a2": 3.0}]}
        m = model_from_dict(doc)
        assert (m.layers[0].a0, m.layers[0].a1, m.layers[0].a2) == (1.0, 2.0, 3.0)


class TestGridHeadroomFuzz:
    def test_random_stacks_respect_grid(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(300):
            h = int(rng.integers(6, 25))
            w = int(rng.integers(6, 25))
            layers, ch, cur_h, cur_w = [], 1, h, w
            for _ in range(int(rng.integers(1, 5))):
                if min(cur_h, cur_w) < 2:
                    break
                if rng.random() < 0.5:
                    k = int(rng.integers(1, min(cur_h, cur_w, 5) + 1))
                    s = int(rng.integers(1, k + 1))
                    ch_out = int(rng.integers(1, 4))
                    layers.append(Conv2d(ch_in=ch, ch_out=ch_out, kernel=k, stride=s,
                                         weights=np.zeros((ch_out, ch, k, k)), bias=np.zeros(ch_out)))
                    ch = ch_out
                    cur_h, cur_w = (cur_h - k) // s + 1, (cur_w - k) // s + 1
                else:
                    divisors = [c for c in (2, 3, 4) if cur_h % c == 0 and cur_w % c == 0]
                    if not divisors:
                        continue
                    c = int(rng.choice(divisors))
                    layers.append(AvgPool2d(kernel=c))
                    cur_h, cur_w = cur_h // c, cur_w // c
            if not layers:
                layers.append(tiny_conv(kernel=1, stride=1))
            m = ModelSpec("fuzz", 1, h, w, tuple(layers))
            for row in trace_layout(m):
                assert row.after.h_in * row.after.interval <= h
                assert row.after.w_in * row.after.interval <= w
                checked += 1
        assert checked > 300


def broken_stack(rng, fault):
    """A valid ``random_stack`` model changed to break one rule, and the ``(layer, rule)`` pairs it should report.

    Returns ``None`` when the model drawn is invalid or has no place for ``fault``.  Every rule but the depth
    budget is checked at a budget of 40 levels.  A stride past the image grid is reported as ``kernel_stride``, since
    a kernel at least as wide as its stride keeps every output on the grid.
    """
    m = random_stack(rng)
    report = validate(m, HEParams(depth=40))
    if not report.ok:
        return None
    layers = list(m.layers)
    flat = next((i for i, layer in enumerate(layers) if isinstance(layer, Flatten)), None)
    depth = 40
    if fault in ("stride", "kernel"):
        kinds = (Conv1d, Conv2d, AvgPool2d) if fault == "kernel" else (Conv1d, Conv2d)
        sized = [i for i, layer in enumerate(layers) if isinstance(layer, kinds)]
        if not sized:
            return None
        i = int(rng.choice(sized))
        if fault == "stride":
            layers[i] = dataclasses.replace(layers[i], stride=int(rng.integers(-1, 1)))
        else:
            weights = {} if isinstance(layers[i], AvgPool2d) else {"weights": []}
            layers[i] = dataclasses.replace(layers[i], kernel=0, **weights)
        want = [(i, "shape")]
    elif fault == "pool_kernel":
        i = int(rng.integers(0, len(layers) + 1))
        lay = report.trace[i].before if i < len(layers) else report.trace[-1].after if layers else m.input_layout()
        c = next(c for c in itertools.count(2) if lay.h_in % c or lay.w_in % c)
        layers.insert(i, AvgPool2d(kernel=c))
        want = [(i, "shape")]
    elif fault == "fc_before_flatten":
        i = int(rng.integers(0, len(layers) + 1 if flat is None else flat + 1))
        layers.insert(i, FC(dat_in=2, dat_out=1, weights=np.ones((1, 2)), bias=np.zeros(1)))
        want = [(i, "flatten_structure")]
    elif fault == "second_flatten":
        if flat is None:
            return None
        layers.insert(flat + 1, Flatten())
        want = [(flat + 1, "flatten_structure")]
    elif fault == "stride_past_grid":
        layers = layers[:flat]  # the image part of the model: no flatten or FC reads what the conv leaves
        ch = report.trace[len(layers) - 1].after.channels if layers else m.channels
        layers.append(Conv2d(ch_in=ch, ch_out=1, kernel=1, stride=m.width + 1, weights=np.ones(ch), bias=np.zeros(1)))
        want = [(len(layers) - 1, "kernel_stride")]
    else:  # a depth budget one level short
        depth = report.total_mults - 1
        if depth < 1:
            return None
        want = [(None, "depth_budget")]
    return ModelSpec(m.name, m.channels, m.height, m.width, tuple(layers)), depth, want


class TestBrokenRandomStacks:
    """Random stacks, each changed to break one structural rule, report that rule once, at the layer that breaks it."""

    @pytest.mark.parametrize("fault", ["stride", "kernel", "pool_kernel", "fc_before_flatten", "second_flatten",
                                       "stride_past_grid", "depth"])
    def test_one_fault_one_report(self, tmp_path, capsys, fault):
        cases = 0
        for seed in range(60):
            case = broken_stack(np.random.default_rng(seed), fault)
            if case is None:
                continue
            m, depth, want = case
            report = validate(m, HEParams(depth=depth))
            assert [(v["layer"], v["rule"]) for v in report.violations] == want, f"seed {seed}"
            path = tmp_path / "model.json"
            path.write_text(json.dumps(model_to_dict(m)))
            code = main(["plan", "--model", str(path), "--depth", str(depth)])
            out, err = capsys.readouterr()
            where = ["model" if v["layer"] is None else f"layer {v['layer']}" for v in report.violations]
            lines = "".join(f"invalid ({w}, {v['rule']}): {v['message']}\n" for w, v in zip(where, report.violations))
            assert (code, out, err) == (2, "", lines), f"seed {seed}"
            cases += 1
        assert cases >= 20
