"""Command line interface: plan, run, verify, bench."""

import csv
import hashlib
import io
import itertools
import json

import numpy as np
import pytest

from helpers import random_stack, stage_bytes
from slotcnn import HEParams, builtin, builtin_names, estimate_cost, footprint, model_to_dict, run_inference, validate
from slotcnn.cli import _load_samples, main
from slotcnn.errors import ParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, m, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(model_to_dict(m)))
    return str(path)


class TestPlan:
    def test_m1_json(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--builtin", "M1")
        assert code == 0
        doc = json.loads(out)
        assert doc["footprint"] == 784
        assert doc["capacity"] == 10
        assert doc["offsets"] == [784 * i for i in range(10)]

    def test_m1_aligned_800(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--builtin", "M1", "--align", "800")
        assert code == 0
        doc = json.loads(out)
        assert doc["footprint"] == 800 and doc["capacity"] == 10

    def test_depth_budget_failure(self, capsys):
        code, out, err = run_cli(capsys, "plan", "--builtin", "M1", "--depth", "6")
        assert code == 2
        assert "depth budget exceeded" in err

    def test_zero_alignment_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "plan", "--builtin", "M1", "--align", "0")
        assert code == 1 and "error: alignment" in err and out == ""

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--builtin", "M7", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["layer", "slots"]
        assert ["footprint", "128"] in rows and ["capacity", "64"] in rows

    def test_report_file(self, capsys, tmp_path):
        report = tmp_path / "plan.json"
        code, out, _ = run_cli(capsys, "plan", "--builtin", "M6", "--report", str(report))
        assert code == 0
        assert json.loads(report.read_text()) == json.loads(out)

    def test_model_file(self, capsys, tmp_path):
        path = write_model(tmp_path, builtin("M7"))
        code, out, _ = run_cli(capsys, "plan", "--model", path)
        assert code == 0
        assert json.loads(out)["footprint"] == 128


class TestRun:
    def test_m2_report_structure(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--builtin", "M2")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"model", "params", "plan", "per_layer", "totals", "outputs"}
        names = [row["layer"] for row in doc["per_layer"]]
        assert names == [
            "Drop Level", "Conv2d", "Square", "AvgPool2d",
            "Conv2d", "Square", "AvgPool2d", "Flatten", "FC1",
        ]
        assert len(doc["outputs"]) == 1 and len(doc["outputs"][0]) == 10

    def test_batch_of_ten(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--builtin", "M1", "--batch", "10", "--align", "800")
        assert code == 0
        assert len(json.loads(out)["outputs"]) == 10

    def test_json_input_file(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0, 1, (3, 128)).tolist()
        inp = tmp_path / "input.json"
        inp.write_text(json.dumps({"samples": samples}))
        code, out, _ = run_cli(capsys, "run", "--builtin", "M7", "--input", str(inp))
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert len(outputs) == 3 and all(len(o) == 5 for o in outputs)

    def test_csv_input_file(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        inp = tmp_path / "input.csv"
        lines = [",".join(f"{v:.6f}" for v in rng.uniform(0, 1, 256)) for _ in range(2)]
        inp.write_text("\n".join(lines))
        code, out, _ = run_cli(capsys, "run", "--builtin", "M6", "--input", str(inp))
        assert code == 0
        assert len(json.loads(out)["outputs"]) == 2

    def test_csv_input_multi_channel_rejected(self, capsys, tmp_path):
        inp = tmp_path / "input.csv"
        inp.write_text(",".join("0" for _ in range(3072)))
        code, _, err = run_cli(capsys, "run", "--builtin", "M5", "--input", str(inp))
        assert code == 1 and "single-channel" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--builtin", "M7", "--input", "/nonexistent.json")
        assert code == 1 and "error" in err

    def test_wrong_sample_length(self, capsys, tmp_path):
        inp = tmp_path / "input.json"
        inp.write_text(json.dumps({"samples": [[1.0, 2.0]]}))
        code, _, err = run_cli(capsys, "run", "--builtin", "M7", "--input", str(inp))
        assert code == 1

    @pytest.mark.parametrize("samples", [5, [5], [{"a": 1}], [], [[{"a": 1}]]])
    def test_malformed_json_samples_exit_1(self, capsys, tmp_path, samples):
        inp = tmp_path / "input.json"
        inp.write_text(json.dumps({"samples": samples}))
        with pytest.raises(ParseError):
            _load_samples(str(inp), builtin("M7"))
        code, out, err = run_cli(capsys, "run", "--builtin", "M7", "--input", str(inp))
        assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("entry", [[True] * 128, ["0.5"] * 128, [[0.5] * 127 + [False]], [["0.5"] * 128]])
    def test_non_number_sample_values_exit_1(self, capsys, tmp_path, entry):
        inp = tmp_path / "input.json"
        inp.write_text(json.dumps({"samples": [[0.5] * 128, entry]}))
        with pytest.raises(ParseError, match="^sample 1: expected a number"):
            _load_samples(str(inp), builtin("M7"))
        code, out, err = run_cli(capsys, "run", "--builtin", "M7", "--input", str(inp))
        assert code == 1 and out == "" and err.startswith("error: sample 1: ") and err.count("\n") == 1

    @pytest.mark.parametrize("batch", ["-1", "0"])
    def test_bad_batch_exit_1(self, capsys, batch):
        code, out, err = run_cli(capsys, "run", "--builtin", "M1", "--batch", batch)
        assert code == 1 and "error: --batch" in err and out == ""

    def test_non_finite_input_exit_1(self, capsys, tmp_path):
        inp = tmp_path / "input.csv"
        inp.write_text(",".join(["0.5"] * 127 + ["nan"]))
        code, _, err = run_cli(capsys, "run", "--builtin", "M7", "--input", str(inp))
        assert code == 1 and "error: sample 0 channel 0" in err

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--builtin", "M7", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["layer", "rotations", "pt_mults", "ct_mults", "adds", "level_after", "est_cost"]
        assert rows[-1][0] == "totals"

    def test_outputs_match_library(self, capsys, tmp_path):
        from slotcnn import HEParams, reference_infer

        rng = np.random.default_rng(4)
        sample = rng.uniform(0, 1, (1, 1, 128))
        inp = tmp_path / "input.json"
        inp.write_text(json.dumps({"samples": [sample.reshape(-1).tolist()]}))
        code, out, _ = run_cli(capsys, "run", "--builtin", "M7", "--input", str(inp))
        assert code == 0
        got = np.asarray(json.loads(out)["outputs"][0])
        assert np.allclose(got, reference_infer(builtin("M7"), sample), atol=1e-12)


class TestVerify:
    def test_pass_line_and_exit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--builtin", "M7", "--trials", "4")
        assert code == 0
        assert "PASS" in out
        doc = json.loads(out[: out.rindex("PASS")])
        assert doc["max_abs_err"] == 0.0 and doc["argmax_agreement"] == 1.0

    def test_corrupted_weights_file(self, capsys, tmp_path):
        doc = model_to_dict(builtin("M7"))
        doc["layers"][4]["weights"] = doc["layers"][4]["weights"][:100]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", "--model", str(path))
        assert code == 1 and "error" in err

    def test_scale_sweep_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--builtin", "M7", "--trials", "3",
            "--scale-sweep", "16,24,30",
        )
        assert code == 0
        doc = json.loads(out[: out.rindex("PASS")])
        sweep = doc["scale_sweep"]
        assert [entry["scale_bits"] for entry in sweep] == [16, 24, 30]
        assert doc["error_decreases_with_precision"] is True

    def test_zero_trials_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--builtin", "M7", "--trials", "0")
        assert code == 1 and "error: n_trials" in err and "PASS" not in out

    def test_bad_sweep_value(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--builtin", "M7", "--scale-sweep", "a,b")
        assert code == 1

    @pytest.mark.parametrize("sweep", [",", "", " , ", "a,b"])
    def test_bad_or_empty_sweep_refused_before_the_oracle_runs(self, capsys, monkeypatch, sweep):
        from slotcnn import engine

        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle check ran before the sweep was parsed")

        monkeypatch.setattr(engine, "verify_against_oracle", no_oracle)
        code, out, err = run_cli(capsys, "verify", "--builtin", "M7", "--trials", "2", "--scale-sweep", sweep)
        prefix = "error: bad --scale-sweep value" if sweep == "a,b" else "error: --scale-sweep needs at least one value"
        assert code == 1 and out == "" and err.startswith(prefix)

    @pytest.mark.parametrize("sweep", ["0", "16,0"])
    def test_bad_scale_bits_refused_before_the_oracle_runs(self, capsys, monkeypatch, sweep):
        from slotcnn import engine

        calls = []

        def counting_oracle(*args, **kwargs):
            calls.append(args)
            return {"ok": True, "mean_abs_err": 0.0, "max_abs_err": 0.0}

        monkeypatch.setattr(engine, "verify_against_oracle", counting_oracle)
        code, out, err = run_cli(capsys, "verify", "--builtin", "M7", "--trials", "2", "--scale-sweep", sweep)
        assert code == 1 and out == "" and err.startswith("error: scale_bits must be at least 1")
        assert len(calls) == 0


class TestBench:
    def test_m2_conv2_row(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--builtin", "M2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        conv_rows = [r for r in rows if r[0] == "Conv2d"]
        assert conv_rows[1][1] == "100" and conv_rows[1][2] == "1200"

    def test_no_drop_level_row(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--builtin", "M1")
        assert code == 0
        assert "Drop Level" not in out

    def test_depth_sweep_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--builtin", "M1", "--depth-sweep", "7,8,9,10,11")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        costs = [float(r[1]) for r in rows]
        assert [int(r[0]) for r in rows] == [7, 8, 9, 10, 11]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("sweep", [",", "", " , "])
    def test_empty_depth_sweep_exit_1(self, capsys, sweep):
        code, out, err = run_cli(capsys, "bench", "--builtin", "M1", "--depth-sweep", sweep)
        assert code == 1 and out == "" and err.startswith("error: --depth-sweep needs at least one value")

    def test_depth_sweep_below_need_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--builtin", "M1", "--depth-sweep", "3")
        assert code == 1 and "error: budget 3" in err and out == ""

    def test_empty_model_zero_rows(self, capsys, tmp_path):
        doc = {"name": "empty", "input": {"channels": 1, "height": 2, "width": 2}, "layers": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "bench", "--model", str(path))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1  # header only

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--builtin", "M7", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["layer"] == "Conv1d"

    def test_invalid_model_exit(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--builtin", "M3", "--depth", "8")
        assert code == 2 and "depth budget exceeded" in err

    @pytest.mark.parametrize("name", builtin_names())
    def test_json_equals_run_per_layer(self, capsys, name):
        code, out, _ = run_cli(capsys, "bench", "--builtin", name, "--format", "json")
        assert code == 0
        code, run_out, _ = run_cli(capsys, "run", "--builtin", name, "--format", "json")
        assert code == 0
        per_layer = [r for r in json.loads(run_out)["per_layer"] if r["layer"] != "Drop Level"]
        assert json.loads(out) == per_layer

    @pytest.mark.parametrize("seed", range(6))
    def test_model_file_json_and_sweep_equal_run(self, capsys, tmp_path, seed):
        rng = np.random.default_rng(seed)
        m = random_stack(rng)
        while not m.layers or not validate(m, HEParams()).ok:
            m = random_stack(rng)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(m)))
        code, out, _ = run_cli(capsys, "bench", "--model", str(path), "--format", "json")
        assert code == 0
        code, run_out, _ = run_cli(capsys, "run", "--model", str(path), "--format", "json")
        assert json.loads(out) == json.loads(run_out)["per_layer"][1:]
        code, out, _ = run_cli(capsys, "bench", "--model", str(path), "--depth-sweep", "11,12,13")
        _, metrics, _ = run_inference(m, rng.uniform(0.0, 1.0, (1, m.channels, m.height, m.width)), HEParams())
        expected = [[str(d), repr(estimate_cost(metrics, HEParams(), depth_override=d))] for d in (11, 12, 13)]
        assert list(csv.reader(io.StringIO(out)))[1:] == expected

    @pytest.mark.parametrize("name", builtin_names())
    def test_depth_sweep_equals_live_estimate(self, capsys, name):
        code, out, _ = run_cli(capsys, "bench", "--builtin", name, "--depth-sweep", "9,10,11")
        assert code == 0
        m = builtin(name)
        params = HEParams()
        xs = np.random.default_rng(5).uniform(0.0, 1.0, (1, m.channels, m.height, m.width))
        _, metrics, _ = run_inference(m, xs, params)
        expected = [[str(d), repr(estimate_cost(metrics, params, depth_override=d))] for d in (9, 10, 11)]
        assert list(csv.reader(io.StringIO(out)))[1:] == expected


class TestBadModelFiles:
    """A defect in a model file ends in its documented exit code, never a traceback or a vacuous PASS."""

    def model_file(self, tmp_path, name, layer, key, value):
        doc = model_to_dict(builtin(name))
        if key == "weights":
            doc["layers"][layer]["weights"][0] = value
        else:
            doc["layers"][layer][key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", ["plan", "run", "bench", "verify"])
    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_exit_2(self, capsys, tmp_path, command, stride):
        path = self.model_file(tmp_path, "M7", 0, "stride", stride)
        code, out, err = run_cli(capsys, command, "--model", path)
        assert code == 2 and out == ""
        assert err == f"invalid (layer 0, shape): conv1d stride must be at least 1, got {stride}\n"

    @pytest.mark.parametrize("layers", [["fc"], ["fc", "flatten"]], ids=["no-flatten", "flatten-after"])
    def test_placement_fault_printed_once(self, capsys, tmp_path, layers):
        entries = {"fc": {"type": "fc", "in": 4, "out": 2, "weights": [0.5] * 8, "bias": [0.0, 0.0]}, "flatten": {"type": "flatten"}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"name": "x", "input": {"channels": 1, "height": 1, "width": 4},
                                    "layers": [entries[kind] for kind in layers]}))
        code, out, err = run_cli(capsys, "plan", "--model", str(path))
        assert code == 2 and out == ""
        assert err == "invalid (layer 0, flatten_structure): a fully connected layer requires a preceding flatten\n"

    @pytest.mark.parametrize("layer,value", [(0, float("nan")), (3, 1e308)])
    def test_non_finite_error_fails_verify(self, capsys, tmp_path, layer, value):
        path = self.model_file(tmp_path, "M1", layer, "weights", value)
        with np.errstate(all="ignore"):
            code, out, _ = run_cli(capsys, "verify", "--model", path, "--trials", "2")
        assert code == 2 and "PASS" not in out and "FAIL: max |err|" in out
        doc = json.loads(out[: out.rindex("FAIL")])
        assert doc["ok"] is False and not np.isfinite(doc["max_abs_err"])

    @pytest.mark.parametrize("command", ["plan", "run", "bench", "verify"])
    def test_zero_kernel_exit_2(self, capsys, tmp_path, command):
        doc = model_to_dict(builtin("M7"))
        doc["layers"][0].update(kernel=0, weights=[])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--model", str(path))
        assert code == 2 and out == ""
        assert err == "invalid (layer 0, shape): conv1d kernel must be at least 1, got 0\n"

    @pytest.mark.parametrize("command", ["plan", "bench"])
    @pytest.mark.parametrize("layer,key,value", [(1, "a0", True), (1, "a1", "0.5"), (0, "weights", True)])
    def test_boolean_or_string_number_exit_1(self, capsys, tmp_path, command, layer, key, value):
        path = self.model_file(tmp_path, "M3", layer, key, value)
        code, out, err = run_cli(capsys, command, "--model", path)
        assert code == 1 and out == "" and f"error: {key}: expected a number, got {value!r}" in err

    @pytest.mark.parametrize("key,value", [("stride", 2.9), ("kernel", "2")])
    def test_non_integral_field_exit_1(self, capsys, tmp_path, key, value):
        path = self.model_file(tmp_path, "M7", 0, key, value)
        code, out, err = run_cli(capsys, "verify", "--model", path)
        assert code == 1 and out == "" and f"error: {key} must be an integer" in err

    @pytest.mark.parametrize("command", ["plan", "run", "bench", "verify"])
    def test_fc_without_outputs_exit_2(self, capsys, tmp_path, command):
        doc = model_to_dict(builtin("M1"))
        fc = max(i for i, layer in enumerate(doc["layers"]) if layer["type"] == "fc")  # the last layer: nothing reads its output
        doc["layers"][fc].update(out=0, weights=[], bias=[])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--model", str(path))
        assert code == 2 and out == ""
        assert err == f"invalid (layer {fc}, shape): fc needs at least one output, got 0\n"

    @pytest.mark.parametrize("command", ["plan", "run", "bench", "verify"])
    def test_conv_without_outputs_exit_2(self, capsys, tmp_path, command):
        doc = {"name": "c", "input": {"channels": 1, "height": 4, "width": 4},
               "layers": [{"type": "conv2d", "in": 1, "out": 0, "kernel": 2, "stride": 1, "weights": [], "bias": []}]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--model", str(path))
        assert code == 2 and out == ""
        assert err == "invalid (layer 0, shape): conv2d needs at least one output channel, got 0\n"

    @pytest.mark.parametrize("command", ["plan", "bench"])
    @pytest.mark.parametrize("layer,key", [(0, "paddng"), (1, "A2")])
    def test_unknown_layer_key_exit_1(self, capsys, tmp_path, command, layer, key):
        path = self.model_file(tmp_path, "M3", layer, key, 9)
        code, out, err = run_cli(capsys, command, "--model", path)
        kind = model_to_dict(builtin("M3"))["layers"][layer]["type"]
        assert code == 1 and out == "" and err == f"error: layer {layer} ({kind}): unknown key '{key}'\n"

    @pytest.mark.parametrize("command", ["plan", "run", "bench", "verify"])
    @pytest.mark.parametrize("where,key", [("top", "nmae"), ("input", "heigth")])
    def test_unknown_document_or_input_key_exit_1(self, capsys, tmp_path, command, where, key):
        doc = model_to_dict(builtin("M7"))
        (doc if where == "top" else doc["input"])[key] = 5
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--model", str(path))
        assert code == 1 and out == "" and err == f"error: {'input: ' if where == 'input' else ''}unknown key '{key}'\n"


class TestParamsFile:
    """A parameter file whose field has the wrong type is refused, not silently converted or left to crash."""

    @pytest.mark.parametrize("command", ["plan", "run", "bench", "verify"])
    @pytest.mark.parametrize("fields", [{"depth": 11.5}, {"depth": True}, {"scale_bits": "32"}, {"quantize": "no"}, {"quantize": 1}])
    def test_bad_field_type_exit_1(self, capsys, tmp_path, command, fields):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(fields))
        code, out, err = run_cli(capsys, command, "--builtin", "M7", "--params", str(path))
        assert code == 1 and out == "" and err.startswith("error: bad parameters: ") and err.count("\n") == 1

    def test_integral_float_and_unknown_keys_accepted(self, capsys, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"depth": 10.0, "comment": "ignored"}))
        assert run_cli(capsys, "bench", "--builtin", "M7", "--params", str(path)) == run_cli(capsys, "bench", "--builtin", "M7", "--depth", "10")


class TestPricingReadsNoWeights:
    """``plan`` and ``bench`` price a built-in from its architecture: they draw no weights, and print the same bytes."""

    @pytest.mark.parametrize("name", builtin_names())
    def test_no_seeded_draw(self, capsys, monkeypatch, name):
        from slotcnn import model

        commands = [("plan", "--seed", "7"), ("plan", "--format", "csv"), ("bench",), ("bench", "--format", "json"),
                    ("bench", "--depth-sweep", "9,10,11")]
        expected = [run_cli(capsys, command, "--builtin", name, *rest) for command, *rest in commands]

        def no_draw(*args, **kwargs):
            raise AssertionError("plan and bench read no weights, so they must draw none")

        monkeypatch.setattr(model.np.random, "default_rng", no_draw)
        assert [run_cli(capsys, command, "--builtin", name, *rest) for command, *rest in commands] == expected
        assert all(code == 0 for code, _, _ in expected)


    def test_no_diagonals_formed(self, capsys, monkeypatch):
        """Pricing reads the architecture only, so no fully connected layer forms its plaintext diagonals."""
        from slotcnn import FC, ledger_metrics

        def no_diagonals(*args):
            raise AssertionError("plan, bench and ledger_metrics must form no FC diagonals")

        monkeypatch.setattr(FC, "diagonals", no_diagonals)
        for name in builtin_names():
            for command in ("plan", "bench"):
                assert run_cli(capsys, command, "--builtin", name)[0] == 0
            m = builtin(name)
            ledger_metrics(m, HEParams(), footprint(m, HEParams()).trace)


class TestWalkCounts:
    """Validation, planning and inference reuse one layout trace instead of walking the model again."""

    @pytest.fixture
    def walks(self, monkeypatch):
        from slotcnn import engine, model, packing

        calls = []
        for module in (model, packing, engine):
            def counted(m, _trace=module.trace_layout):
                calls.append(m.name)
                return _trace(m)

            monkeypatch.setattr(module, "trace_layout", counted)
        return calls

    def test_validate_walks_once(self, walks):
        assert validate(builtin("M1"), HEParams()).ok and len(walks) == 1

    def test_run_inference_with_a_plan_walks_none(self, walks):
        m, params = builtin("M1"), HEParams()
        plan = footprint(m, params)
        walks.clear()
        run_inference(m, np.zeros((2, 1, 28, 28)), params, plan=plan)
        assert len(walks) == 0

    def test_run_inference_without_a_plan_walks_once(self, walks):
        run_inference(builtin("M1"), np.zeros((2, 1, 28, 28)), HEParams())
        assert len(walks) == 1

    @pytest.mark.parametrize("command,count", [("plan", 1), ("bench", 1), ("run", 1), ("verify --trials 20", 1),
                                              ("verify --trials 20 --scale-sweep 20,24", 1)])
    def test_cli_walks(self, capsys, walks, command, count):
        code, _, _ = run_cli(capsys, *command.split(), "--builtin", "M1")
        assert code == 0 and len(walks) == count


class TestPinnedBytes:
    """One digest over the bytes a default run produces for every built-in, pinned so a refactor can show it changed nothing."""

    def test_builtins_digest(self, capsys):
        digest = hashlib.sha256()
        for name in builtin_names():
            for seed in (0, 1):
                m = builtin(name, seed=seed)
                samples = np.random.default_rng(seed).uniform(0.0, 1.0, size=(2, m.channels, m.height, m.width))
                outputs, metrics, _ = run_inference(m, samples, HEParams())
                for out in outputs:
                    digest.update(out.tobytes())
                for row in metrics.per_layer:
                    digest.update(repr((row.name, list(row.hist.items()), row.est_cost)).encode())
                for command, fmt in itertools.product(("plan", "bench", "run"), ("json", "csv")):
                    code, out, err = run_cli(capsys, command, "--builtin", name, "--seed", str(seed), "--format", fmt)
                    assert code == 0 and err == ""
                    digest.update(out.encode())
        # The output bytes include conv's einsum sums, which depend on the numpy build (see the CI step that
        # prints it); on a new numpy, first check the outputs against reference_infer before re-pinning.
        assert digest.hexdigest() == "a900e5b1712c6b93f1c0912ceed0316bbbd6b90c586b7c8281514f38bf57b42e"

    def test_layer_states_digest(self):
        """Every slot of every channel after the level alignment and after each layer, full batches, float and fixed point."""
        digest = hashlib.sha256()
        runs = [(name, seed, False) for name in builtin_names() for seed in (0, 1)]
        runs += [(name, seed, True) for name in ("M2", "M3") for seed in (0, 1)]
        for name, seed, quantize in runs:
            m, params = builtin(name, seed=seed), HEParams(quantize=quantize)
            capacity = footprint(m, params).capacity
            samples = np.random.default_rng(seed).uniform(0.0, 1.0, size=(capacity, m.channels, m.height, m.width))
            for stage in stage_bytes(m, samples, params):
                digest.update(stage)
        # conv's einsum sums make this digest depend on the numpy build too, as the note above says.
        assert digest.hexdigest() == "451991fbf6c558cab39cbf99172034a6d1723c59075892177c657a5a6cce529b"

    def test_random_stacks_digest(self):
        """Validation, plan, priced ledger and output bytes of 300 random stacks at 1024 slots, invalid ones included."""
        from slotcnn import ledger_metrics

        digest = hashlib.sha256()
        valid = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            m = random_stack(rng)
            params = HEParams(poly_degree=2048, depth=int(rng.integers(8, 12)))
            report = validate(m, params)
            digest.update(repr([(v["layer"], v["rule"], v["message"]) for v in report.violations]).encode())
            if not report.ok:
                continue
            valid += 1
            plan = footprint(m, params)
            digest.update(json.dumps(plan.to_dict()).encode())
            for row in ledger_metrics(m, params).per_layer:
                digest.update(repr((row.name, list(row.hist.items()), row.est_cost)).encode())
            xs = rng.uniform(0.0, 1.0, size=(min(3, plan.capacity), m.channels, m.height, m.width))
            for out in run_inference(m, xs, params, plan=plan)[0]:
                digest.update(out.tobytes())
        assert valid >= 250
        # conv's einsum sums make this digest depend on the numpy build too, as the note above says.
        assert digest.hexdigest() == "b08a3fdf44ff6ad9b6a80132e25abbe927b01e91cdb42c74b1ea976b1d5892db"

    @pytest.mark.parametrize("digest", ["test_builtins_digest", "test_layer_states_digest", "test_random_stacks_digest"])
    def test_digest_without_einsum(self, digest, capsys, monkeypatch):
        """Where numpy's einsum fails the exactness probe, the sums take their per-term loops, to the same bytes."""
        from slotcnn import he_backend

        monkeypatch.setattr(he_backend, "exact_einsum", lambda: False)
        test = getattr(self, digest)
        test(capsys) if digest == "test_builtins_digest" else test()

    def test_random_stack_states_digest(self):
        """Every slot after every layer of 200 random stacks at 2048 slots and full batches, signed inputs included.

        Sample 0 overflows (1e200) and the last one's negatives are -0.0.  A stage is read as ``decrypt + 0.0``, so
        the sign of a zero may change and nothing else may.
        """
        digest = hashlib.sha256()
        valid = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m = random_stack(rng)
            params = HEParams(poly_degree=4096, depth=int(rng.integers(8, 12)))
            if not validate(m, params).ok:
                continue
            valid += 1
            plan = footprint(m, params)
            xs = rng.uniform(-1.0, 1.0, size=(plan.capacity, m.channels, m.height, m.width))
            xs[0] *= 1e200
            xs[-1][xs[-1] < 0] = -0.0
            with np.errstate(all="ignore"):
                for stage in stage_bytes(m, xs, params):
                    digest.update((np.frombuffer(stage) + 0.0).tobytes())
        assert valid >= 100
        # conv's einsum sums make this digest depend on the numpy build too, as the note above says.
        assert digest.hexdigest() == "d2172bdf717968589df34ba93b8d50899a03942db97c7fababa2f6c56ecc0ab1"


class TestTracerSpans:
    """The spans the benchmark's tracer records on each path, so a refactor cannot silently bypass one of its hooks."""

    @pytest.fixture
    def spans(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        tracer = module.Tracer()
        undo = module.install(tracer)
        yield tracer
        undo()

    PIPELINE = {"engine.run_inference", "engine.validate", "packing.batch_pack", "packing.footprint", "model.trace_layout",
                "layers.drop_level", "layers.conv", "layers.square", "layers.flatten", "layers.fc"}

    def test_run_inference_with_a_plan(self, spans):
        from slotcnn import engine, packing

        m, params = builtin("M1"), HEParams()
        engine.run_inference(m, np.zeros((2, 1, 28, 28)), params, plan=packing.footprint(m, params))
        assert {span[3] for span in spans.spans} == self.PIPELINE

    @pytest.mark.parametrize("argv,extra", [
        (("plan",), set()),
        (("bench",), set()),
        (("run",), PIPELINE),
        (("verify", "--trials", "3"), PIPELINE),
    ], ids=["plan", "bench", "run", "verify"])
    def test_cli(self, capsys, spans, argv, extra):
        code, _, _ = run_cli(capsys, *argv, "--builtin", "M1")
        want = {"cli.validate", "model.builtin", "model.trace_layout", "packing.footprint"} | extra
        assert code == 0 and {span[3] for span in spans.spans} == want
