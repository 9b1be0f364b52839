"""Command line interface.

Four commands share one option vocabulary:

* ``plan``    print the slot footprint, batch capacity, and offsets
* ``run``     execute a batch and print the full inference report
* ``verify``  compare against the plaintext oracle, optionally sweeping scales
* ``bench``   print per-layer operation counts, optionally sweeping the budget;
              priced from each layer's closed-form op ledger, without a run

Every command walks the model's layout once, in validation, and plans on
that trace; every run, oracle batch, sweep entry and price reads the plan.
``plan`` and ``bench`` read the architecture only, so a built-in draws no
weights for them.

Exit codes: 0 on success, 1 on input/output or parse problems and on bad
option values or non-finite samples, 2 on validation failures or a failed
verification.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import engine, packing
from .errors import NonFiniteInput, ParseError, SlotCnnError
from .he_backend import HEParams
from .model import ModelSpec, _refuse_non_numbers, builtin, builtin_names, load_model, validate

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", metavar="PATH", help="JSON model description to load")
    source.add_argument("--builtin", metavar="NAME", help=f"built-in model ({', '.join(builtin_names())})")
    parser.add_argument("--params", metavar="PATH", help="JSON parameter file (defaults used otherwise)")
    parser.add_argument("--depth", type=int, help="override the multiplicative level budget")
    parser.add_argument("--scale-bits", type=int, help="override the fixed-point precision")
    parser.add_argument("--quantize", action="store_true", help="turn fixed-point quantization on")
    parser.add_argument("--seed", type=int, default=0, help="seed for the built-in weights and random inputs of run and verify; plan and bench read no weights")
    parser.add_argument("--align", type=int, default=1, help="round the footprint up to this alignment")
    parser.add_argument("--report", metavar="PATH", help="also write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotcnn",
        description="Compile CNN models to slot-parallel ciphertext schedules and run them on an exact simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="compute the packing plan")
    _add_common(p_plan)
    p_plan.add_argument("--format", choices=("json", "csv"), default="json")

    p_run = sub.add_parser("run", help="run encrypted inference on a batch")
    _add_common(p_run)
    p_run.add_argument("--input", metavar="PATH", help="JSON or CSV file with input samples")
    p_run.add_argument("--batch", type=int, help="number of samples (random if no --input)")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="compare against the plaintext oracle")
    _add_common(p_verify)
    p_verify.add_argument("--trials", type=int, default=20, help="number of random samples to check")
    p_verify.add_argument("--tol", type=float, default=1e-6, help="maximum tolerated absolute error")
    p_verify.add_argument(
        "--scale-sweep",
        metavar="BITS,BITS,...",
        help="rerun with quantization at each precision and report the error trend",
    )

    p_bench = sub.add_parser("bench", help="per-layer operation counts and cost")
    _add_common(p_bench)
    p_bench.add_argument("--format", choices=("json", "csv"), default="csv")
    p_bench.add_argument(
        "--depth-sweep",
        metavar="D,D,...",
        help="report the estimated cost at each level budget instead of per-layer counts",
    )
    return parser


def _load_params(args) -> HEParams:
    fields = {}
    if args.params:
        try:
            with open(args.params, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ParseError(f"cannot read parameter file {args.params}: {err}") from err
        if not isinstance(data, dict):
            raise ParseError("parameter file must contain a JSON object")
        fields.update(data)
    if args.depth is not None:
        fields["depth"] = args.depth
    if getattr(args, "scale_bits", None) is not None:
        fields["scale_bits"] = args.scale_bits
    if args.quantize:
        fields["quantize"] = True
    try:
        return HEParams.from_dict(fields) if fields else HEParams()
    except (TypeError, ValueError) as err:
        raise ParseError(f"bad parameters: {err}") from err


def _load_model(args, weights: bool) -> ModelSpec:
    if args.builtin:
        return builtin(args.builtin, seed=args.seed, weights=weights)
    return load_model(args.model)


def _samples_from_json(data, m: ModelSpec):
    entries = data.get("samples") if isinstance(data, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ParseError('input file must contain an object with a non-empty "samples" list')
    samples = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, list):
            raise ParseError(f"sample {i} must be a list of values or of channels, got {entry!r}")
        _refuse_non_numbers(entry, f"sample {i}")
        channels = [entry] if entry and isinstance(entry[0], (int, float)) else entry
        if len(channels) != m.channels:
            raise ParseError(f"sample {i} has {len(channels)} channels, model expects {m.channels}")
        plane = []
        for vec in channels:
            try:
                arr = np.asarray(vec, dtype=np.float64)
            except (TypeError, ValueError) as err:
                raise ParseError(f"sample {i} holds a value that is not a number: {err}") from err
            if arr.size != m.height * m.width:
                raise ParseError(f"sample {i} channel has {arr.size} values, model expects {m.height * m.width}")
            plane.append(arr.reshape(m.height, m.width))
        samples.append(np.stack(plane))
    return samples


def _load_samples(path, m: ModelSpec):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(f"cannot read input file {path}: {err}") from err
    if path.endswith(".json") or text.lstrip().startswith(("{", "[")):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError(f"cannot parse input file {path}: {err}") from err
        return _samples_from_json(data, m)
    if m.channels != 1:
        raise ParseError("CSV input supports single-channel models only; use JSON for multi-channel samples")
    samples = []
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            arr = np.asarray([float(v) for v in line.split(",")], dtype=np.float64)
        except ValueError as err:
            raise ParseError(f"bad CSV value on line {i + 1}: {err}") from err
        if arr.size != m.height * m.width:
            raise ParseError(f"CSV line {i + 1} has {arr.size} values, model expects {m.height * m.width}")
        samples.append(arr.reshape(1, m.height, m.width))
    if not samples:
        raise ParseError(f"input file {path} contains no samples")
    return samples


def _random_samples(m: ModelSpec, count: int, seed: int):
    rng = np.random.default_rng(seed + 1)
    return list(rng.uniform(0.0, 1.0, size=(count, m.channels, m.height, m.width)))


def _emit(text: str, report_path) -> None:
    print(text)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _csv_table(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().rstrip("\n")


class _Invalid(Exception):
    """The violations of a model that fails validation; ``main`` prints them and exits 2."""


def _prepare(args, weights: bool = True):
    """The model and parameters the options name, and their packing plan, made on validation's layout trace.

    ``weights`` is false for the commands that read the architecture only.
    """
    m = _load_model(args, weights)
    params = _load_params(args)
    report = validate(m, params)
    if not report.ok:
        raise _Invalid(report.violations)
    return m, params, packing.footprint(m, params, args.align, trace=report.trace)


def _int_list(text: str, option: str) -> list:
    """The integers of a comma-separated option value; an empty list would answer nothing, so it is refused."""
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as err:
        raise ParseError(f"bad {option} value: {err}") from err
    if not values:
        raise ParseError(f"{option} needs at least one value, got {text!r}")
    return values


_LAYER_HEADER = ("layer", "rotations", "pt_mults", "ct_mults", "adds", "level_after", "est_cost")


def _layer_csv(rows, totals=None) -> str:
    """The per-layer table of ``run`` and ``bench``, with a last row of ``totals`` when given."""
    table = [(r.name, r.rotations, r.pt_mults, r.ct_mults, r.adds, r.level_after, r.est_cost) for r in rows]
    if totals:
        table.append(("totals", totals["rotations"], totals["pt_mults"], totals["ct_mults"], totals["adds"], "", totals["est_cost"]))
    return _csv_table(table, _LAYER_HEADER)


def cmd_plan(args) -> int:
    _, _, plan = _prepare(args, weights=False)
    if args.format == "csv":
        rows = [(e["layer"], e["slots"]) for e in plan.per_layer_sizes]
        rows.append(("footprint", plan.footprint))
        rows.append(("capacity", plan.capacity))
        _emit(_csv_table(rows, ("layer", "slots")), args.report)
    else:
        _emit(json.dumps(plan.to_dict(), indent=2), args.report)
    return EXIT_OK


def cmd_run(args) -> int:
    m, params, plan = _prepare(args)
    if args.batch is not None and args.batch < 1:
        raise ParseError(f"--batch must be at least 1, got {args.batch}")
    if args.input:
        samples = _load_samples(args.input, m)
        if args.batch is not None:
            samples = samples[: args.batch]
    else:
        samples = _random_samples(m, args.batch or 1, args.seed)
    outputs, metrics, plan = engine.run_inference(m, samples, params, plan=plan)
    if args.format == "csv":
        _emit(_layer_csv(metrics.per_layer, metrics.totals()), args.report)
    else:
        doc = {
            "model": m.name,
            "params": params.to_dict(),
            "plan": plan.to_dict(),
            **metrics.to_dict(),
            "outputs": [out.tolist() for out in outputs],
        }
        _emit(json.dumps(doc, indent=2), args.report)
    return EXIT_OK


def cmd_verify(args) -> int:
    m, params, plan = _prepare(args)
    scales = None if args.scale_sweep is None else _int_list(args.scale_sweep, "--scale-sweep")
    # Every sweep entry's parameters are checked before the first oracle run, so a bad bit count costs none.
    sweep_params = [HEParams.from_dict({**params.to_dict(), "quantize": True, "scale_bits": bits}) for bits in scales or ()]
    result = engine.verify_against_oracle(m, params, n_trials=args.trials, seed=args.seed, tol=args.tol, plan=plan)
    doc = {"model": m.name, "params": params.to_dict(), **result}
    ok = result["ok"]
    if scales is not None:
        sweep = []
        for bits, q_params in zip(scales, sweep_params):
            q_result = engine.verify_against_oracle(m, q_params, n_trials=args.trials, seed=args.seed, tol=args.tol, plan=plan)
            sweep.append({"scale_bits": bits, "mean_abs_err": q_result["mean_abs_err"], "max_abs_err": q_result["max_abs_err"]})
        errors = [entry["mean_abs_err"] for entry in sweep]
        doc["scale_sweep"] = sweep
        doc["error_decreases_with_precision"] = all(b < a for a, b in zip(errors, errors[1:]))
    _emit(json.dumps(doc, indent=2), args.report)
    print(("PASS" if ok else "FAIL") + f": max |err| {result['max_abs_err']:.3e} vs tolerance {args.tol:.3e}")
    return EXIT_OK if ok else EXIT_INVALID


def cmd_bench(args) -> int:
    m, params, plan = _prepare(args, weights=False)  # the plan refuses a bad --align, or a footprint it pushes past the slots
    metrics = engine.ledger_metrics(m, params, trace=plan.trace)
    if args.depth_sweep is not None:
        depths = _int_list(args.depth_sweep, "--depth-sweep")
        rows = [(d, engine.estimate_cost(metrics, params, depth_override=d)) for d in depths]
        if args.format == "json":
            _emit(json.dumps([{"depth": d, "est_cost": c} for d, c in rows], indent=2), args.report)
        else:
            _emit(_csv_table(rows, ("depth", "est_cost")), args.report)
        return EXIT_OK
    layer_rows = [r for r in metrics.per_layer if not isinstance(r, engine.LevelAlignment)]
    if args.format == "json":
        _emit(json.dumps([r.to_dict() for r in layer_rows], indent=2), args.report)
    else:
        _emit(_layer_csv(layer_rows), args.report)
    return EXIT_OK


_COMMANDS = {"plan": cmd_plan, "run": cmd_run, "verify": cmd_verify, "bench": cmd_bench}


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _Invalid as err:
        for v in err.args[0]:
            where = "model" if v["layer"] is None else f"layer {v['layer']}"
            print(f"invalid ({where}, {v['rule']}): {v['message']}", file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, NonFiniteInput, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except SlotCnnError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
