"""slotcnn benchmark: encrypted-inference throughput and modeled HE cost.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload conv-deep --seed 1 --seconds 20 --trace 0

The benchmark imports ``slotcnn`` from the checkout's ``src`` directory and
drives its public API from this one process and thread.  A run repeats
whole passes of its workload's operations until ``--seconds`` have passed,
checks every output, and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread: a BLAS or OpenMP pool would start more on first use.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODELS = ("M1", "M2", "M3", "M4", "M5", "M6", "M7")
LAYER_GROUPS = ("conv", "avgpool", "square", "approx_relu", "flatten", "fc", "drop_level")
BACKEND_OPS = ("rotate", "mul_plain", "mul_cipher", "add", "encode")
# Slot vectors each backend call reads or writes, result included.
OPERANDS = {"rotate": 2, "mul_plain": 3, "mul_cipher": 3, "add": 3, "encode": 1}

FLOAT_TOL = 1e-12  # relative error of the float path against reference.py
FIXED_TOL = 1e-7  # same, with 32-bit fixed-point rounding on every product
POOL = 4  # distinct input batches per model; passes cycle through them
SETUP_REPEATS = 9
DEPTH_SWEEP = (9, 10, 11)
OVERSIZE_REQUEST = 100  # M7 samples in one dense-wide request, above its capacity of 64

END_TO_END = {
    "samples_per_s": "samples/s",
    "queries_per_s": "queries/s",
    "modeled_cost_per_sample": "cost_units",
    "rotation_keys": "count",
    "depth_used": "levels",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {}
for _op in BACKEND_OPS:
    PER_LAYER[f"he_backend.{_op}.calls"] = "count"
    PER_LAYER[f"he_backend.{_op}.ms"] = "ms"
PER_LAYER["he_backend.slot_mb_moved"] = "MB-computed"
PER_LAYER["he_backend.mul_plain.useful_slot_ratio"] = "ratio"
for _group in LAYER_GROUPS:
    PER_LAYER[f"layers.{_group}.ms"] = "ms"
    PER_LAYER[f"layers.{_group}.self_ms"] = "ms"
    PER_LAYER[f"layers.{_group}.rotations"] = "count"
    PER_LAYER[f"layers.{_group}.est_cost"] = "cost_units"
for _name in MODELS:
    PER_LAYER[f"engine.batch_ms.{_name}"] = "ms"
PER_LAYER.update(
    {
        "engine.validate.ms": "ms",
        "engine.overhead_ms": "ms",
        "packing.batch_pack.ms": "ms",
        "packing.footprint.ms": "ms",
        "model.builtin.ms": "ms",
        "model.trace_layout.ms": "ms",
        "model.validate.ms": "ms",
        "cli.plan.ms": "ms",
        "cli.bench.ms": "ms",
        "trace.overhead_ms": "ms",
        "trace.overhead_share": "ratio",
    }
)

# Timed in a fresh interpreter: import, built-in construction, footprint planning.
# numpy loads before the clock starts: its load time does not depend on slotcnn,
# yet it is about two thirds of a cold set-up and its most variable part.
SETUP_CHILD = """
import sys, time
import numpy
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from slotcnn import HEParams, builtin, footprint
params = HEParams(quantize=sys.argv[2] == "1")
for name in sys.argv[3:]:
    footprint(builtin(name), params)
print(time.perf_counter() - t0)
"""


def load_package():
    """Import ``slotcnn`` from this checkout's sources, or exit without a result."""
    init = SRC / "slotcnn" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a slotcnn checkout")
    sys.path.insert(0, str(SRC))
    import slotcnn

    if Path(slotcnn.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported slotcnn from {slotcnn.__file__}, expected {init}")
    return slotcnn


class Checks:
    """Failed correctness checks, counted by message."""

    def __init__(self):
        self.failures = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures[message] = self.failures.get(message, 0) + 1

    def check_ledger(self, m, metrics) -> None:
        """Final level 0, and every convolution at its closed-form operation counts."""
        rows = metrics.per_layer
        self.expect(rows[-1].level_after == 0, f"{m.name}: final level {rows[-1].level_after}, expected 0")
        for layer, row in zip(m.layers, rows[len(rows) - len(m.layers) :]):
            if type(layer).__name__ in ("Conv2d", "Conv1d"):
                taps = layer.kernel ** (2 if type(layer).__name__ == "Conv2d" else 1)
                self.expect(
                    row.rotations == layer.ch_in * taps and row.pt_mults == layer.ch_out * layer.ch_in * taps,
                    f"{m.name}: conv made {row.rotations} rotations / {row.pt_mults} pt_mults, "
                    f"closed form {layer.ch_in * taps} / {layer.ch_out * layer.ch_in * taps}",
                )


class Inference:
    """Full-capacity encrypted batches of built-ins, each output checked.

    One pass runs one batch per model, then the optional oversized request,
    which counts as failed when the program refuses it.  ``fixed_point``
    names models whose quantized outputs the untimed checks also cover.
    """

    def __init__(self, api, reference, names, seed, quantize=False, oversize=None, fixed_point=()):
        self.api = api
        self.reference = reference
        self.names = names
        self.seed = seed
        self.params = api.HEParams(quantize=quantize, scale_bits=32)
        self.oversize = oversize
        self.fixed_point = fixed_point
        self.checks = Checks()
        self.first = {}

    def setup(self) -> None:
        from slotcnn import model, packing

        self.models = {name: model.builtin(name) for name in self.names}
        self.plans = {name: packing.footprint(self.models[name], self.params) for name in self.names}

    def _draw(self, name, batch, count, seed=None):
        m = self.models[name]
        rng = np.random.default_rng([self.seed if seed is None else seed, MODELS.index(name), batch])
        return rng.uniform(0.0, 1.0, size=(count, m.channels, m.height, m.width))

    def prepare(self) -> None:
        self.batches = {}
        if self.oversize:
            # Fixed inputs: this request fails on every pass, whatever the seed.
            self.oversize_inputs = self._draw(self.oversize, POOL, OVERSIZE_REQUEST, seed=0)

    def _batch(self, name, b):
        """Pool batch ``b`` of a model with both references, computed on first use, outside any timing."""
        if (name, b) not in self.batches:
            m = self.models[name]
            xs = self._draw(name, b, self.plans[name].capacity)
            float_refs = [self.reference.infer(m, x) for x in xs]
            oracle_refs = None if self.params.quantize else [self.api.reference_infer(m, x) for x in xs]
            self.batches[name, b] = xs, float_refs, oracle_refs
        return self.batches[name, b]

    def _check_outputs(self, name, key, outs, xs, float_refs, oracle_refs) -> None:
        m = self.models[name]
        self.checks.expect(len(outs) == len(xs), f"{name}: {len(outs)} outputs for {len(xs)} samples")
        tol = FIXED_TOL if self.params.quantize else FLOAT_TOL
        scale = 2.0**self.params.scale_bits
        for i, out in enumerate(outs):
            ref = float_refs[i] if float_refs else self.reference.infer(m, xs[i])
            err = self.reference.relative_error(out, ref)
            self.checks.expect(err <= tol, f"{name}: relative error {err:.3e} above {tol:.0e}")
            if self.params.quantize:
                self.checks.expect(np.array_equal(out * scale, np.rint(out * scale)), f"{name}: output off the 2^-{self.params.scale_bits} grid")
            else:
                oracle = oracle_refs[i] if oracle_refs else self.api.reference_infer(m, xs[i])
                self.checks.expect(np.array_equal(out, oracle), f"{name}: output differs from reference_infer")
        first = self.first.setdefault(key, outs)
        self.checks.expect(all(np.array_equal(a, b) for a, b in zip(first, outs)), f"{name}: repeated batch changed its outputs")

    def _infer(self, name, xs, make_backend, result, refusal_expected=False):
        """One timed ``run_inference`` call; ``None`` when the program raised."""
        from slotcnn import engine

        result["attempted"] += 1
        t0 = time.perf_counter()
        try:
            outs, metrics, _ = engine.run_inference(self.models[name], xs, self.params, plan=self.plans[name], backend=make_backend(self.params))
        except Exception as err:  # a failed operation; only the known refusal keeps the run correct
            result["seconds"] += time.perf_counter() - t0
            result["failed"] += 1
            refused = refusal_expected and isinstance(err, self.api.CapacityExceeded)
            self.checks.expect(refused, f"{name} x{len(xs)}: {type(err).__name__}: {err}")
            return None
        dt = time.perf_counter() - t0
        result["seconds"] += dt
        result["queries"] += 1
        result["samples"] += len(xs)
        return outs, metrics, dt

    def run_pass(self, index, make_backend, tracer=None) -> dict:
        result = {"samples": 0, "queries": 0, "attempted": 0, "failed": 0, "seconds": 0.0, "batch_s": {}}
        b = index % POOL
        for name in self.names:
            xs, float_refs, oracle_refs = self._batch(name, b)
            if tracer:
                tracer.request = f"{index}:{name}"
            done = self._infer(name, xs, make_backend, result)
            if done is None:
                continue
            outs, metrics, result["batch_s"][name] = done
            self._check_outputs(name, (name, b), outs, xs, float_refs, oracle_refs)
            first = self.first.setdefault(("ledger", name), metrics)
            self.checks.expect(first.totals() == metrics.totals(), f"{name}: op ledger changed between batches")
            if first is metrics:
                self.checks.check_ledger(self.models[name], metrics)
        if self.oversize:
            name, xs = self.oversize, self.oversize_inputs
            if tracer:
                tracer.request = f"{index}:{name}x{len(xs)}"
            done = self._infer(name, xs, make_backend, result, refusal_expected=True)
            if done is not None:
                self._check_outputs(name, (name, "oversize"), done[0], xs, None, None)
        return result

    def verify(self) -> dict:
        """Untimed: swap every batch-0 neighbour, record the rotation-key set, check fixed point."""
        from slotcnn import engine
        from spans import LedgerBackend

        facts = new_facts(self.params)
        for name in self.names:
            m, plan = self.models[name], self.plans[name]
            xs = self._batch(name, 0)[0].copy()
            xs[1:] = self._draw(name, POOL + 1, len(xs) - 1)
            backend = LedgerBackend(self.params)
            outs, metrics, _ = engine.run_inference(m, xs, self.params, plan=plan, backend=backend)
            first_outs = self.first.get((name, 0))
            self.checks.expect(first_outs is not None and np.array_equal(outs[0], first_outs[0]), f"{name}: sample 0 changed when its batch neighbours were replaced")
            first_ledger = self.first.get(("ledger", name))
            self.checks.expect(first_ledger is not None and metrics.totals() == first_ledger.totals(), f"{name}: op ledger depends on the input values")
            add_facts(facts, metrics, plan, backend)
        if self.fixed_point:
            # One pass and its checks at 32-bit fixed point: every encode and product rounds.
            fixed = Inference(self.api, self.reference, self.fixed_point, self.seed, quantize=True)
            fixed.setup()
            fixed.prepare()
            fixed.run_pass(0, untraced)
            fixed.verify()
            for message, count in fixed.checks.failures.items():
                self.checks.failures[f"fixed point: {message}"] = count
        return facts


def new_facts(params) -> dict:
    return {"cost": 0.0, "keys": set(), "depth": 0, "mul_plain": 0, "nonzero": 0, "slots": params.num_slots}


def add_facts(facts, metrics, plan, backend) -> None:
    """Fold one model's ledger and its untimed backend's notes into the workload's facts."""
    facts["cost"] += metrics.totals()["est_cost"] / plan.capacity
    facts["depth"] += metrics.total_mults
    facts["keys"] |= backend.amounts
    facts["mul_plain"] += backend.mul_plain_calls
    facts["nonzero"] += backend.mul_plain_nonzero


class CostQuery:
    """In-process ``plan`` and ``bench --depth-sweep`` for every built-in."""

    def __init__(self, api, reference, seed):
        self.api = api
        self.reference = reference
        self.names = MODELS
        self.seed = seed
        self.params = api.HEParams()
        self.checks = Checks()
        self.first = {}

    def setup(self) -> None:
        from slotcnn import model, packing

        self.models = {name: model.builtin(name, seed=self.seed) for name in self.names}
        self.plans = {name: packing.footprint(self.models[name], self.params) for name in self.names}

    def prepare(self) -> None:
        common = ["--seed", str(self.seed)]
        self.commands = []
        for name in self.names:
            self.commands.append((name, ["plan", "--builtin", name, *common]))
            self.commands.append((name, ["bench", "--builtin", name, *common, "--depth-sweep", ",".join(map(str, DEPTH_SWEEP))]))

    def run_pass(self, index, make_backend, tracer=None) -> dict:
        from slotcnn import cli

        result = {"samples": 0, "queries": 0, "attempted": 0, "failed": 0, "seconds": 0.0, "batch_s": {}}
        for name, argv in self.commands:
            buf = io.StringIO()
            if tracer:
                tracer.request = f"{index}:{name}:{argv[0]}"
                tracer.begin(f"cli.{argv[0]}")
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as err:  # a traceback is a failed command, not the end of the run
                code = f"{type(err).__name__}: {err}"
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.end()
            result["seconds"] += dt
            result["attempted"] += 1
            if argv[0] == "bench":
                result["batch_s"][name] = dt
            self.checks.expect(code == 0, f"{' '.join(argv)}: exit code {code}")
            if code != 0:
                result["failed"] += 1
                continue
            result["queries"] += 1
            result["samples"] += int(argv[0] == "bench")
            first = self.first.setdefault(tuple(argv), buf.getvalue())
            self.checks.expect(first == buf.getvalue(), f"{' '.join(argv)}: output changed between passes")
        return result

    def verify(self) -> dict:
        """Untimed: run each model once and compare the CLI's answers with the library's."""
        from slotcnn import engine
        from spans import LedgerBackend

        facts = new_facts(self.params)
        rng = np.random.default_rng([self.seed, len(MODELS)])
        for name, argv in self.commands:
            text = self.first.get(tuple(argv))
            m, plan = self.models[name], self.plans[name]
            if argv[0] == "plan":
                self.checks.expect(text is not None and json.loads(text) == plan.to_dict(), f"{name}: plan output differs from footprint()")
                continue
            x = rng.uniform(0.0, 1.0, size=(m.channels, m.height, m.width))
            backend = LedgerBackend(self.params)
            outs, metrics, _ = engine.run_inference(m, [x], self.params, plan=plan, backend=backend)
            err = self.reference.relative_error(outs[0], self.reference.infer(m, x))
            self.checks.expect(err <= FLOAT_TOL, f"{name}: relative error {err:.3e} above {FLOAT_TOL:.0e}")
            self.checks.expect(np.array_equal(outs[0], self.api.reference_infer(m, x)), f"{name}: output differs from reference_infer")
            self.checks.check_ledger(m, metrics)
            expected = [[str(d), repr(engine.estimate_cost(metrics, self.params, depth_override=d))] for d in DEPTH_SWEEP]
            rows = list(csv.reader(io.StringIO(text or "")))
            self.checks.expect(rows[1:] == expected, f"{name}: bench depth sweep {rows[1:]} differs from estimate_cost {expected}")
            add_facts(facts, metrics, plan, backend)
        return facts


def make_workload(name, api, reference, seed):
    if name == "conv-deep":
        return Inference(api, reference, ("M4", "M5"), seed)
    if name == "dense-wide":
        return Inference(api, reference, ("M1", "M3", "M6", "M7"), seed, oversize="M7", fixed_point=("M2", "M3"))
    if name == "cost-query":
        return CostQuery(api, reference, seed)
    raise ValueError(name)


WORKLOADS = ("conv-deep", "dense-wide", "cost-query")


def untraced(params):
    """No backend: ``run_inference`` builds its own, as a plain caller's would."""
    return None


def setup_seconds(workload) -> float:
    """Set-up time of one fresh interpreter, timed from its own inside."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), "1" if workload.params.quantize else "0", *workload.names],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_passes(workload, seconds, make_backend):
    """Whole untraced passes for about ``seconds``, at least one.

    Between passes, outside the timed calls, set-up is timed in a fresh
    interpreter up to ``SETUP_REPEATS`` times, spread over the run so that
    slow drift in the machine's speed reaches set-up and passes alike.
    Returns the passes and the set-up times.
    """
    passes, setups = [], [setup_seconds(workload)]
    start = time.perf_counter()
    deadline = start + seconds
    # Another pass starts only if, at the mean pass time so far, it would end
    # at most half a pass after the deadline.
    while not passes or time.perf_counter() + 0.5 * (time.perf_counter() - start) / len(passes) < deadline:
        passes.append(workload.run_pass(len(passes), make_backend))
        due = start + seconds * len(setups) / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
            setups.append(setup_seconds(workload))
    while len(setups) < 3:
        setups.append(setup_seconds(workload))
    return passes, setups


def run_traced(workload, seconds, spans):
    """Traced set-up, then untraced and traced passes in turn until ``seconds`` have elapsed.

    Alternating keeps drift in the machine's speed out of the tracing
    overhead.  Returns the untraced passes, the traced passes, the tracer,
    and its totals after the set-up.
    """
    tracer = spans.Tracer()
    traced_backend = lambda params: spans.TracingBackend(params, tracer)
    undo = spans.install(tracer)
    try:
        tracer.request = "setup"
        workload.setup()
    finally:
        undo()
    setup_snap = tracer.snapshot()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(workload.run_pass(2 * len(traced), untraced))
        undo = spans.install(tracer)
        try:
            traced.append(workload.run_pass(2 * len(traced) + 1, traced_backend, tracer))
        finally:
            undo()
    return plain, traced, tracer, setup_snap


def end_to_end(passes, facts, setup_s) -> dict:
    seconds = sum(p["seconds"] for p in passes)
    return {
        "samples_per_s": sum(p["samples"] for p in passes) / seconds,
        "queries_per_s": sum(p["queries"] for p in passes) / seconds,
        "modeled_cost_per_sample": facts["cost"],
        "rotation_keys": len(facts["keys"]),
        "depth_used": facts["depth"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(setup_snap, end_snap, plain, traced, facts) -> dict:
    """Per-layer figures for one set-up plus one pass of the workload."""

    def per(key):
        at_setup = setup_snap.get(key, 0.0)
        return at_setup + (end_snap.get(key, 0.0) - at_setup) / len(traced)

    out = {}
    moved = 0.0
    for op in BACKEND_OPS:
        calls = per(f"he_backend.{op}.calls")
        out[f"he_backend.{op}.calls"] = calls
        out[f"he_backend.{op}.ms"] = per(f"he_backend.{op}.s") * 1e3
        moved += calls * OPERANDS[op] * facts["slots"] * 8
    out["he_backend.slot_mb_moved"] = moved / 1e6
    out["he_backend.mul_plain.useful_slot_ratio"] = facts["nonzero"] / (facts["mul_plain"] * facts["slots"])
    for group in LAYER_GROUPS:
        out[f"layers.{group}.ms"] = per(f"layers.{group}.s") * 1e3
        out[f"layers.{group}.self_ms"] = per(f"layers.{group}.self_s") * 1e3
        out[f"layers.{group}.rotations"] = per(f"layers.{group}.rotations")
        out[f"layers.{group}.est_cost"] = per(f"layers.{group}.est_cost")
    for name in MODELS:
        batch = [p["batch_s"][name] for p in plain if name in p["batch_s"]]
        out[f"engine.batch_ms.{name}"] = statistics.median(batch) * 1e3 if batch else 0.0
    out["engine.validate.ms"] = per("engine.validate.s") * 1e3
    out["engine.overhead_ms"] = per("engine.run_inference.self_s") * 1e3
    out["packing.batch_pack.ms"] = per("packing.batch_pack.s") * 1e3
    out["packing.footprint.ms"] = per("packing.footprint.s") * 1e3
    out["model.builtin.ms"] = per("model.builtin.s") * 1e3
    out["model.trace_layout.ms"] = per("model.trace_layout.s") * 1e3
    out["model.validate.ms"] = (per("engine.validate.s") + per("cli.validate.s")) * 1e3
    out["cli.plan.ms"] = per("cli.plan.s") * 1e3
    out["cli.bench.ms"] = per("cli.bench.s") * 1e3
    plain_s = statistics.median(p["seconds"] for p in plain)
    traced_s = statistics.median(p["seconds"] for p in traced)
    out["trace.overhead_ms"] = (traced_s - plain_s) * 1e3
    out["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    return out


def run_all(args) -> int:
    """Every workload in a process of its own; prints each metric by name and unit."""
    worst = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv], cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result, exit code {done.returncode}")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    api = load_package()
    if args.workload == "all":
        return run_all(args)
    import reference
    import spans

    workload = make_workload(args.workload, api, reference, args.seed)
    workload.setup()
    workload.prepare()
    if not args.trace:
        passes, setups = run_passes(workload, args.seconds, untraced)
    else:
        plain, traced, tracer, setup_snap = run_traced(workload, args.seconds, spans)
        passes = plain + traced
    facts = workload.verify()

    if args.trace:
        metrics = per_layer(setup_snap, tracer.snapshot(), plain, traced, facts)
        units = PER_LAYER
    else:
        metrics = end_to_end(passes, facts, statistics.median(setups))
        units = END_TO_END
    failures = workload.checks.failures
    result = {
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({**result, "passes": len(passes), "check_failures": failures}, indent=2) + "\n")
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(
            json.dumps(
                {
                    "fields": ["id", "parent", "request", "name", "start_s", "end_s"],
                    "spans": tracer.spans,
                    "totals": {name: dict(zip(("calls", "s", "self_s"), row)) for name, row in tracer.totals.items()},
                }
            )
            + "\n"
        )
    for message, count in failures.items():
        print(f"check failed ({count}x): {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
