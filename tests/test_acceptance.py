"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` (the project enables -s by
default) to see the lines.
"""

import time

import numpy as np
import pytest

from helpers import build_state, make_backend, read_state, single_layout
from slotcnn import (
    AvgPool2d,
    ApproxReLU,
    Conv1d,
    Conv2d,
    FC,
    Flatten,
    HEParams,
    ModelSpec,
    Square,
    builtin,
    builtin_names,
    estimate_cost,
    reference_infer,
    run_inference,
    trace_layout,
    verify_against_oracle,
)
from slotcnn.layers import apply_layer
from slotcnn.packing import footprint

DEFAULT = HEParams()


def rand_conv2d(rng, ch_in, ch_out, kernel, stride=1):
    return Conv2d(ch_in=ch_in, ch_out=ch_out, kernel=kernel, stride=stride, padding=0,
                  weights=rng.uniform(-1, 1, (ch_out, ch_in, kernel, kernel)),
                  bias=rng.uniform(-1, 1, ch_out))


def rand_fc(rng, d_in, d_out):
    return FC(dat_in=d_in, dat_out=d_out, weights=rng.uniform(-1, 1, (d_out, d_in)),
              bias=rng.uniform(-1, 1, d_out))

DEPTH_TOTALS = {"M1": 7, "M2": 7, "M3": 9, "M4": 9, "M5": 8, "M6": 7, "M7": 7}

LEVEL_TRACES = {
    "M1": [7, 6, 5, 3, 2, 1, 0],
    "M2": [7, 6, 5, 5, 4, 3, 3, 1, 0],
    "M3": [9, 8, 6, 6, 4, 3, 1, 0],
    "M4": [9, 8, 7, 7, 6, 5, 5, 4, 3, 3, 2, 1, 0],
    "M5": [8, 7, 6, 6, 5, 4, 4, 3, 2, 2, 1, 0],
    "M6": [7, 6, 5, 3, 2, 1, 0],
    "M7": [7, 6, 5, 4, 3, 2, 1, 0],
}


def report(label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\n{'PASS' if ok else 'FAIL'}: {label}{tail}")
    assert ok, f"{label}{tail}"


def random_samples(m, count, seed):
    shape = m.input_shape
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (count, shape["channels"], shape["height"], shape["width"]))


def test_exactness_and_throughput():
    """All built-in models match the plaintext oracle on 100 random inputs each,
    with matching argmax, in under a minute total."""
    start = time.perf_counter()
    worst = 0.0
    agreement = 1.0
    for name in builtin_names():
        result = verify_against_oracle(builtin(name), DEFAULT, n_trials=100, seed=7)
        worst = max(worst, result["max_abs_err"])
        agreement = min(agreement, result["argmax_agreement"])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and agreement == 1.0 and elapsed < 60.0
    report(
        "exact inference on 700 random inputs across all built-ins",
        ok,
        f"max |err| {worst:.3e}, argmax agreement {agreement:.0%}, {elapsed:.1f}s",
    )


def test_depth_accounting():
    """Declared multiplicative depth matches both the static count and the
    levels actually consumed during execution."""
    ok = True
    for name in builtin_names():
        m = builtin(name)
        total = sum(row.mults for row in trace_layout(m))
        if total != DEPTH_TOTALS[name]:
            ok = False
            break
        _, metrics, _ = run_inference(m, random_samples(m, 1, 0), DEFAULT)
        trace = [row.level_after for row in metrics.per_layer]
        if trace != LEVEL_TRACES[name] or trace[-1] != 0:
            ok = False
            break
        if metrics.per_layer[0].name != "Drop Level" or trace[0] != DEPTH_TOTALS[name]:
            ok = False
            break
    report("multiplicative depth totals and per-layer level traces", ok)


def test_batch_equivalence():
    """Packing ten samples into one ciphertext gives bit-identical outputs to
    ten independent runs."""
    m = builtin("M1")
    plan = footprint(m, DEFAULT, alignment=800)
    samples = random_samples(m, 10, 11)
    batched = np.asarray(run_inference(m, samples, DEFAULT, plan=plan)[0])
    solo = np.asarray(
        [run_inference(m, samples[i : i + 1], DEFAULT, plan=plan)[0][0] for i in range(10)]
    )
    ok = (
        plan.footprint == 800
        and plan.capacity == 10
        and batched.shape == (10, 10)
        and np.array_equal(batched, solo)
    )
    report(
        "800-slot aligned batch of 10 bit-identical to 10 solo runs",
        ok,
        f"capacity {plan.capacity}",
    )


def test_operation_counts():
    """Live schedules hit the closed-form operation counts: convolution
    rotations and plaintext multiplies, and the diagonal FC recipe."""
    m2 = builtin("M2")
    _, metrics, _ = run_inference(m2, random_samples(m2, 1, 3), DEFAULT)
    conv_rows = [row for row in metrics.per_layer if row.name == "Conv2d"]
    conv_ok = (
        conv_rows[0].rotations == 1 * 25
        and conv_rows[0].pt_mults == 1 * 4 * 25
        and conv_rows[1].rotations == 4 * 25
        and conv_rows[1].pt_mults == 4 * 12 * 25
    )

    # M1's FC2 (64 -> 10): 9 diagonal rotations and 20 masked products, then the wrap correction and 6 more folds.
    fc_row = trace_layout(builtin("M1"))[-1]
    fc_static_ok = fc_row.layer.ledger(fc_row.before, 2) == [
        ("pt_mult", 2, 20), ("rotation", 2, 9), ("add", 1, 18), ("rotation", 1, 7), ("add", 1, 8)]

    m1 = builtin("M1")
    _, metrics1, _ = run_inference(m1, random_samples(m1, 1, 3), DEFAULT)
    fc2 = metrics1.per_layer[-1]
    fc_live_ok = fc2.rotations == 16 and fc2.pt_mults == 20

    ok = conv_ok and fc_static_ok and fc_live_ok
    report(
        "convolution and FC operation counts match closed forms",
        ok,
        "conv 100 rot / 1200 pt; FC 64-to-10: 10 indices, 20 mults, 7 folds",
    )


def test_grid_headroom_fuzz():
    """Across 1000 random convolution and pooling stacks, and 300 stacks of
    width-only convolutions, the strided layout always fits inside the
    original image grid: a kernel at least as wide as its stride keeps every
    output on it, so no rule beyond ``kernel_stride`` is needed."""
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(1000):
        h = int(rng.integers(6, 29))
        w = int(rng.integers(6, 29))
        layers = []
        ch = 1
        cur_h, cur_w = h, w
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.5:
                k = int(rng.integers(1, min(cur_h, cur_w, 5) + 1))
                s = int(rng.integers(1, k + 1))
                out = int(rng.integers(1, 4))
                layers.append(rand_conv2d(rng, ch, out, k, stride=s))
                ch = out
                cur_h = (cur_h - k) // s + 1
                cur_w = (cur_w - k) // s + 1
            else:
                divs = [c for c in (2, 3, 4) if cur_h % c == 0 and cur_w % c == 0]
                if not divs:
                    layers.append(rand_conv2d(rng, ch, ch, 1))
                    continue
                c = int(rng.choice(divs))
                layers.append(AvgPool2d(kernel=c))
                cur_h //= c
                cur_w //= c
            if cur_h < 1 or cur_w < 1:
                break
        m = ModelSpec(name="fuzz", channels=1, height=h, width=w, layers=tuple(layers))
        try:
            rows = trace_layout(m)
        except Exception:
            violations += 1
            continue
        for row in rows:
            if row.after.h_in * row.after.interval > h or row.after.w_in * row.after.interval > w:
                violations += 1
                break
    rng = np.random.default_rng(100)
    for _ in range(300):  # a width-only convolution never strides vertically, so only the width is bounded
        w = int(rng.integers(2, 129))
        layers, ch, cur_w = [], 1, w
        for _ in range(int(rng.integers(1, 4))):
            if cur_w < 1:
                break
            k = int(rng.integers(1, min(cur_w, 5) + 1))
            s = int(rng.integers(1, k + 1))
            out = int(rng.integers(1, 4))
            layers.append(Conv1d(ch_in=ch, ch_out=out, kernel=k, stride=s,
                                 weights=rng.uniform(-1, 1, (out, ch, k)), bias=rng.uniform(-1, 1, out)))
            ch, cur_w = out, (cur_w - k) // s + 1
        m = ModelSpec(name="fuzz1d", channels=1, height=1, width=w, layers=tuple(layers))
        if any(row.after.w_in * row.after.interval > w for row in trace_layout(m)):
            violations += 1
    report(
        "1300 random conv/pool and conv1d stacks stay inside the image grid",
        violations == 0,
        f"{violations} violations",
    )


def test_slot_planner():
    """The slot planner reports the exact per-layer footprints, including the
    flatten staging area and the FC working window."""
    plan = footprint(builtin("M1"), DEFAULT, alignment=1)
    sizes = {entry["layer"]: entry["slots"] for entry in plan.to_dict()["per_layer_sizes"]}
    ok = (
        plan.footprint == 784
        and sizes["input"] == 784
        and sizes["Flatten"] == 648
        and sizes["FC1"] == 64 * ((648 + 63) // 64)
    )
    report(
        "slot planner footprint and per-layer terms",
        ok,
        f"footprint {plan.footprint}, FC window {sizes['FC1']}",
    )


def test_cost_and_precision_trends():
    """Estimated cost rises strictly with depth budget, and fixed-point error
    shrinks strictly as the scale grows."""
    m = builtin("M1")
    _, metrics, _ = run_inference(m, random_samples(m, 1, 2), DEFAULT)
    costs = [estimate_cost(metrics, DEFAULT, depth_override=d) for d in range(7, 12)]
    cost_ok = all(b > a for a, b in zip(costs, costs[1:]))

    errs = {}
    for bits in (16, 30):
        params = HEParams(scale_bits=bits, quantize=True)
        errs[bits] = verify_against_oracle(m, params, n_trials=10, seed=5)["mean_abs_err"]
    precision_ok = 0.0 < errs[30] < errs[16]

    report(
        "cost grows with depth and error shrinks with scale",
        cost_ok and precision_ok,
        f"mean |err| {errs[16]:.2e} at 16 bits vs {errs[30]:.2e} at 30 bits",
    )


def test_pool_division_folding():
    """Deferring the pooling division and folding it into later layers gives
    exactly the eager-division result, for every layer that can follow a pool,
    at pool kernels 2 and 4 only.  Their divisors 1/4 and 1/16 are powers of
    two, so every fold is exact.  A 3x3 pool's 1/9 folded into a later conv's
    weights can differ from the oracle's eager division in the last bits, and
    no kernel of 3 is drawn here."""
    params = HEParams(poly_degree=2048, depth=11)
    rng = np.random.default_rng(17)
    ok = True
    for c in (2, 4):
        head = rand_conv2d(rng, 1, 2, 4)
        pooled = 8 // c
        tails = {
            "conv": (rand_conv2d(rng, 2, 2, 2), 2 * (pooled - 1) ** 2),
            "square": (Square(), 2 * pooled * pooled),
            "relu": (ApproxReLU(), 2 * pooled * pooled),
            "flatten": (None, 2 * pooled * pooled),
        }
        for label, (tail, flat_dim) in tails.items():
            layers = [head, AvgPool2d(kernel=c)]
            if tail is not None:
                layers.append(tail)
            layers += [Flatten(), rand_fc(rng, flat_dim, 4)]
            m = ModelSpec(name=f"pool-{label}-{c}", channels=1,
                          height=11, width=11, layers=tuple(layers))
            sample = rng.uniform(0, 1, (1, 1, 11, 11))
            got, _, _ = run_inference(m, sample, params)
            want = reference_infer(m, sample[0])
            if not np.array_equal(got[0], want):
                ok = False

    # The FC layer itself absorbs a pending divisor by prescaling its weights.
    be = make_backend(HEParams(poly_degree=2048, depth=11))
    for pending in (0.25, 0.0625):
        layout = single_layout(1, 1, 10, footprint=16, pending=pending)
        x = np.random.default_rng(23).uniform(0, 1, (1, 1, 10))
        state = build_state(be, layout, x)
        w = np.random.default_rng(29).uniform(-0.5, 0.5, (5, 10))
        b = np.random.default_rng(31).uniform(-0.5, 0.5, 5)
        layer = FC(dat_in=10, dat_out=5, weights=w, bias=b)
        out_state = apply_layer(be, state, layer)
        got = read_state(be, out_state)[0, 0, :5]
        if not np.array_equal(got, layer.forward(x.reshape(-1))):
            ok = False

    report("deferred pooling division by 4 and 16 folds exactly into every successor layer", ok)
