"""Checks of the benchmark's own float64 reference and metric tables.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
from slotcnn import FC, ApproxReLU, AvgPool2d, Conv1d, Conv2d, Flatten, ModelSpec, Square  # noqa: E402

IMAGE = np.arange(1.0, 10.0).reshape(1, 3, 3)  # [[1 2 3] [4 5 6] [7 8 9]]
KERNEL = np.array([[1.0, 2.0], [0.0, 1.0]])


def conv(stride):
    return Conv2d(ch_in=1, ch_out=1, kernel=2, stride=stride, weights=KERNEL.reshape(1, 1, 2, 2), bias=[0.5])


def test_conv_on_3x3_by_hand():
    # Window at (r, c): x[r,c] + 2 x[r,c+1] + x[r+1,c+1] + 0.5
    np.testing.assert_array_equal(reference.forward(conv(1), IMAGE), [[[10.5, 14.5], [22.5, 26.5]]])
    np.testing.assert_array_equal(reference.forward(conv(2), IMAGE), [[[10.5]]])


def test_pool_activations_and_fc_by_hand():
    x = np.array([[[10.5, 14.5], [22.5, 26.5]]])
    np.testing.assert_array_equal(reference.forward(AvgPool2d(kernel=2), x), [[[18.5]]])
    np.testing.assert_array_equal(reference.forward(Square(), x), x * x)
    relu = ApproxReLU(a0=1.0, a1=2.0, a2=0.5)
    np.testing.assert_array_equal(reference.forward(relu, np.array([2.0, -4.0])), [7.0, 1.0])
    fc = FC(dat_in=3, dat_out=2, weights=[[1.0, 0.0, -1.0], [2.0, 1.0, 0.0]], bias=[0.5, -1.0])
    np.testing.assert_array_equal(reference.forward(fc, np.array([1.0, 2.0, 3.0])), [-1.5, 3.0])
    c1 = Conv1d(ch_in=1, ch_out=1, kernel=2, stride=1, weights=[[[1.0, -1.0]]], bias=[0.0])
    np.testing.assert_array_equal(reference.forward(c1, np.array([[[1.0, 4.0, 9.0]]])), [[[-3.0, -5.0]]])


def test_whole_model_on_3x3_by_hand():
    # conv -> [10.5 14.5 22.5 26.5], squared -> [110.25 210.25 506.25 702.25]
    fc = FC(dat_in=4, dat_out=2, weights=[[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, -1.0, 0.0]], bias=[0.0, 1.0])
    m = ModelSpec(name="tiny", channels=1, height=3, width=3, layers=(conv(1), Square(), Flatten(), fc))
    np.testing.assert_array_equal(reference.infer(m, IMAGE), [-592.0, -295.0])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
