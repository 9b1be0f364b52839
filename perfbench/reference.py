"""Plain float64 forward pass, written independently of ``slotcnn.model``.

The package's own oracle (``reference_infer``) pins the slot schedule's
summation order so it can agree bit for bit.  This module computes the same
functions the textbook way instead: a sliding-window convolution, a mean
pool, and ``W @ x + b`` for fully connected layers.  It agrees with the
schedule to rounding error only, so it catches a schedule and an oracle that
are wrong in the same way.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, stride: int) -> np.ndarray:
    """``x`` is (ch_in, h, w), ``weights`` (ch_out, ch_in, kh, kw); no padding."""
    kh, kw = weights.shape[2:]
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    return np.tensordot(weights, windows, axes=([1, 2, 3], [0, 3, 4])) + bias[:, None, None]


def mean_pool(x: np.ndarray, kernel: int) -> np.ndarray:
    ch, h, w = x.shape
    return x.reshape(ch, h // kernel, kernel, w // kernel, kernel).mean(axis=(2, 4))


def forward(layer, x: np.ndarray) -> np.ndarray:
    """One layer, dispatched on the layer's class name."""
    kind = type(layer).__name__
    if kind == "Conv2d":
        if layer.padding:
            raise ValueError("the reference does not evaluate padded convolutions")
        return conv2d(x, layer.weights, layer.bias, layer.stride)
    if kind == "Conv1d":
        return conv2d(x, layer.weights[:, :, None, :], layer.bias, layer.stride)
    if kind == "AvgPool2d":
        return mean_pool(x, layer.kernel)
    if kind == "Square":
        return x * x
    if kind == "ApproxReLU":
        return layer.a2 * x * x + layer.a1 * x + layer.a0
    if kind == "Flatten":
        return x.reshape(-1)
    if kind == "FC":
        return layer.weights @ x + layer.bias
    raise ValueError(f"no reference for layer type {kind}")


def infer(model, sample) -> np.ndarray:
    """Flat output vector of ``model`` on one (channels, height, width) sample."""
    x = np.asarray(sample, dtype=np.float64)
    for layer in model.layers:
        x = forward(layer, x)
    return x.reshape(-1)


def relative_error(out: np.ndarray, ref: np.ndarray) -> float:
    """Largest absolute deviation, relative to the largest reference magnitude."""
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(out - ref))) / scale if scale else float(np.max(np.abs(out)))
