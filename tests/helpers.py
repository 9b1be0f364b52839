"""Shared utilities for building and reading synthetic layer states in tests."""

import numpy as np
import pytest

from slotcnn import engine
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
    LayoutState,
    ModelSpec,
    Square,
    valid_positions,
)

SMALL_PARAMS = HEParams(poly_degree=2048, depth=11)


def single_layout(channels, h, w, footprint=None, *, interval=1, w_img=None, h_img=None,
                  pending=1.0, gaps_zero=True, offsets=(0,)):
    """Layout for hand-built states: one sample region unless offsets say otherwise.

    ``w_img``/``h_img`` default to the grid dims; pass image dims scaled by the
    interval when emulating a post-stride state.  The footprint defaults to the
    image area, the same convention the planner uses.
    """
    w_img = w if w_img is None else w_img
    h_img = h if h_img is None else h_img
    if footprint is None:
        footprint = w_img * h_img
    return LayoutState(
        interval=interval,
        w_img=w_img,
        h_img=h_img,
        w_in=w,
        h_in=h,
        channels=channels,
        pending_const=pending,
        gaps_zero=gaps_zero,
        batch_offsets=tuple(offsets),
        footprint=footprint,
    )


def build_state(backend, layout, tensor, gap_rng=None):
    """Encrypt a logical (channels, h_in, w_in) tensor into the given layout.

    Slots at valid positions receive value / pending_const so the logical
    value round-trips exactly; gap slots hold zeros, or junk drawn from
    ``gap_rng`` when the layout admits garbage.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    pos = valid_positions(layout)
    plains = []
    for ch in range(layout.channels):
        region = np.zeros(layout.footprint)
        if gap_rng is not None:
            region[:] = gap_rng.uniform(-2.0, 2.0, layout.footprint)
        region[pos] = tensor[ch].reshape(-1) / layout.pending_const
        full = np.zeros(backend.params.num_slots)
        for off in layout.batch_offsets:
            full[off : off + layout.footprint] = region
        plains.append(backend.encode(full))
    return CipherState(backend.encrypt(plains), layout)


def read_state(backend, state, offset=None):
    """Decrypt the logical (channels, h_in, w_in) tensor at one sample offset."""
    lay = state.layout
    off = lay.batch_offsets[0] if offset is None else offset
    pos = valid_positions(lay) + off
    planes = backend.decrypt(state.ct)[:, pos] * lay.pending_const
    return planes.reshape(lay.channels, lay.h_in, lay.w_in)


def gap_slots(backend, state, offset=None):
    """Decrypted values of the non-valid slots inside one sample region."""
    lay = state.layout
    off = lay.batch_offsets[0] if offset is None else offset
    mask = np.ones(lay.footprint, dtype=bool)
    mask[valid_positions(lay)] = False
    return backend.decrypt(state.ct)[:, off : off + lay.footprint][:, mask]


def make_backend(params=SMALL_PARAMS):
    return Backend(params)


def random_stack(rng):
    """A random model mixing conv, pooling, activations, flatten and FC layers.

    Widths and heights are tracked as the layers are drawn, so most stacks
    are valid; the caller still filters them through ``validate``.
    """
    one_d = rng.random() < 0.3
    ch = int(rng.integers(1, 3))
    h = 1 if one_d else int(rng.integers(4, 13))
    w = int(rng.integers(4, 17))
    cur_ch, cur_h, cur_w = ch, h, w
    layers = []
    for _ in range(int(rng.integers(1, 5))):
        kind = rng.choice(["conv", "pool", "square", "relu"])
        if kind == "conv":
            k = int(rng.integers(1, min(cur_w if one_d else min(cur_h, cur_w), 4) + 1))
            s = int(rng.integers(1, k + 1))
            out = int(rng.integers(1, 4))
            bias = rng.uniform(-1, 1, out)
            if one_d:
                layers.append(Conv1d(ch_in=cur_ch, ch_out=out, kernel=k, stride=s,
                                     weights=rng.uniform(-1, 1, (out, cur_ch, k)), bias=bias))
            else:
                layers.append(Conv2d(ch_in=cur_ch, ch_out=out, kernel=k, stride=s,
                                     weights=rng.uniform(-1, 1, (out, cur_ch, k, k)), bias=bias))
                cur_h = (cur_h - k) // s + 1
            cur_w = (cur_w - k) // s + 1
            cur_ch = out
        elif kind == "pool":
            divs = [c for c in (2, 3) if not one_d and cur_h % c == 0 and cur_w % c == 0]
            if divs:
                c = int(rng.choice(divs))
                layers.append(AvgPool2d(kernel=c))
                cur_h //= c
                cur_w //= c
        elif kind == "square":
            layers.append(Square())
        else:
            layers.append(ApproxReLU(*rng.uniform(-1, 1, 3)))
    if rng.random() < 0.7:
        layers.append(Flatten())
        d_in = cur_ch * cur_h * cur_w
        for _ in range(int(rng.integers(1, 3))):
            d_out = int(rng.integers(1, 11))
            layers.append(FC(dat_in=d_in, dat_out=d_out, weights=rng.uniform(-1, 1, (d_out, d_in)),
                             bias=rng.uniform(-1, 1, d_out)))
            d_in = d_out
            if rng.random() < 0.3:
                layers.append(Square() if rng.random() < 0.5 else ApproxReLU())
    return ModelSpec(name="fuzz", channels=ch, height=h, width=w, layers=tuple(layers))


def stage_bytes(m, samples, params):
    """The decrypted ``(channels, num_slots)`` bytes of one ``run_inference``, after the level alignment and after every layer."""
    stages = []

    def kept(fn):
        def wrapper(backend, state, arg):
            state = fn(backend, state, arg)
            stages.append(backend.decrypt(state.ct).tobytes())
            return state

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "drop_level", kept(engine.drop_level))
        patch.setattr(engine, "apply_layer", kept(engine.apply_layer))
        engine.run_inference(m, samples, params)
    return stages


def loop_masked_sum(be, terms, coefs, support, bias):
    """The mul_plain / add loop that Backend.masked_sum replaces, over the rows of the rotated stacks ``terms``.

    The products are taken in masked_sum's (row of the stack, term) order.  Each result row starts with its first
    product, with no ``add`` recorded for it, and ends with the bias when one is given.
    """
    pattern = np.zeros(be.params.num_slots)
    pattern[support] = 1.0
    rows = [term[r] for r in range(len(terms[0].values)) for term in terms]
    out = []
    for o in range(coefs.shape[0]):
        acc = None
        for c, row in zip(coefs[o], rows, strict=True):
            prod = be.mul_plain(row, be.encode(pattern * c))
            acc = prod if acc is None else be.add(acc, prod)
        out.append(acc if bias is None else be.add(acc, be.encode(pattern * bias[o])))
    return out
