"""3x3 convolution: brute-force oracle, adjoint identities, batch invariance."""

import numpy as np
import pytest

from unrollpr import cdp
from unrollpr.conv import conv2d_bwd, conv2d_fwd
from unrollpr.field import SeededRng
from unrollpr.network import init_net, net_forward


def _conv_brute(x, w, b):
    # naive zero-padded 3x3 correlation over a batch
    bsz, ci, h, wd = x.shape
    co = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((bsz, co, h, wd))
    for n in range(bsz):
        for o in range(co):
            for r in range(h):
                for c in range(wd):
                    out[n, o, r, c] = np.sum(xp[n, :, r:r + 3, c:c + 3] * w[o]) + b[o]
    return out


def _case(bsz, ci, co, h, wd, seed):
    rng = SeededRng(seed)
    x = rng.normal(bsz * ci * h * wd).reshape(bsz, ci, h, wd)
    w = rng.normal(co * ci * 9).reshape(co, ci, 3, 3)
    b = rng.normal(co)
    return x, w, b


SHAPES = [(2, 2), (4, 8), (32, 32)]
CHANNELS = [(ci, co) for ci in (1, 3, 8) for co in (1, 8)]


@pytest.mark.parametrize("h,wd", SHAPES)
@pytest.mark.parametrize("ci,co", CHANNELS)
@pytest.mark.parametrize("bsz", [1, 4])
def test_forward_matches_brute_force(bsz, ci, co, h, wd):
    x, w, b = _case(bsz, ci, co, h, wd, seed=ci * 100 + co * 10 + h)
    y, _ = conv2d_fwd(x, w, b)
    ref = _conv_brute(x, w, b)
    assert y.shape == (bsz, co, h, wd)
    assert np.max(np.abs(y - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("h,wd", SHAPES)
@pytest.mark.parametrize("ci,co", CHANNELS)
@pytest.mark.parametrize("bsz", [1, 4])
def test_backward_adjoint_identities(bsz, ci, co, h, wd):
    x, w, b = _case(bsz, ci, co, h, wd, seed=7 + ci + co + h)
    rng = SeededRng(99)
    dy = rng.normal(bsz * co * h * wd).reshape(bsz, co, h, wd)
    w2 = rng.normal(w.size).reshape(w.shape)
    y, cache = conv2d_fwd(x, w, b)
    dx, dw, db = conv2d_bwd(dy, cache)
    assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
    # conv(x) - b is linear in x: <conv(x) - b, dy> = <x, dx>
    lhs = np.sum((y - b[:, None, None]) * dy)
    assert abs(lhs - np.sum(x * dx)) <= 1e-12 * max(1.0, abs(lhs))
    # ... and linear in w: <dw, w'> = <dy, conv(x; w') - b>
    y2, _ = conv2d_fwd(x, w2, b)
    rhs = np.sum(dy * (y2 - b[:, None, None]))
    assert abs(np.sum(dw * w2) - rhs) <= 1e-12 * max(1.0, abs(rhs))
    assert np.array_equal(db, dy.sum(axis=(0, 2, 3)))


def test_cache_is_input_and_weight():
    x, w, b = _case(2, 3, 4, 4, 8, seed=5)
    _, cache = conv2d_fwd(x, w, b)
    assert isinstance(cache, tuple) and len(cache) == 2
    assert cache[0] is x and cache[1] is w


@pytest.mark.parametrize("mode", ["fixed", "structured", "dense"])
def test_net_forward_bitwise_invariant_to_batch(mode):
    # 16x16 with c=8: the whole set spans more than one block of images
    n, h, j = 40, 16, 2
    net = init_net(h, h, num_stages=2, channels=8, num_masks=j, mode=mode,
                   rng=SeededRng(3))
    rng = SeededRng(4)
    ys = rng.uniform(n * j * h * h).reshape(n, j, h, h)
    masks = np.stack([cdp.masks_from_seed(i % 3, j, h, h).masks for i in range(n)])
    whole, _ = net_forward(ys, masks, net)
    chunked = np.concatenate([net_forward(ys[i:i + 7], masks[i:i + 7], net)[0]
                              for i in range(0, n, 7)])
    single = np.stack([net_forward(ys[i], masks[i], net)[0] for i in range(n)])
    assert np.array_equal(whole, chunked)
    assert np.array_equal(whole, single)
