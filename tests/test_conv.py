"""3x3 convolution: brute-force oracle, adjoint identities, padded-row
outputs, batch invariance."""

import numpy as np
import pytest

from unrollpr import cdp, conv, network
from unrollpr.conv import conv2d_bwd, conv2d_fwd, rows
from unrollpr.field import SeededRng
from unrollpr.network import init_net, net_backward_from_output, net_forward


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


def _bwd(dy, cache):
    """(dx, dw, db) of one backward call into zero holders."""
    dw, db = np.zeros_like(cache[1]), np.zeros(cache[1].shape[0])
    return (conv2d_bwd(dy, cache, dw, db), dw, db)


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
    dx, dw, db = _bwd(dy, cache)
    assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
    # conv(x) - b is linear in x: <conv(x) - b, dy> = <x, dx>
    lhs = np.sum((y - b[:, None, None]) * dy)
    assert abs(lhs - np.sum(x * dx)) <= 1e-12 * max(1.0, abs(lhs))
    # ... and linear in w: <dw, w'> = <dy, conv(x; w') - b>
    y2, _ = conv2d_fwd(x, w2, b)
    rhs = np.sum(dy * (y2 - b[:, None, None]))
    assert abs(np.sum(dw * w2) - rhs) <= 1e-12 * max(1.0, abs(rhs))
    assert np.array_equal(db, dy.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("ci,co", [(1, 8), (8, 8), (8, 1)])
def test_backward_adds_into_its_holders_never_overwrites(ci, co):
    # a shared or chained layer relies on dw and db being accumulated into
    x, w, b = _case(2, ci, co, 4, 8, seed=21)
    dy = SeededRng(22).normal(2 * co * 32).reshape(2, co, 4, 8)
    _, cache = conv2d_fwd(x, w, b)
    dx0, dw0, db0 = _bwd(dy, cache)
    rng = SeededRng(23)
    rw, rb = rng.normal(w.size).reshape(w.shape), rng.normal(b.size)
    dw, db = rw.copy(), rb.copy()
    dx = conv2d_bwd(dy, cache, dw, db)
    assert np.array_equal(dx, dx0)
    assert dw.tobytes() == (rw + dw0).tobytes() and db.tobytes() == (rb + db0).tobytes()


def test_cache_is_input_and_weight():
    x, w, b = _case(2, 3, 4, 4, 8, seed=5)
    _, cache = conv2d_fwd(x, w, b)
    assert isinstance(cache, tuple) and len(cache) == 2
    assert cache[0] is x and cache[1] is w


def _foreign_rows_view(a, seed):
    """``a`` as the interior of padded rows that conv.py did not allocate,
    with nonzero pad cells."""
    bsz, c, h, wd = a.shape
    size = (h + 2) * (wd + 2) + 2
    buf = 5.0 + SeededRng(seed).uniform(bsz * c * size).reshape(bsz, c, size)
    view = buf[:, :, wd + 3:wd + 3 + h * (wd + 2)].reshape(bsz, c, h, wd + 2)[..., :wd]
    view[...] = a
    return view


@pytest.mark.parametrize("ci,co", [(1, 8), (8, 8), (8, 1)])
def test_foreign_padded_row_view_is_padded(ci, co):
    bsz, h, wd = 2, 4, 8
    x, w, b = _case(bsz, ci, co, h, wd, seed=31)
    dy = SeededRng(32).normal(bsz * co * h * wd).reshape(bsz, co, h, wd)
    xv, dyv = _foreign_rows_view(x, 33), _foreign_rows_view(dy, 34)
    with pytest.raises(ValueError):
        rows(xv)
    y, cache = conv2d_fwd(xv, w, b)
    ref = _conv_brute(x, w, b)
    assert np.max(np.abs(y - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    got = _bwd(dyv, cache)
    for g, r in zip(got, _bwd(dy, (x, w))):
        assert np.max(np.abs(g - r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))


def test_rows_rejects_arrays_it_did_not_hand_out():
    x, w, b = _case(2, 3, 4, 4, 8, seed=35)
    y, _ = conv2d_fwd(x, w, b)
    assert rows(y).shape == (2, 4, 6 * 10 + 2)
    # same buffer, shape and strides, one cell off the w+3 offset
    shifted = rows(y)[:, :, 10:10 + 40].reshape(2, 4, 4, 10)[..., :8]
    for other in (x, y.copy(), y[:1], y[..., :-1], rows(y), shifted):
        with pytest.raises(ValueError):
            rows(other)
    y.shape = (4, 2, 4, 8)  # same object, same memory, channels regrouped
    with pytest.raises(ValueError):
        rows(y)


def _conv_and_prox_results():
    # two chained convs and their backward, each reading the previous
    # output's buffer in place, then a whole prox step
    x, w1, b1 = _case(3, 1, 8, 8, 8, seed=41)
    _, w2, b2 = _case(3, 8, 8, 8, 8, seed=42)
    y1, k1 = conv2d_fwd(x, w1, b1)
    y2, k2 = conv2d_fwd(y1, w2, b2)
    d1, dw2, db2 = _bwd(y2, k2)
    d0, dw1, db1 = _bwd(d1, k1)
    net = init_net(8, 8, num_stages=1, channels=4, num_masks=2, rng=SeededRng(43))
    r = SeededRng(44).uniform(3 * 64).reshape(3, 8, 8)
    xo, cache = network.ppm_fwd(r, net.stages[0])
    grads = network.build_net(8, 8, 1, 4, 2, "structured", False, False)
    dr = network.ppm_bwd(xo - r, cache, grads.stages[0])
    outs = [y1, y2, d1, d0, cache["shrunk"]]
    for out in outs:  # every cell outside the pixels is zero
        assert np.count_nonzero(rows(out)) == np.count_nonzero(out)
    return outs + [dw2, db2, dw1, db1, xo, dr, grads.arena.flat]


def test_every_pad_cell_of_an_output_is_written(monkeypatch):
    clean = [np.array(a) for a in _conv_and_prox_results()]
    monkeypatch.setattr(conv, "_new_rows", lambda shape: np.full(shape, np.nan))
    for a, b in zip(clean, _conv_and_prox_results()):
        assert np.array_equal(a, b)


def test_prox_step_calls_the_convs_by_their_module_names(monkeypatch):
    # perfbench wraps network.conv2d_fwd/conv2d_bwd and sizes FLOPs from the
    # (B, C, h, w) shape of the first argument
    calls = []

    def spy(tag, real):
        def f(*args):
            calls.append((tag, args[0].shape))
            return real(*args)
        return f

    monkeypatch.setattr(network, "conv2d_fwd", spy("fwd", network.conv2d_fwd))
    monkeypatch.setattr(network, "conv2d_bwd", spy("bwd", network.conv2d_bwd))
    net = init_net(8, 16, num_stages=1, channels=4, num_masks=2, rng=SeededRng(45))
    r = SeededRng(46).uniform(3 * 128).reshape(3, 8, 16)
    x, cache = network.ppm_fwd(r, net.stages[0])
    network.ppm_bwd(x, cache, network.build_net(8, 16, 1, 4, 2, "structured", False,
                                                False).stages[0])
    one, four = (3, 1, 8, 16), (3, 4, 8, 16)
    assert calls == [("fwd", one)] + [("fwd", four)] * 3 + [("bwd", one)] + [("bwd", four)] * 3


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
    single = np.concatenate([net_forward(ys[i:i + 1], masks[i:i + 1], net)[0]
                             for i in range(n)])
    assert np.array_equal(whole, chunked)
    assert np.array_equal(whole, single)


@pytest.mark.parametrize("mode", ["fixed", "structured", "dense"])
def test_net_backward_input_cotangent_bitwise_invariant_to_batch(mode):
    # the shapes of the forward test above; the dense operator's products run
    # as one GEMM over all rows of the batch, so this rests on the BLAS
    # giving each row the same bits whatever the row count
    n, h, j = 40, 16, 2
    net = init_net(h, h, num_stages=2, channels=8, num_masks=j, mode=mode,
                   rng=SeededRng(3))
    rng = SeededRng(4)
    ys = rng.uniform(n * j * h * h).reshape(n, j, h, h)
    dout = rng.normal(n * h * h).reshape(n, h, h)
    masks = np.stack([cdp.masks_from_seed(i % 3, j, h, h).masks for i in range(n)])

    def dx(s):
        _, tape = net_forward(ys[s], masks[s], net, record=True)
        return net_backward_from_output(tape, dout[s])[1]

    whole = dx(slice(None))
    chunked = np.concatenate([dx(slice(i, i + 7)) for i in range(0, n, 7)])
    single = np.concatenate([dx(slice(i, i + 1)) for i in range(n)])
    assert np.array_equal(whole, chunked)
    assert np.array_equal(whole, single)
