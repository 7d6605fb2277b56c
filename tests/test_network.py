"""Unrolled network blocks: shrinkage, descent step, transforms, stages."""

import numpy as np
import pytest

from unrollpr import cdp, network
from unrollpr.cdp import MaskSet, OperatorParams, masks_from_seed, measure
from unrollpr.datakit import stack_dataset
from unrollpr.field import SeededRng
from unrollpr.network import (
    PHASE_EPS,
    ConvStack,
    StageParams,
    init_net,
    net_forward,
    ppm_fwd,
    sgd_step_bwd,
    sgd_step_fwd,
    soft_threshold,
    softplus,
)


def _zero_stage(h, w, channels=2, mode="fixed", thresh_raw=0.0, step=0.01):
    net = init_net(h, w, num_stages=1, channels=channels, num_masks=1,
                   mode=mode, rng=SeededRng(0))
    st = net.stages[0]
    for blk in (st.ana, st.syn):
        blk.w1[...] = 0
        blk.b1[...] = 0
        blk.w2[...] = 0
        blk.b2[...] = 0
    st.thresh_raw[...] = thresh_raw
    st.step_size[...] = step
    return st


# ---------------------------------------------------------------------------
# soft threshold

def test_soft_threshold_shrinks():
    assert soft_threshold(2.0, 0.5) == 1.5


def test_soft_threshold_dead_zone():
    assert soft_threshold(-0.3, 0.5) == 0.0


def test_soft_threshold_zero_tau_is_identity():
    z = SeededRng(1).normal(50)
    assert np.array_equal(soft_threshold(z, 0.0), z)


def test_soft_threshold_negative_tau_rejected():
    with pytest.raises(ValueError):
        soft_threshold(np.ones(3), -0.1)


def test_soft_threshold_nonexpansive():
    rng = SeededRng(2)
    for _ in range(20):
        a = rng.normal(30)
        b = rng.normal(30)
        tau = rng.uniform(1)[0] * 2
        lhs = np.linalg.norm(soft_threshold(a, tau) - soft_threshold(b, tau))
        assert lhs <= np.linalg.norm(a - b) + 1e-12


def test_soft_threshold_is_prox_of_l1():
    # brute-force the scalar prox objective 0.5(u-z)^2 + tau|u| on a grid
    rng = SeededRng(3)
    for _ in range(10):
        z = float(rng.normal(1)[0]) * 2
        tau = float(rng.uniform(1)[0]) * 1.5
        grid = np.linspace(-5, 5, 20001)  # resolution 5e-4
        obj = 0.5 * (grid - z) ** 2 + tau * np.abs(grid)
        best = grid[np.argmin(obj)]
        assert abs(float(soft_threshold(z, tau)) - best) <= 5.01e-4


# ---------------------------------------------------------------------------
# descent step

def test_sgd_step_scalar_case():
    # 1x1 image,dense transform [1], mask 1: r = 2 - 0.5*(2 - 1*(2/2)) = 1.5
    mask = MaskSet(masks=np.ones((1, 1, 1), dtype=np.complex128))
    stage = StageParams(
        step_size=np.array(0.5), thresh_raw=np.array(0.0),
        op=OperatorParams.initial("dense", 1, 1),
        ana=ConvStack(*(np.zeros(s) for s in ((1, 1, 3, 3), 1, (1, 1, 3, 3), 1))),
        syn=ConvStack(*(np.zeros(s) for s in ((1, 1, 3, 3), 1, (1, 1, 3, 3), 1))),
    )
    x = np.array([[[2.0]]])
    y = np.array([[[[1.0]]]])
    r, _ = sgd_step_fwd(x, stage, y, mask)
    assert abs(r[0, 0, 0] - 1.5) <= 1e-15


def test_sgd_step_consistent_point_is_fixed():
    ms = masks_from_seed(10, 4, 8, 8)
    x = SeededRng(11).uniform(64).reshape(1, 8, 8) + 0.1
    y = measure(x[0], ms, 0.0, SeededRng(12))
    for t in (0.01, 0.5, 2.0):
        st = _zero_stage(8, 8, step=t)
        r, _ = sgd_step_fwd(x, st, y.values[None], ms)
        assert np.max(np.abs(r - x)) <= 1e-12


def test_sgd_step_zero_step_is_identity():
    ms = masks_from_seed(13, 4, 8, 8)
    x = SeededRng(14).uniform(64).reshape(1, 8, 8)
    y = measure(x[0], ms, 27.0, SeededRng(15))
    st = _zero_stage(8, 8, step=0.0)
    assert np.array_equal(sgd_step_fwd(x, st, y.values[None], ms)[0], x)


def _phase_pullback_oracle(dresid, z, y):
    """dz from dresid through resid = z - y * z / max(|z|, eps), written as
    both branches in full on the complex field z."""
    dz = dresid.copy()
    dph = -y * dresid
    mag = np.abs(z)
    big = mag > PHASE_EPS
    m3 = np.where(big, mag, 1.0) ** 3
    dz += np.where(big, -1j * z * (np.conj(dph) * z).imag / m3, dph / PHASE_EPS)
    return dz


def test_sgd_step_phase_derivative_matches_full_formula(monkeypatch):
    # batch of 4 scaled so |Wx| is exactly 0 (image 0), straddles PHASE_EPS
    # (images 1, 2) and sits far above it (image 3)
    h = w = 8
    b, j = 4, 3
    rng = SeededRng(60)
    stage = _zero_stage(h, w, mode="structured", step=0.3)
    stage.op.gain[...] = 1 + 0.3 * (rng.normal(h * w) + 1j * rng.normal(h * w)).reshape(h, w)
    stage.op.adj_gain[...] = np.conj(stage.op.gain) + 0.1 * rng.normal(h * w).reshape(h, w)
    ms = MaskSet(np.stack([masks_from_seed(61 + i, j, h, w).masks
                           for i in range(b)]))
    scale = np.array([0.0, 3e-13, 2e-12, 1.0])[:, None, None]
    x = scale * rng.uniform(b * h * w).reshape(b, h, w)
    y = rng.uniform(b * j * h * w).reshape(b, j, h, w)
    z = cdp.operator_apply_fwd(x, ms, stage.op)[0]
    mag = np.abs(z)
    assert (mag == 0).any() and (mag[1:3] <= PHASE_EPS).any()
    assert (mag[1:3] > PHASE_EPS).any() and (mag[3] > PHASE_EPS).all()

    r, cache = sgd_step_fwd(x, stage, y, ms)
    dr = rng.normal(b * h * w).reshape(b, h, w)
    grads = network.build_net(h, w, 1, 2, 1, "structured", False, False)
    dresid = cdp.operator_adjoint_vjp(-cache["t"] * dr, cache["adj"], grads.stages[0].op)
    want = _phase_pullback_oracle(dresid, z, y)
    seen = []
    vjp = cdp.operator_apply_vjp
    monkeypatch.setattr(cdp, "operator_apply_vjp",
                        lambda dz, c, g: (seen.append(dz.copy()), vjp(dz, c, g))[1])
    sgd_step_bwd(dr, cache, network.build_net(h, w, 1, 2, 1, "structured", False,
                                              False).stages[0])
    got = seen[0]
    small = mag <= PHASE_EPS
    for k in range(b):
        for part in (small[k], ~small[k]):  # each branch of each image
            if part.any():
                scale_k = np.max(np.abs(want[k][part]))
                assert scale_k > 0
                assert np.max(np.abs(got[k][part] - want[k][part])) <= 1e-14 * scale_k
    # the linear branch is the same arithmetic, so it matches bit for bit
    assert np.array_equal(got[small], want[small])


# ---------------------------------------------------------------------------
# transforms

def _conv_brute(x, w, b):
    # naive sliding-window convolution oracle, zero padding, 3x3
    co, ci, _, _ = w.shape
    h, ww = x.shape[1], x.shape[2]
    out = np.zeros((co, h, ww))
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    for o in range(co):
        for r in range(h):
            for c in range(ww):
                acc = 0.0
                for i in range(ci):
                    for dr in range(3):
                        for dc in range(3):
                            acc += xp[i, r + dr, c + dc] * w[o, i, dr, dc]
                out[o, r, c] = acc + b[o]
    return out


def test_transform_forward_zero_weights():
    st = _zero_stage(4, 4)
    out, _ = network._stack_fwd(np.ones((1, 1, 4, 4)), st.ana)
    assert out.shape == (1, 2, 4, 4)
    assert np.all(out == 0)


def test_transform_forward_identity_kernel():
    # center-tap kernels pass nonnegative images through unchanged
    stack = ConvStack(
        w1=np.zeros((1, 1, 3, 3)), b1=np.zeros(1),
        w2=np.zeros((1, 1, 3, 3)), b2=np.zeros(1),
    )
    stack.w1[0, 0, 1, 1] = 1.0
    stack.w2[0, 0, 1, 1] = 1.0
    r = SeededRng(20).uniform(16).reshape(1, 1, 4, 4)  # nonnegative
    out, _ = network._stack_fwd(r, stack)
    assert np.allclose(out, r, atol=1e-15)


def test_transform_forward_matches_brute_force():
    rng = SeededRng(21)
    stack = ConvStack(
        w1=rng.normal(2 * 1 * 9).reshape(2, 1, 3, 3), b1=rng.normal(2),
        w2=rng.normal(2 * 2 * 9).reshape(2, 2, 3, 3), b2=rng.normal(2),
    )
    r = rng.uniform(16).reshape(1, 4, 4)
    out, _ = network._stack_fwd(r[None], stack)
    mid = np.maximum(_conv_brute(r, stack.w1, stack.b1), 0.0)
    ref = _conv_brute(mid, stack.w2, stack.b2)
    assert np.max(np.abs(out[0] - ref)) <= 1e-12


def test_transform_inverse_zero_weights():
    st = _zero_stage(4, 4)
    out, _ = network._stack_fwd(np.ones((1, 2, 4, 4)), st.syn)
    assert out.shape == (1, 1, 4, 4)
    assert np.all(out == 0)


def test_transform_inverse_zero_input_zero_bias():
    rng = SeededRng(22)
    stack = ConvStack(
        w1=rng.normal(2 * 2 * 9).reshape(2, 2, 3, 3), b1=np.zeros(2),
        w2=rng.normal(1 * 2 * 9).reshape(1, 2, 3, 3), b2=np.zeros(1),
    )
    out, _ = network._stack_fwd(np.zeros((1, 2, 4, 4)), stack)
    assert np.all(out == 0)


def test_transform_inverse_matches_brute_force():
    rng = SeededRng(23)
    stack = ConvStack(
        w1=rng.normal(2 * 2 * 9).reshape(2, 2, 3, 3), b1=rng.normal(2),
        w2=rng.normal(1 * 2 * 9).reshape(1, 2, 3, 3), b2=rng.normal(1),
    )
    code = rng.normal(2 * 16).reshape(2, 4, 4)
    out, _ = network._stack_fwd(code[None], stack)
    mid = np.maximum(_conv_brute(code, stack.w1, stack.b1), 0.0)
    ref = _conv_brute(mid, stack.w2, stack.b2)
    assert np.max(np.abs(out[0] - ref)) <= 1e-12


def test_transform_channel_mismatch_rejected():
    st = _zero_stage(4, 4)
    with pytest.raises(ValueError):
        network._stack_fwd(np.ones((1, 1, 4, 4)), st.syn)  # syn expects c channels
    with pytest.raises(ValueError):
        network._stack_fwd(np.ones((1, 3, 4, 4)), st.syn)  # stack built for c=2


# ---------------------------------------------------------------------------
# proximal projection

def test_ppm_zero_weights_is_identity():
    st = _zero_stage(8, 8)
    r = SeededRng(30).uniform(64).reshape(1, 8, 8)
    assert np.array_equal(ppm_fwd(r, st)[0], r)


def test_ppm_saturated_threshold_is_identity():
    net = init_net(8, 8, num_stages=1, channels=4, num_masks=1,
                   mode="fixed", rng=SeededRng(31))
    st = net.stages[0]
    st.thresh_raw[...] = 1000.0  # tau so large every feature is shrunk away
    r = SeededRng(32).uniform(64).reshape(1, 8, 8)
    assert np.allclose(ppm_fwd(r, st)[0], r, atol=1e-15)


def test_ppm_matches_hand_composition():
    net = init_net(2, 2, num_stages=1, channels=1, num_masks=1,
                   mode="fixed", rng=SeededRng(33))
    st = net.stages[0]
    st.thresh_raw[...] = np.log(np.expm1(0.1))  # tau = 0.1
    st.ana.b1[...] = 0.05
    st.syn.b1[...] = -0.02
    r = np.array([[[0.3, 0.8], [0.1, 0.6]]])
    tau = float(softplus(st.thresh_raw))
    code, _ = network._stack_fwd(r[:, None], st.ana)
    out, _ = network._stack_fwd(soft_threshold(code, tau), st.syn)
    expected = r + out[:, 0]
    assert np.max(np.abs(ppm_fwd(r, st)[0] - expected)) <= 1e-14
    assert abs(tau - 0.1) <= 1e-12


# ---------------------------------------------------------------------------
# full forward

def test_net_forward_zero_transforms_is_pure_descent():
    net = init_net(8, 8, num_stages=3, channels=2, num_masks=4,
                   mode="fixed", rng=SeededRng(40))
    for st in net.stages:
        for blk in (st.ana, st.syn):
            blk.w1[...] = 0
            blk.w2[...] = 0
    ms = masks_from_seed(41, 4, 8, 8)
    truth = SeededRng(42).uniform(64).reshape(8, 8)
    y = measure(truth, ms, 27.0, SeededRng(43))
    out, _ = net_forward(*stack_dataset([(truth, y)])[1:], net)
    x = np.ones((1, 8, 8))
    for st in net.stages:
        x, _ = sgd_step_fwd(x, st, y.values[None], ms)
    assert np.max(np.abs(out - x)) <= 1e-13


def test_net_forward_consistent_start_is_fixed_point():
    net = init_net(8, 8, num_stages=5, channels=2, num_masks=4,
                   mode="fixed", rng=SeededRng(44))
    for st in net.stages:
        for blk in (st.ana, st.syn):
            blk.w1[...] = 0
            blk.w2[...] = 0
        st.step_size[...] = 0.7
    ms = masks_from_seed(45, 4, 8, 8)
    truth = SeededRng(46).uniform(64).reshape(8, 8) + 0.1
    y = measure(truth, ms, 0.0, SeededRng(47))
    truth, ys, masks = stack_dataset([(truth, y)])
    out, _ = net_forward(ys, masks, net, x0=truth)
    assert np.max(np.abs(out - truth)) <= 1e-11


def test_net_forward_scalar_chain():
    # one stage, 1x1: descent example composed with an identity projection
    mask = np.ones((1, 1, 1, 1), dtype=np.complex128)
    net = init_net(1, 1, num_stages=1, channels=1, num_masks=1,
                   mode="dense", rng=SeededRng(48))
    st = net.stages[0]
    st.step_size[...] = 0.5
    for blk in (st.ana, st.syn):
        blk.w1[...] = 0
        blk.w2[...] = 0
    out, _ = net_forward(np.array([[[[1.0]]]]), mask, net, x0=np.array([[[2.0]]]))
    assert abs(out[0, 0, 0] - 1.5) <= 1e-15


def test_net_forward_shape_and_finiteness():
    for s in range(100):
        net = init_net(8, 8, num_stages=7, channels=8, num_masks=4,
                       rng=SeededRng(1000 + s))
        ms = masks_from_seed(2000 + s, 4, 8, 8)
        truth = SeededRng(3000 + s).uniform(64).reshape(8, 8)
        y = measure(truth, ms, [9.0, 27.0, 81.0][s % 3], SeededRng(4000 + s))
        out, _ = net_forward(*stack_dataset([(truth, y)])[1:], net)
        assert out.shape == (1, 8, 8)
        assert np.all(np.isfinite(out))


def test_net_forward_batched_matches_single():
    net = init_net(8, 8, num_stages=2, channels=2, num_masks=2,
                   rng=SeededRng(50))
    ms1 = masks_from_seed(51, 2, 8, 8)
    ms2 = masks_from_seed(52, 2, 8, 8)
    t1 = SeededRng(53).uniform(64).reshape(8, 8)
    t2 = SeededRng(54).uniform(64).reshape(8, 8)
    y1 = measure(t1, ms1, 27.0, SeededRng(55))
    y2 = measure(t2, ms2, 27.0, SeededRng(56))
    ys = np.stack([y1.values, y2.values])
    msb = np.stack([ms1.masks, ms2.masks])
    batch, _ = net_forward(ys, msb, net)
    a, _ = net_forward(ys[:1], msb[:1], net)
    b, _ = net_forward(ys[1:], msb[1:], net)
    assert np.max(np.abs(batch[0] - a[0])) <= 1e-13
    assert np.max(np.abs(batch[1] - b[0])) <= 1e-13


def test_net_forward_rejects_mismatched_shapes():
    net = init_net(8, 8, num_stages=1, channels=2, num_masks=4,
                   rng=SeededRng(57))
    masks = masks_from_seed(58, 4, 8, 8).masks[None]
    with pytest.raises(ValueError, match="net_forward takes"):
        net_forward(np.zeros((1, 2, 8, 8)), masks, net)  # J mismatch
    with pytest.raises(ValueError, match="net_forward takes"):
        net_forward(np.zeros((1, 4, 4, 4)), masks, net)  # spatial mismatch


LAYOUTS = [(mode, tie, share) for mode in ("fixed", "structured", "dense")
           for tie in (False, True) for share in (False, True)]


@pytest.mark.parametrize("j", [1, 4])
@pytest.mark.parametrize("mode,tie,share", LAYOUTS)
def test_unrecorded_forward_bitwise_invariant_to_batch(monkeypatch, mode, tie, share, j):
    # the unrecorded forward runs 3-image blocks (7 images: 3 + 3 + 1); the
    # recorded one runs the whole batch at once.  Dense J=4 runs each block's
    # products as one GEMM over fewer rows, dense J=1 one gemv per image.
    n, h, c = 7, 8, 2
    monkeypatch.setattr(network, "_BLOCK_BYTES", 3 * h * h * (16 * j + 8 * c))
    net = init_net(h, h, num_stages=2, channels=c, num_masks=j, mode=mode,
                   tie_adjoint=tie, share_operator=share, rng=SeededRng(70))
    prng = SeededRng(71)
    for name, arr in net.tensors():
        if ".op." in name:
            noise = prng.normal(2 * arr.size)
            arr += 0.02 * (noise[::2] + 1j * noise[1::2]).reshape(arr.shape)
    ys = SeededRng(72).uniform(n * j * h * h).reshape(n, j, h, h)
    masks = np.stack([cdp.masks_from_seed(i % 3, j, h, h).masks for i in range(n)])
    recorded, tape = net_forward(ys, masks, net, record=True)
    sizes = []
    run = network._run_stages

    def spy(x, *args):
        sizes.append(len(x))
        return run(x, *args)

    monkeypatch.setattr(network, "_run_stages", spy)
    blocked, free = net_forward(ys, masks, net)
    assert sizes == [3, 3, 1]
    assert len(tape.stage_caches) == 2 and free.stage_caches == []
    assert free.output is blocked and np.array_equal(free.x0, tape.x0)
    assert blocked.tobytes() == recorded.tobytes()
    shared = np.broadcast_to(masks[0], masks.shape)  # one mask set for the whole batch
    assert (net_forward(ys, shared, net)[0].tobytes()
            == net_forward(ys, shared, net, record=True)[0].tobytes())


def test_net_forward_rejects_a_mask_batch_of_another_size():
    net = init_net(8, 8, num_stages=1, channels=2, num_masks=2, rng=SeededRng(73))
    masks = np.stack([masks_from_seed(74 + i, 2, 8, 8).masks for i in range(3)])
    with pytest.raises(ValueError, match=r"got values \(2, 2, 8, 8\), masks \(3, 2, 8, 8\)"):
        net_forward(np.ones((2, 2, 8, 8)), masks, net)


@pytest.mark.parametrize("form", ["values", "measurement", "mask-set", "shared-masks", "x0"])
def test_net_forward_takes_only_a_stacked_batch(form):
    net = init_net(8, 8, num_stages=1, channels=2, num_masks=2, rng=SeededRng(75))
    ms = masks_from_seed(76, 2, 8, 8)
    truth = SeededRng(77).uniform(64).reshape(8, 8)
    y = measure(truth, ms, 27.0, SeededRng(78))
    _, ys, masks = stack_dataset([(truth, y)])
    values, mask_arg, x0, given = {
        "values": (y.values, masks, None, "values (2, 8, 8), masks (1, 2, 8, 8), x0 None"),
        "measurement": (y, masks, None, "values (), masks (1, 2, 8, 8), x0 None"),
        "mask-set": (ys, ms, None, "values (1, 2, 8, 8), masks (), x0 None"),
        "shared-masks": (np.concatenate([ys, ys]), ms.masks, None,
                         "values (2, 2, 8, 8), masks (2, 8, 8), x0 None"),
        "x0": (ys, masks, truth, "values (1, 2, 8, 8), masks (1, 2, 8, 8), x0 (8, 8)"),
    }[form]
    want = ("net_forward takes (B, J, h, w) values and masks and an optional (B, h, w) x0, "
            "with (J, h, w) = (2, 8, 8) for this network; got " + given)
    for record in (False, True):
        with pytest.raises(ValueError) as err:
            net_forward(values, mask_arg, net, x0, record=record)
        assert str(err.value) == want
