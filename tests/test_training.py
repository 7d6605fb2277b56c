"""Loss, gradients, Adam, schedule, training loop, checkpoints."""

import hashlib
import math
import os
import pathlib
import re
import stat
import struct

import numpy as np
import pytest

from unrollpr import cdp, datakit, network, training
from unrollpr.cli import main
from unrollpr.datakit import DatasetManifest, SampleRecord, build_dataset
from unrollpr.errors import FormatError, UnsupportedVersionError
from unrollpr.field import STREAM_INIT, STREAM_SHUFFLE, SeededRng, derive_rng
from unrollpr.network import init_net, net_forward
from unrollpr.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainConfig,
    adam_update,
    backward,
    checkpoint_load,
    checkpoint_save,
    init_adam,
    loss_mse,
    lr_schedule,
    train_full,
)


def _rand_complex(rng, shape):
    n = int(np.prod(shape))
    return (rng.normal(n) + 1j * rng.normal(n)).reshape(shape)


def _generic_instance(seed=42, mode="structured"):
    """Tiny problem at a generic (non-kink) parameter point."""
    rng = SeededRng(seed)
    truth = rng.uniform(64).reshape(8, 8)
    masks = cdp.masks_from_seed(seed + 1, 2, 8, 8)
    y = cdp.measure(truth, masks, 27.0, SeededRng(seed + 2))
    truth, y, masks = datakit.stack_dataset([(truth, y)])
    net = init_net(8, 8, num_stages=2, channels=2, num_masks=2,
                   mode=mode, rng=SeededRng(seed + 3))
    prng = SeededRng(seed + 4)
    for st in net.stages:
        st.thresh_raw[...] = np.log(np.expm1(0.08))
        st.step_size[...] = 0.1
        for blk in (st.ana, st.syn):
            blk.b1 += 0.05 + 0.1 * prng.uniform(blk.b1.size)
            blk.b2 += 0.05 + 0.1 * prng.uniform(blk.b2.size)
        if mode == "structured":
            st.op.gain += 0.05 * _rand_complex(prng, (8, 8))
            st.op.adj_gain += 0.05 * _rand_complex(prng, (8, 8))
    return net, y, masks, truth


def _toy_dataset(n, h, w, seed, alphas=(27.0,)):
    key = SeededRng(seed, 999)
    records = []
    for i in range(n):
        records.append(SampleRecord(
            alpha=float(alphas[i % len(alphas)]),
            mask_seed=int(key.integers(0, 2 ** 62)),
            synth_seed=int(key.integers(0, 2 ** 62)),
        ))
    manifest = DatasetManifest(height=h, width=w, seed=seed, records=records)
    return build_dataset(manifest)


# ---------------------------------------------------------------------------
# loss

def test_loss_perfect_reconstruction_is_zero():
    x = SeededRng(1).uniform(64).reshape(8, 8)
    assert loss_mse([x], [x]) == 0.0


def test_loss_uniform_offset():
    x = SeededRng(2).uniform(64).reshape(8, 8)
    assert abs(loss_mse([x + 0.1], [x]) - 0.01) <= 1e-12


def test_loss_averages_over_batch():
    a = np.zeros((4, 4))
    out = [a + 0.1, a + math.sqrt(0.03)]  # per-image MSE 0.01 and 0.03
    assert abs(loss_mse(out, [a, a]) - 0.02) <= 1e-12


def test_loss_empty_batch_rejected():
    with pytest.raises(ValueError):
        loss_mse([], [])


def test_loss_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        loss_mse([np.zeros((4, 4))], [np.zeros((8, 8))])
    with pytest.raises(ValueError):  # a ragged batch
        loss_mse([np.zeros((4, 4)), np.zeros((8, 8))], [np.zeros((4, 4))] * 2)


# ---------------------------------------------------------------------------
# backward

def test_backward_zero_gradient_at_exact_minimum():
    # zero transform branch and y = |Wx| keeps every stage at the fixed
    # point, so output == truth and the quadratic loss sits at its minimum
    net = init_net(8, 8, num_stages=2, channels=2, num_masks=4,
                   mode="fixed", rng=SeededRng(5))
    for st in net.stages:
        for blk in (st.ana, st.syn):
            blk.w1[...] = 0
            blk.w2[...] = 0
    ms = cdp.masks_from_seed(6, 4, 8, 8)
    truth = SeededRng(7).uniform(64).reshape(8, 8) + 0.1
    y = cdp.measure(truth, ms, 0.0, SeededRng(8))
    truth, y, masks = datakit.stack_dataset([(truth, y)])
    out, tape = net_forward(y, masks, net, x0=truth, record=True)
    assert np.max(np.abs(out - truth)) <= 1e-11
    grads = backward(tape, truth)
    for name, g in grads.items():
        assert np.max(np.abs(g)) <= 1e-10, name


def test_backward_directional_derivative():
    net, y, masks, truth = _generic_instance()
    _, tape = net_forward(y, masks, net, record=True)
    grads = backward(tape, truth)
    drng = SeededRng(99)
    direction = {}
    analytic = 0.0
    for name, arr in net.tensors():
        d = drng.normal(arr.view(np.float64).size)
        direction[name] = d
        analytic += float(grads[name].view(np.float64).reshape(-1) @ d)

    def loss_at(eps):
        for name, arr in net.tensors():
            arr.view(np.float64).reshape(-1)[...] += eps * direction[name]
        x, _ = net_forward(y, masks, net)
        val = loss_mse(x, truth)
        for name, arr in net.tensors():
            arr.view(np.float64).reshape(-1)[...] -= eps * direction[name]
        return val

    h = 1e-6
    fd = (loss_at(h) - loss_at(-h)) / (2 * h)
    assert abs(fd - analytic) <= 1e-5 * max(abs(analytic), 1e-8)


LAYOUTS = [(mode, tie, share) for mode in ("fixed", "structured", "dense")
           for tie in (False, True) for share in (False, True)]


@pytest.mark.parametrize("mode,tie,share", LAYOUTS)
def test_backward_directional_derivative_every_layout(mode, tie, share):
    # every stored tensor off its init point, tied and shared operators too
    seed = 42
    truth = SeededRng(seed).uniform(64).reshape(8, 8)
    masks = cdp.masks_from_seed(seed + 1, 2, 8, 8)
    y = cdp.measure(truth, masks, 27.0, SeededRng(seed + 2))
    truth, y, masks = datakit.stack_dataset([(truth, y)])
    net = init_net(8, 8, num_stages=2, channels=2, num_masks=2, mode=mode,
                   tie_adjoint=tie, share_operator=share, rng=SeededRng(seed + 3))
    prng = SeededRng(seed + 4)
    for st in net.stages:
        st.thresh_raw[...] = np.log(np.expm1(0.08))
        st.step_size[...] = 0.1
        for blk in (st.ana, st.syn):
            blk.b1 += 0.05 + 0.1 * prng.uniform(blk.b1.size)
            blk.b2 += 0.05 + 0.1 * prng.uniform(blk.b2.size)
    for name, arr in net.tensors():
        if ".op." in name:
            arr += (0.02 if mode == "dense" else 0.05) * _rand_complex(prng, arr.shape)

    _, tape = net_forward(y, masks, net, record=True)
    grads = backward(tape, truth)
    drng = SeededRng(99)
    direction = {name: drng.normal(arr.view(np.float64).size) for name, arr in net.tensors()}
    analytic = sum(float(grads[name].view(np.float64).reshape(-1) @ d)
                   for name, d in direction.items())

    def loss_at(eps):
        for name, arr in net.tensors():
            arr.view(np.float64).reshape(-1)[...] += eps * direction[name]
        x, _ = net_forward(y, masks, net)
        for name, arr in net.tensors():
            arr.view(np.float64).reshape(-1)[...] -= eps * direction[name]
        return loss_mse(x, truth)

    h = 1e-6
    fd = (loss_at(h) - loss_at(-h)) / (2 * h)
    assert abs(fd - analytic) <= 1e-5 * max(abs(analytic), 1e-8)


def test_backward_needs_a_recorded_tape():
    net, y, masks, truth = _generic_instance()
    _, tape = net_forward(y, masks, net)
    assert tape.stage_caches == []
    with pytest.raises(ValueError, match="record=True"):
        backward(tape, truth)


def test_backward_truth_shape_mismatch_rejected():
    net, y, masks, truth = _generic_instance()
    _, tape = net_forward(y, masks, net, record=True)
    with pytest.raises(ValueError, match="does not match"):
        backward(tape, np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# Adam

def _tiny_net(seed=3):
    return init_net(2, 2, num_stages=1, channels=1, num_masks=1,
                    mode="fixed", rng=SeededRng(seed))


def _zero_grads(net):
    return network.Arena(net.arena.slots)


def test_adam_zero_gradient_keeps_parameters_bitwise():
    net = _tiny_net()
    before = {n: a.copy() for n, a in net.tensors()}
    adam_update(net, _zero_grads(net), init_adam(net), 0.01)
    for n, a in net.tensors():
        assert np.array_equal(a, before[n])


def test_adam_first_step_hand_value():
    # g=1, lr=0.01: m=0.1, v=0.001, mhat=1, vhat=1, delta = -0.01/(1+1e-8)
    net = _tiny_net()
    before = float(net.stages[0].step_size)
    grads = _zero_grads(net)
    grads["stage0.step_size"][...] = 1.0
    adam_update(net, grads, init_adam(net), 0.01)
    delta = float(net.stages[0].step_size) - before
    assert abs(delta + 0.01 / (1.0 + 1e-8)) <= 1e-12


def test_adam_first_step_is_signed_learning_rate():
    for g in (1.0, 10.0, 100.0, -1.0, -10.0, -100.0):
        net = _tiny_net()
        before = float(net.stages[0].step_size)
        grads = _zero_grads(net)
        grads["stage0.step_size"][...] = g
        adam_update(net, grads, init_adam(net), 0.01)
        delta = float(net.stages[0].step_size) - before
        assert abs(delta + 0.01 * np.sign(g)) <= 1e-6 * 0.01


def test_adam_first_step_scale_invariance():
    deltas = []
    for g in (2.0, 20.0):
        net = _tiny_net()
        before = float(net.stages[0].step_size)
        grads = _zero_grads(net)
        grads["stage0.step_size"][...] = g
        adam_update(net, grads, init_adam(net), 0.01)
        deltas.append(float(net.stages[0].step_size) - before)
    assert abs(deltas[0] - deltas[1]) <= 1e-5 * abs(deltas[0])


def test_adam_updates_complex_parameters_in_real_coordinates():
    net = init_net(2, 2, num_stages=1, channels=1, num_masks=1,
                   mode="structured", rng=SeededRng(4))
    grads = _zero_grads(net)
    g = np.zeros((2, 2), dtype=np.complex128)
    g[0, 0] = 1.0 - 2.0j  # dL/dRe = 1, dL/dIm = -2
    grads["stage0.op.gain"][...] = g
    before = net.stages[0].op.gain.copy()
    adam_update(net, grads, init_adam(net), 0.01)
    moved = net.stages[0].op.gain - before
    assert abs(moved[0, 0].real + 0.01) <= 1e-7
    assert abs(moved[0, 0].imag - 0.01) <= 1e-7
    assert np.max(np.abs(moved.ravel()[1:])) == 0.0


@pytest.mark.parametrize("block", [7, 1000, training._ADAM_BLOCK])
@pytest.mark.parametrize("step", [1, 2, 10, 1000, 100000])
def test_textbook_adam_step_matches_the_bias_corrected_moments(monkeypatch, step, block):
    # the oracle bias-corrects both moments, lr * mhat / (sqrt(vhat) + eps);
    # adam_update folds the corrections into the step size and eps instead
    monkeypatch.setattr(training, "_ADAM_BLOCK", block)
    net = init_net(8, 8, num_stages=2, channels=3, num_masks=2, mode="structured",
                   rng=SeededRng(5))
    n = net.arena.flat.size
    rng = SeededRng(step)

    def spread(lo, hi):  # random signs, magnitudes log-uniform on [10^lo, 10^hi]
        sign = np.where(rng.uniform(n) < 0.5, -1.0, 1.0)
        return sign * 10.0 ** (lo + (hi - lo) * rng.uniform(n))

    g = spread(-12, 3)
    m0 = np.zeros(n) if step == 1 else spread(-12, 3)
    v0 = np.zeros(n) if step == 1 else np.abs(spread(-24, 6))
    g[::5] = 0.0  # exact zeros: with m0 zero too the step is exactly zero
    m0[::10] = v0[::10] = 0.0
    net.arena.flat[...] = 0.0  # so the parameters come out as minus the step
    state = init_adam(net)
    state.m.flat[...], state.v.flat[...], state.step = m0, v0, step - 1
    grads = _zero_grads(net)
    grads.flat[...] = g
    lr = 1e-3
    adam_update(net, grads, state, lr)

    m = m0 * ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v = v0 * ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    c1, c2 = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
    want = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    assert state.step == step
    assert state.m.flat.tobytes() == m.tobytes() and state.v.flat.tobytes() == v.tobytes()
    got = -net.arena.flat
    assert np.array_equal(got == 0.0, want == 0.0) and np.count_nonzero(want == 0.0) >= n // 10
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


def test_adam_shape_mismatch_rejected():
    net = _tiny_net()
    grads = _zero_grads(net)
    grads["stage0.step_size"] = np.zeros(3)
    with pytest.raises(ValueError, match=r"^stage0\.step_size gradient is not a view"):
        adam_update(net, grads, init_adam(net), 0.01)


def test_adam_missing_gradient_rejected():
    net = _tiny_net()
    grads = _zero_grads(net)
    del grads["stage0.step_size"]
    with pytest.raises(ValueError, match=r"^stage0\.step_size gradient is not a view"):
        adam_update(net, grads, init_adam(net), 0.01)


def test_adam_rejects_gradients_given_as_a_dict():
    net = _tiny_net()
    state = init_adam(net)
    before = net.arena.flat.copy()
    grads = {name: np.zeros_like(arr) for name, arr in net.tensors()}
    with pytest.raises(ValueError, match=r"^stage0\.step_size gradient is not a view"):
        adam_update(net, grads, state, 0.01)
    assert state.step == 0 and net.arena.flat.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# schedule

def test_lr_schedule_start():
    cfg = TrainConfig(epochs=1)
    assert lr_schedule(0, cfg) == 1e-3


def test_lr_schedule_floor_division():
    cfg = TrainConfig(epochs=1)
    assert lr_schedule(1, cfg) == 1e-3


def test_lr_schedule_two_decays():
    cfg = TrainConfig(epochs=1)
    assert abs(lr_schedule(4, cfg) - 1e-3 * 0.95 ** 2) <= 1e-18


def test_lr_schedule_rejects_negative_epoch():
    with pytest.raises(ValueError):
        lr_schedule(-1, TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# training loop

def test_train_zero_epochs_returns_initialization():
    ds = _toy_dataset(6, 8, 8, seed=10)
    cfg = TrainConfig(epochs=0, batch_size=3, seed=77, num_stages=2, channels=2)
    net, history, _ = train_full(ds, cfg)
    assert history == []
    ref = init_net(8, 8, num_stages=2, channels=2, num_masks=4,
                   mode="structured", rng=derive_rng(77, STREAM_INIT))
    for (n1, a1), (n2, a2) in zip(net.tensors(), ref.tensors()):
        assert n1 == n2
        assert np.array_equal(a1, a2)


@pytest.mark.parametrize("field,value,err", [
    ("lr", -1e-3, "lr=-0.001"), ("lr", float("nan"), "lr=nan"), ("epochs", -1, "epochs=-1"),
    ("batch_size", 0, "batch_size=0"), ("threads", 0, "threads=0"), ("mode", "banana", "mode="),
    ("num_stages", 0, "K=0 outside"), ("channels", 1025, "c=1025 outside"),
    ("num_masks", 0, "J=0 outside"),
])
def test_train_checks_its_config_before_reading_data(monkeypatch, field, value, err):
    monkeypatch.setattr(training, "stack_dataset", None)  # a TypeError if the data is read
    cfg = TrainConfig(epochs=1, batch_size=2, num_stages=1, channels=1)
    setattr(cfg, field, value)
    with pytest.raises(ValueError, match="^invalid training config: " + re.escape(err)):
        train_full(_toy_dataset(2, 8, 8, seed=11), cfg)


def test_train_rejects_a_mask_count_unlike_the_data(monkeypatch):
    monkeypatch.setattr(network, "init_net", None)  # a TypeError if a network is built
    cfg = TrainConfig(epochs=1, batch_size=2, num_stages=1, channels=1, num_masks=2)
    with pytest.raises(ValueError, match=r"num_masks=2, the measurements hold J=4 masks"):
        train_full(_toy_dataset(2, 8, 8, seed=11), cfg)


def test_train_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train_full([], TrainConfig(epochs=1))


def test_train_accepts_masks_without_a_seed():
    dataset = _toy_dataset(3, 8, 8, 40)
    theta = 2 * np.pi * SeededRng(41, 1).uniform(4 * 8 * 8).reshape(4, 8, 8)
    masks = cdp.MaskSet(np.exp(1j * theta))  # built by hand: no seed
    assert masks.seed is None
    img = dataset[1][0]
    dataset[1] = (img, cdp.measure(img, masks, 27.0, SeededRng(42)))
    assert np.array_equal(datakit.stack_dataset(dataset)[2][1], masks.masks)
    cfg = TrainConfig(epochs=1, batch_size=2, num_stages=1, channels=1)
    _, history, _ = train_full(dataset, cfg)
    assert np.isfinite(history[0])


def test_a_measurement_cannot_be_built_without_its_masks():
    mv = _toy_dataset(1, 8, 8, 40)[0][1]
    with pytest.raises(TypeError, match="masks"):
        cdp.MeasurementVector(mv.values, mv.alpha, mv.mask_seed)


def test_training_and_eval_build_no_masks_after_the_dataset(tmp_path, monkeypatch, capsys):
    ds = _toy_dataset(4, 16, 16, 43)
    val = _toy_dataset(2, 16, 16, 44)

    def forbidden(*args):
        raise AssertionError("masks rebuilt after the dataset was built")

    monkeypatch.setattr(cdp, "masks_from_seed", forbidden)
    cfg = TrainConfig(epochs=1, batch_size=2, num_stages=1, channels=1)
    net, _, state = train_full(ds, cfg, val_dataset=val)
    ckpt = tmp_path / "m.ckpt"
    checkpoint_save(net, state, str(ckpt))
    data = tmp_path / "data"
    datakit.generate_dataset(str(data), 3, 16, 16, seed=45)
    real_build = datakit.build_dataset

    def build_then_forbid(*args, **kwargs):
        out = real_build(*args, **kwargs)
        monkeypatch.setattr(datakit, "masks_from_seed", forbidden)
        return out

    monkeypatch.setattr(datakit, "build_dataset", build_then_forbid)
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
    assert "mean psnr=" in capsys.readouterr().out


def test_train_deterministic_checkpoints(tmp_path):
    ds = _toy_dataset(8, 8, 8, seed=20)
    paths = []
    for run in range(2):
        cfg = TrainConfig(epochs=2, batch_size=4, seed=5,
                          num_stages=2, channels=2)
        net, _, state = train_full(ds, cfg)
        p = tmp_path / ("run%d.ckpt" % run)
        checkpoint_save(net, state, str(p))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_loss_history_finite_and_decreasing_trend():
    ds = _toy_dataset(12, 8, 8, seed=30)
    cfg = TrainConfig(epochs=4, batch_size=4, seed=6, num_stages=2, channels=2)
    _, history, _ = train_full(ds, cfg)
    assert len(history) == 4
    assert all(np.isfinite(history))
    assert history[-1] < history[0]


def _capture_trained_nets(monkeypatch):
    """(network, its tensors before the first step) for every network that
    train_full trains, as it hands each to ``training.init_adam``."""
    nets = []
    real = training.init_adam

    def capture(net):
        nets.append((net, {n: a.copy() for n, a in net.tensors()}))
        return real(net)

    monkeypatch.setattr(training, "init_adam", capture)
    return nets


@pytest.mark.parametrize("threads", [1, 2])
def test_train_stops_at_the_first_nonfinite_step(monkeypatch, worker_pool, threads):
    ds = _toy_dataset(8, 8, 8, seed=20)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=5, num_stages=2, channels=2,
                      threads=threads)
    perm = derive_rng(cfg.seed, STREAM_SHUFFLE).permutation(len(ds))
    # third batch of epoch 1; at two threads, the chunk a worker computes
    ds[int(perm[5])][1].values[0, 0, 0] = np.nan
    nets = _capture_trained_nets(monkeypatch)
    after = []
    real = training.adam_update

    def recording(params, grads, state, lr):
        real(params, grads, state, lr)
        after.append({n: a.copy() for n, a in params.tensors()})

    monkeypatch.setattr(training, "adam_update", recording)
    with pytest.raises(FloatingPointError, match=r"epoch 1 step 3\b"):
        train_full(ds, cfg)
    assert len(training._WORKERS) == threads - 1
    # the NaN batch made no update: the weights are those after step 2
    assert len(after) == 2
    (net, _), = nets
    for n, a in net.tensors():
        assert np.isfinite(a).all()
        assert np.array_equal(a, after[-1][n])


@pytest.mark.parametrize("threads", [1, 2])
def test_train_names_a_nonfinite_gradient_before_the_update(monkeypatch, worker_pool, threads):
    # the loss stays finite; at two threads only the worker's chunk is hit
    ds = _toy_dataset(8, 8, 8, seed=20)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5, num_stages=2, channels=2,
                      threads=threads)
    nets = _capture_trained_nets(monkeypatch)
    parent = os.getpid()
    real = training.backward

    def poisoned(tape, truth, batch_scale=None):
        grads = real(tape, truth, batch_scale)
        if threads == 1 or os.getpid() != parent:
            grads["stage1.syn.w1"][0, 1, 2, 0] = np.nan
        return grads

    monkeypatch.setattr(training, "backward", poisoned)
    with pytest.raises(FloatingPointError,
                       match=r"^training diverged at epoch 1 step 1: gradient of stage1\.syn\.w1$"):
        train_full(ds, cfg)
    assert len(training._WORKERS) == threads - 1
    (net, before), = nets
    for n, a in net.tensors():
        assert a.tobytes() == before[n].tobytes(), n


def test_train_builds_the_network_the_config_describes():
    ds = _toy_dataset(4, 8, 8, seed=41)
    cfg = TrainConfig(epochs=1, batch_size=2, num_stages=3, channels=4, mode="dense",
                      tie_adjoint=True)
    net, _, _ = train_full(ds, cfg)
    assert (net.num_stages, net.channels, net.mode, net.tie_adjoint) == (3, 4, "dense", True)
    with pytest.raises(TypeError, match="net"):  # no second description to ignore it
        train_full(ds, cfg, net=init_net(8, 8, num_stages=1, channels=1, num_masks=4))


def test_train_fixed_mode_has_no_operator_tensors():
    ds = _toy_dataset(6, 8, 8, seed=40)
    cfg = TrainConfig(epochs=1, batch_size=3, seed=8, num_stages=2,
                      channels=2, mode="fixed")
    net, _, _ = train_full(ds, cfg)
    names = [n for n, _ in net.tensors()]
    assert not any(".op." in n for n in names)
    # and the effective operator still equals the physical one
    ms = cdp.masks_from_seed(41, 4, 8, 8)
    x = SeededRng(42).uniform(64).reshape(8, 8)
    za = cdp.operator_apply_fwd(x, ms, net.stages[0].op)[0]
    zb = cdp.operator_apply_fwd(x, ms, cdp.OperatorParams(mode="fixed"))[0]
    assert np.array_equal(za, zb)


def test_train_csv_log(tmp_path):
    ds = _toy_dataset(6, 8, 8, seed=50)
    log = tmp_path / "log.csv"
    cfg = TrainConfig(epochs=3, batch_size=3, seed=9, num_stages=2, channels=2)
    _, history, _ = train_full(ds, cfg, log_path=str(log))
    lines = log.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_psnr,val_ssim,seconds"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i + 1
        assert float(cells[1]) == lr_schedule(i, cfg)
        assert float(cells[2]) == history[i]  # shortest round-trip decimals
        assert float(cells[5]) >= 0.0


def test_train_with_validation_writes_metrics(tmp_path):
    ds = _toy_dataset(6, 16, 16, seed=60)
    dval = _toy_dataset(3, 16, 16, seed=61)
    log = tmp_path / "log.csv"
    cfg = TrainConfig(epochs=2, batch_size=3, seed=11, num_stages=2, channels=2)
    train_full(ds, cfg, val_dataset=dval, log_path=str(log))
    rows = log.read_text(encoding="utf-8").splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert float(cells[3]) > 0.0  # val psnr present
        assert -1.0 <= float(cells[4]) <= 1.0  # val ssim present


def test_validation_scores_in_bounded_chunks(tmp_path, monkeypatch):
    # validation forwards one block per call: 3 + 3 + 2 images, then one
    # block of all 8; the scores in the log do not change
    ds, dval = _toy_dataset(4, 16, 16, seed=62), _toy_dataset(8, 16, 16, seed=63)
    j, c = dval[0][1].values.shape[0], 2
    cfg = TrainConfig(epochs=1, batch_size=4, seed=3, num_stages=2, channels=c)
    sizes = []
    real = network.net_forward

    def wrapped(y, masks, params, x0=None, record=False):
        if not record:
            sizes.append(len(y))
        return real(y, masks, params, x0, record=record)

    monkeypatch.setattr(network, "net_forward", wrapped)
    logs = []
    for block in (3, 8):
        monkeypatch.setattr(network, "_BLOCK_BYTES", block * 16 * 16 * (16 * j + 8 * c))
        log = tmp_path / ("block%d.csv" % block)
        train_full(ds, cfg, val_dataset=dval, log_path=str(log))
        logs.append([row.rsplit(",", 1)[0] for row in log.read_text().splitlines()])
    assert sizes == [3, 3, 2, 8]
    assert logs[0] == logs[1] and logs[0][1].split(",")[3]


def test_validation_shape_is_checked_before_the_first_step(monkeypatch):
    def step(*args):
        raise AssertionError("a training step ran before the validation shape check")

    monkeypatch.setattr(training, "_chunk_grads", step)
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0, num_stages=1, channels=2)
    with pytest.raises(ValueError, match=r"validation measurements .*\(4, 32, 32\)"):
        train_full(_toy_dataset(2, 16, 16, seed=64), cfg,
                   val_dataset=_toy_dataset(2, 32, 32, seed=65))


def test_tied_adjoint_reduces_tensor_count():
    a = init_net(8, 8, num_stages=2, channels=2, num_masks=2,
                 mode="structured", tie_adjoint=False, rng=SeededRng(1))
    b = init_net(8, 8, num_stages=2, channels=2, num_masks=2,
                 mode="structured", tie_adjoint=True, rng=SeededRng(1))
    na = [n for n, _ in a.tensors()]
    nb = [n for n, _ in b.tensors()]
    assert any(n.endswith("op.adj_gain") for n in na)
    assert not any(n.endswith("op.adj_gain") for n in nb)


def test_shared_operator_emits_single_tensor_set():
    net = init_net(8, 8, num_stages=3, channels=2, num_masks=2,
                   mode="structured", share_operator=True, rng=SeededRng(2))
    names = [n for n, _ in net.tensors()]
    assert names.count("stage0.op.gain") == 1
    assert not any(n.startswith("stage1.op") or n.startswith("stage2.op")
                   for n in names)
    assert net.stages[0].op is net.stages[1].op is net.stages[2].op


# ---------------------------------------------------------------------------
# checkpoints

def _trained_pair(tmp_path, seed=70):
    ds = _toy_dataset(6, 8, 8, seed=seed)
    cfg = TrainConfig(epochs=1, batch_size=3, seed=seed,
                      num_stages=2, channels=2)
    net, _, state = train_full(ds, cfg)
    path = tmp_path / "model.ckpt"
    checkpoint_save(net, state, str(path))
    return net, state, path


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net, state, path = _trained_pair(tmp_path)
    loaded, lstate = checkpoint_load(str(path))
    for (n1, a1), (n2, a2) in zip(net.tensors(), loaded.tensors()):
        assert n1 == n2
        assert np.array_equal(a1, a2), n1
        assert a1.dtype == a2.dtype
    assert lstate.step == state.step
    for name in state.m:
        assert np.array_equal(state.m[name], lstate.m[name])
        assert np.array_equal(state.v[name], lstate.v[name])
    # saving the loaded state reproduces the same bytes
    p2 = tmp_path / "again.ckpt"
    checkpoint_save(loaded, lstate, str(p2))
    assert path.read_bytes() == p2.read_bytes()


def test_checkpoint_corrupted_magic_rejected(tmp_path):
    _, _, path = _trained_pair(tmp_path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        checkpoint_load(str(bad))


def test_checkpoint_unsupported_version(tmp_path):
    _, _, path = _trained_pair(tmp_path)
    data = bytearray(path.read_bytes())
    data[4:8] = (3).to_bytes(4, "little")
    bad = tmp_path / "v2.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersionError):
        checkpoint_load(str(bad))


def test_checkpoint_truncation_rejected(tmp_path):
    _, _, path = _trained_pair(tmp_path)
    data = path.read_bytes()
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(data[:10])
    with pytest.raises(FormatError):
        checkpoint_load(str(bad))


def test_checkpoint_payload_corruption_detected(tmp_path):
    _, _, path = _trained_pair(tmp_path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    bad = tmp_path / "flip.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        checkpoint_load(str(bad))


def test_checkpoint_reports_byte_offset(tmp_path):
    _, _, path = _trained_pair(tmp_path)
    bad = tmp_path / "tiny.ckpt"
    bad.write_bytes(path.read_bytes()[:6])
    with pytest.raises(FormatError) as info:
        checkpoint_load(str(bad))
    assert info.value.offset is not None


def test_checkpoint_dense_and_tied_roundtrip(tmp_path):
    net = init_net(4, 4, num_stages=1, channels=2, num_masks=2,
                   mode="dense", tie_adjoint=True, rng=SeededRng(80))
    state = init_adam(net)
    path = tmp_path / "dense.ckpt"
    checkpoint_save(net, state, str(path))
    loaded, _ = checkpoint_load(str(path))
    assert loaded.mode == "dense"
    assert loaded.tie_adjoint
    assert np.array_equal(loaded.stages[0].op.mat, net.stages[0].op.mat)


def test_checkpoint_version_zero_rejected(tmp_path):
    _, _, path = _trained_pair(tmp_path)
    data = bytearray(path.read_bytes())
    data[4:8] = (0).to_bytes(4, "little")
    bad = tmp_path / "v0.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersionError):
        checkpoint_load(str(bad))


def test_checkpoint_writes_version_2_sha256_trailer(tmp_path):
    _, _, path = _trained_pair(tmp_path)
    data = path.read_bytes()
    assert data[4:8] == (2).to_bytes(4, "little")
    assert data[-32:] == hashlib.sha256(data[:-32]).digest()


def test_checkpoint_save_checks_the_state_and_tensors_before_writing(tmp_path):
    # each of these used to write a file that checkpoint_load rejects, or
    # raise a bare KeyError; now a ValueError names the tensor, no file made
    def net(c):
        return init_net(8, 8, num_stages=1, channels=c, num_masks=2, rng=SeededRng(c))

    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=r"^stage0\.ana\.w1\.m\b"):
        checkpoint_save(net(2), init_adam(net(3)), str(path))
    wide = net(2)
    wide.stages[0].ana.w1 = np.zeros((5, 1, 3, 3))
    with pytest.raises(ValueError, match=r"^stage0\.ana\.w1 "):
        checkpoint_save(wide, init_adam(wide), str(path))
    short = net(2)
    state = init_adam(short)
    del state.v["stage0.syn.b2"]
    with pytest.raises(ValueError, match=r"^stage0\.syn\.b2\.v "):
        checkpoint_save(short, state, str(path))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("step", [math.inf, math.nan, -1.0, 2.5, 2.0 ** 64])
def test_checkpoint_step_counter_must_be_a_count(tmp_path, step):
    # a crafted file can carry a matching digest, so the value itself is checked
    _, _, path = _trained_pair(tmp_path)
    data = bytearray(path.read_bytes()[:-32])
    data[-8:] = struct.pack("<d", step)
    path.write_bytes(bytes(data) + hashlib.sha256(data).digest())
    with pytest.raises(FormatError, match="step counter") as info:
        checkpoint_load(str(path))
    assert info.value.offset == len(data) - 8


# SHA-256 of the checkpoint each layout below saves, pinned from the
# format's first version 2 writer so a refactor cannot move a byte
LAYOUT_SHA256 = {
    ("fixed", False, False): "3c3db45d8d226ec42abacff69ce17cb2116006efdec37acf729b8ba932e1f3f7",
    ("fixed", True, False): "ffdf25f6deca2dba5a2a40268b778883f3ee75007c4bac93cb16454c271d7d91",
    ("fixed", False, True): "fcd6df19b53b16ce550656a662983cff7201d183ddc87686fb6aff54680ac60b",
    ("fixed", True, True): "5bef5a0ca05ce3aa0709aede5b37595609ee417dd2f2b188604611475763bb07",
    ("structured", False, False): "8ecbac078a45f12f8df9a667d0d0358a6e2d1d142df255ddd0563dabe83ac473",
    ("structured", True, False): "dd3d3e77358c48c43ec690fe80e12aab92bc90296154866efe9236ea61e99d9b",
    ("structured", False, True): "edb98a7295ce73357b7ef6d094b87d18aad816bde048f25789a10a9786cf7c9d",
    ("structured", True, True): "ff5e190b219f4f3b6d0dd36821c909d27984947c3a5127f72e7b5514130176d0",
    ("dense", False, False): "33e0fa7a13bfc21858ecd596d1ad19b11864cf53f4b45e747f0604fe72a11e10",
    ("dense", True, False): "f38fa3713fa4affcc0e396aa6a9ded65e1120d82c3bcf55e48727d2c6d3e8c2c",
    ("dense", False, True): "7eab8737cd8fbc6d0fdb6c4609560d4828cc5208792a370d4f7b327354df055d",
    ("dense", True, True): "8e1eeb022429630c3467fb58e1adbc1f40bb1231e983571f27e243133502cfff",
}


@pytest.mark.parametrize("mode", ["fixed", "structured", "dense"])
@pytest.mark.parametrize("tie,share", [(False, False), (True, False),
                                       (False, True), (True, True)])
def test_checkpoint_roundtrip_every_layout(tmp_path, mode, tie, share):
    net = init_net(4, 4, num_stages=2, channels=2, num_masks=2, mode=mode,
                   tie_adjoint=tie, share_operator=share, rng=SeededRng(81))
    state = init_adam(net)
    state.step = 3
    path = tmp_path / "m.ckpt"
    checkpoint_save(net, state, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LAYOUT_SHA256[mode, tie, share]
    loaded, lstate = checkpoint_load(str(path))
    assert (loaded.mode, loaded.tie_adjoint, loaded.share_operator) == (mode, tie, share)
    assert [n for n, _ in loaded.tensors()] == [n for n, _ in net.tensors()]
    for (name, a), (_, b) in zip(net.tensors(), loaded.tensors()):
        assert np.array_equal(a, b), name
    assert lstate.step == 3


# header fields: K, c, J, h, w, mode code, flags at byte offsets 8 .. 32
@pytest.mark.parametrize("patch,offset", [
    ({8: 0}, 8), ({12: 0}, 12), ({16: 0}, 16),
    ({8: 65}, 8), ({12: 1025}, 12), ({16: 65}, 16),
    ({20: 3}, 20), ({24: 12}, 24), ({24: 8192}, 24),
    ({28: 3}, 28), ({32: 4}, 32),
    ({28: 1, 20: 4096}, 20),  # dense beyond DENSE_SIZE_LIMIT
])
def test_checkpoint_bad_header_field_rejected(tmp_path, patch, offset):
    _, _, path = _trained_pair(tmp_path)
    data = bytearray(path.read_bytes())
    for at, value in patch.items():
        data[at:at + 4] = value.to_bytes(4, "little")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(FormatError) as info:
        checkpoint_load(str(bad))
    assert info.value.offset == offset


V1_FIXTURE = pathlib.Path(__file__).parent / "data" / "ckpt_v1_tiny.ckpt"


def _v1_fixture_net():
    # the net the fixture was written from, by the version 1 checkpoint_save
    return init_net(8, 8, num_stages=1, channels=1, num_masks=2,
                    mode="structured", rng=SeededRng(11))


def _assert_same_state(net, state, loaded, lstate):
    assert [n for n, _ in loaded.tensors()] == [n for n, _ in net.tensors()]
    for (name, a), (_, b) in zip(net.tensors(), loaded.tensors()):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(state.m[name], lstate.m[name])
        assert np.array_equal(state.v[name], lstate.v[name])
    assert lstate.step == state.step


def test_checkpoint_v1_fixture_loads_bit_exact():
    assert V1_FIXTURE.read_bytes()[4:8] == (1).to_bytes(4, "little")
    net = _v1_fixture_net()
    loaded, lstate = checkpoint_load(str(V1_FIXTURE))
    assert loaded.num_masks == 2 and loaded.mode == "structured"
    _assert_same_state(net, init_adam(net), loaded, lstate)


def test_checkpoint_v1_fixture_resaves_as_v2(tmp_path):
    loaded, lstate = checkpoint_load(str(V1_FIXTURE))
    path = tmp_path / "v2.ckpt"
    checkpoint_save(loaded, lstate, str(path))
    data = path.read_bytes()
    assert data[4:8] == (2).to_bytes(4, "little")
    # same payload, only the version field and the digest trailer differ
    v1 = V1_FIXTURE.read_bytes()
    assert data[8:-32] == v1[8:-8]
    again, astate = checkpoint_load(str(path))
    _assert_same_state(loaded, lstate, again, astate)


def test_checkpoint_v1_fixture_corruption_detected(tmp_path):
    data = bytearray(V1_FIXTURE.read_bytes())
    data[len(data) // 2] ^= 0x01
    bad = tmp_path / "flip.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        checkpoint_load(str(bad))


@pytest.mark.parametrize("tie,share", [(False, False), (True, True)])
def test_checkpoint_dense_load_builds_no_dft(tmp_path, monkeypatch, tie, share):
    net = init_net(4, 4, num_stages=2, channels=2, num_masks=2, mode="dense",
                   tie_adjoint=tie, share_operator=share, rng=SeededRng(82))
    state = init_adam(net)
    path = tmp_path / "dense.ckpt"
    checkpoint_save(net, state, str(path))

    def no_dft(*args, **kwargs):
        raise AssertionError("dft_matrix_2d called during a load")

    monkeypatch.setattr(cdp, "dft_matrix_2d", no_dft)
    loaded, lstate = checkpoint_load(str(path))
    _assert_same_state(net, state, loaded, lstate)
    assert (loaded.stages[1].op is loaded.stages[0].op) == share


def test_checkpoint_oversized_header_rejected_before_allocation(tmp_path, monkeypatch):
    k, c, h, w = 64, 1024, 64, 64
    head = struct.pack("<4s8I", b"DLMM", 2, k, c, 4, h, w, 1, 0)
    bad = tmp_path / "huge.ckpt"
    bad.write_bytes(head + hashlib.sha256(head).digest())
    actual = len(head) + 32
    assert actual < 100
    # per stage: step, thresh, 8 conv tensors, dense operator and adjoint
    floats = 2 + 18 * c * c + 21 * c + 1 + 2 * 2 * (h * w) ** 2
    expected = len(head) + 3 * k * (12 * 8 + 8 * floats) + 16 + 32

    def no_alloc(*args, **kwargs):
        raise AssertionError("build_net called for a rejected header")

    monkeypatch.setattr(network, "build_net", no_alloc)
    with pytest.raises(FormatError) as info:
        checkpoint_load(str(bad))
    assert re.search(r"\b%d bytes\b.*\b%d\b" % (actual, expected), str(info.value))
    assert info.value.offset == actual
    data = tmp_path / "data"
    datakit.generate_dataset(str(data), 1, 8, 8, 3)
    assert main(["eval", "--ckpt", str(bad), "--data", str(data)]) == 3


def test_cli_eval_rejects_non_pow2_header_with_io_exit(tmp_path):
    data = bytearray(V1_FIXTURE.read_bytes())
    data[20:24] = (3).to_bytes(4, "little")
    bad = tmp_path / "h3.ckpt"
    bad.write_bytes(bytes(data))
    ds = tmp_path / "data"
    datakit.generate_dataset(str(ds), 1, 8, 8, 3)
    assert main(["eval", "--ckpt", str(bad), "--data", str(ds)]) == 3


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_written_files_follow_umask(tmp_path, umask, mode):
    data = tmp_path / "data"
    log = tmp_path / "log.csv"
    ckpt = tmp_path / "m.ckpt"
    old = os.umask(umask)
    try:
        datakit.generate_dataset(str(data), 2, 8, 8, 3)
        config = TrainConfig(epochs=1, batch_size=2, num_stages=1, channels=1)
        _, dataset = datakit.load_dataset(str(data))
        net, _, state = train_full(dataset, config, log_path=str(log))
        checkpoint_save(net, state, str(ckpt))
    finally:
        os.umask(old)
    for path in (ckpt, log, data / datakit.MANIFEST_NAME, data / "img_0000.pgm"):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path
    assert not list(tmp_path.rglob(".tmp-*"))
