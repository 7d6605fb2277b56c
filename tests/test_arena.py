"""Parameters, gradients and Adam moments as views into one array each."""

import os
import pickle

import numpy as np
import pytest

from unrollpr import cdp, training
from unrollpr.field import SeededRng
from unrollpr.network import init_net, net_forward
from unrollpr.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    adam_update,
    backward,
    checkpoint_load,
    checkpoint_save,
    init_adam,
)

LAYOUTS = [(mode, tie, share) for mode in ("fixed", "structured", "dense")
           for tie in (False, True) for share in (False, True)]


def _net(mode, tie, share, seed=1):
    return init_net(4, 4, num_stages=2, channels=2, num_masks=2, mode=mode,
                    tie_adjoint=tie, share_operator=share, rng=SeededRng(seed))


def _grads(net, seed):
    """A backward pass of ``net`` on a random two-image batch."""
    rng = SeededRng(seed)
    y = np.abs(rng.normal(2 * 2 * 16)).reshape(2, 2, 4, 4)
    masks = np.broadcast_to(cdp.masks_from_seed(seed, 2, 4, 4).masks, y.shape)
    _, tape = net_forward(y, masks, net, record=True)
    return backward(tape, rng.uniform(2 * 16).reshape(2, 4, 4))


def _assert_views(arena, tensors):
    """Every (name, array) of ``tensors`` is ``arena``'s view at its slot."""
    base = arena.flat.__array_interface__["data"][0]
    pairs = list(tensors)
    assert [name for name, _ in pairs] == [slot.name for slot in arena.slots]
    for (name, arr), slot in zip(pairs, arena.slots):
        assert arr is arena[name] and np.shares_memory(arr, arena.flat), name
        assert arr.__array_interface__["data"][0] - base == 8 * slot.start, name
        assert arr.nbytes == 8 * (slot.stop - slot.start), name
    assert arena.slots[-1].stop == arena.flat.size


@pytest.mark.parametrize("mode,tie,share", LAYOUTS)
def test_every_tensor_gradient_and_moment_is_a_view_of_its_arena(tmp_path, mode, tie, share):
    net = _net(mode, tie, share)
    _assert_views(net.arena, net.tensors())
    state = init_adam(net)
    grads = _grads(net, 3)
    for arena in (grads, state.m, state.v):
        assert arena.slots == net.arena.slots
        _assert_views(arena, arena.items())
    adam_update(net, grads, state, 0.01)
    path = tmp_path / "m.ckpt"
    checkpoint_save(net, state, str(path))
    loaded, lstate = checkpoint_load(str(path))
    _assert_views(loaded.arena, loaded.tensors())
    for arena in (lstate.m, lstate.v):
        _assert_views(arena, arena.items())
    for a, b in ((net.arena, loaded.arena), (state.m, lstate.m), (state.v, lstate.v)):
        assert a.flat.tobytes() == b.flat.tobytes()


@pytest.mark.parametrize("mode,tie,share", LAYOUTS)
def test_an_unpickled_net_keeps_its_arena(mode, tie, share):
    net = _net(mode, tie, share)
    copy = pickle.loads(pickle.dumps(net))
    _assert_views(copy.arena, copy.tensors())
    assert copy.arena.flat.tobytes() == net.arena.flat.tobytes()
    assert (copy.stages[1].op is copy.stages[0].op) == share
    grads = pickle.loads(pickle.dumps(_grads(net, 4)))
    _assert_views(grads, grads.items())


@pytest.mark.parametrize("mode", ["structured", "dense"])
@pytest.mark.parametrize("tie", [False, True])
def test_a_shared_operator_gradient_sums_the_stages_last_first(mode, tie):
    # an unshared net whose every stage holds the shared operator's values
    # computes the same per-stage cotangents; the shared slot must hold
    # 0 + g[K-1] + ... + g[0], each stage's tied-adjoint and forward parts
    # summed before they reach the slot
    kw = dict(num_stages=3, channels=2, num_masks=2, mode=mode, tie_adjoint=tie)
    shared = init_net(4, 4, share_operator=True, rng=SeededRng(6), **kw)
    apart = init_net(4, 4, rng=SeededRng(6), **kw)
    for slot in apart.arena.slots:
        src = "stage0." + slot.path if slot.path.startswith("op.") else slot.name
        apart.arena[slot.name][...] = shared.arena[src]
    g_shared, g_apart = _grads(shared, 7), _grads(apart, 7)
    for slot in shared.arena.slots:
        if slot.path.startswith("op."):
            want = np.zeros(slot.shape, slot.dtype)
            for k in (2, 1, 0):
                want += g_apart["stage%d.%s" % (k, slot.path)]
        else:
            want = g_apart[slot.name]
        assert g_shared[slot.name].tobytes() == want.tobytes(), slot.name


def _reference_adam(tensors, grads, m, v, step, lr):
    """The per-tensor update, one tensor at a time in real coordinates."""
    c1 = 1.0 - ADAM_BETA1 ** step
    c2 = 1.0 - ADAM_BETA2 ** step
    for name, arr in tensors.items():
        gf = np.ascontiguousarray(grads[name]).view(np.float64).reshape(-1)
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * gf
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * gf * gf
        upd = lr * np.sqrt(c2) / c1 * m[name] / (np.sqrt(v[name]) + ADAM_EPS * np.sqrt(c2))
        rv = arr.view(np.float64)
        rv[...] -= upd.reshape(rv.shape)


@pytest.mark.parametrize("mode,tie,share", LAYOUTS)
def test_blocked_adam_equals_the_per_tensor_update_bitwise(monkeypatch, mode, tie, share):
    # 7-float blocks: block edges fall inside tensors, complex ones included
    monkeypatch.setattr(training, "_ADAM_BLOCK", 7)
    net = _net(mode, tie, share)
    state = init_adam(net)
    ref = {name: arr.copy() for name, arr in net.tensors()}
    ref_m = {name: np.zeros(arr.view(np.float64).size) for name, arr in ref.items()}
    ref_v = {name: np.zeros_like(m) for name, m in ref_m.items()}
    for step in (1, 2, 3):
        grads = _grads(net, 10 + step)
        _reference_adam(ref, grads, ref_m, ref_v, step, 0.01)
        adam_update(net, grads, state, 0.01)
        assert state.step == step
        for name, arr in net.tensors():
            assert arr.tobytes() == ref[name].tobytes(), (step, name)
            assert state.m[name].tobytes() == ref_m[name].tobytes(), (step, name)
            assert state.v[name].tobytes() == ref_v[name].tobytes(), (step, name)


def test_a_rebound_tensor_or_moment_is_named_by_adam_and_save(tmp_path):
    net = _net("structured", False, False)
    state = init_adam(net)
    grads = _grads(net, 5)
    before = net.arena.flat.copy()
    net.stages[1].ana.w2 = net.stages[1].ana.w2.copy()
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=r"^stage1\.ana\.w2 is not a view"):
        adam_update(net, grads, state, 0.01)
    with pytest.raises(ValueError, match=r"^stage1\.ana\.w2 is not a view"):
        checkpoint_save(net, state, str(path))
    assert state.step == 0 and net.arena.flat.tobytes() == before.tobytes()
    net.stages[1].ana.w2 = net.arena["stage1.ana.w2"]  # the view again
    state.m["stage0.op.gain"] = np.zeros_like(state.m["stage0.op.gain"])
    with pytest.raises(ValueError, match=r"^stage0\.op\.gain\.m is not a view"):
        adam_update(net, grads, state, 0.01)
    with pytest.raises(ValueError, match=r"^stage0\.op\.gain\.m is not a view"):
        checkpoint_save(net, state, str(path))
    assert state.step == 0 and net.arena.flat.tobytes() == before.tobytes()
    assert os.listdir(tmp_path) == []
