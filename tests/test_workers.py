"""Gradient and validation chunks in worker processes (``threads > 1``)."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import unrollpr
from unrollpr import datakit, network, training
from unrollpr.field import SeededRng
from unrollpr.network import init_net
from unrollpr.training import TrainConfig, train_full

from test_training import _toy_dataset

SRC = os.path.dirname(os.path.dirname(os.path.abspath(unrollpr.__file__)))

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers need fork"
)


def _run(tmp_path, name, cfg, monkeypatch):
    """train_full with validation in blocks of 2; (net, history, state, CSV rows)."""
    j, c = 4, cfg.channels
    monkeypatch.setattr(network, "_BLOCK_BYTES", 2 * 16 * 16 * (16 * j + 8 * c))
    log = tmp_path / (name + ".csv")
    net, history, state = train_full(
        _toy_dataset(12, 16, 16, 80), cfg, val_dataset=_toy_dataset(5, 16, 16, 81),
        log_path=str(log),
    )
    # every column but the wall-clock seconds
    rows = [line.rsplit(",", 1)[0] for line in log.read_text(encoding="utf-8").splitlines()]
    return net, history, state, rows


CONFIGS = {
    "structured": {},
    "dense": {"mode": "dense"},
    "tied": {"tie_adjoint": True},
    "shared": {"share_operator": True},
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_two_threads_equal_the_same_chunks_in_the_parent(tmp_path, monkeypatch,
                                                         worker_pool, name):
    cfg = TrainConfig(epochs=2, batch_size=4, seed=7, num_stages=2, channels=2,
                      threads=2, **CONFIGS[name])
    net, history, state, rows = _run(tmp_path, "pool", cfg, monkeypatch)
    assert len(training._WORKERS) == 1 and training._WORKERS[0].process.is_alive()
    training._close_pool()
    monkeypatch.setattr(training, "_usable_cpus", lambda: 1)  # every chunk in the parent
    ref, ref_history, ref_state, ref_rows = _run(tmp_path, "serial", cfg, monkeypatch)
    assert training._WORKERS == []
    assert history == ref_history
    assert rows == ref_rows and all(row.split(",")[3] for row in rows[1:])
    assert state.step == ref_state.step == 6
    for (n, a), (rn, b) in zip(net.tensors(), ref.tensors(), strict=True):
        assert n == rn and a.tobytes() == b.tobytes()
        assert state.m[n].tobytes() == ref_state.m[n].tobytes()
        assert state.v[n].tobytes() == ref_state.v[n].tobytes()


def test_one_thread_starts_no_worker(monkeypatch, worker_pool):
    def no_worker(*args):
        raise AssertionError("a worker was started at threads=1")

    monkeypatch.setattr(training, "_Worker", no_worker)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=7, num_stages=1, channels=2)
    train_full(_toy_dataset(8, 16, 16, 82), cfg, val_dataset=_toy_dataset(3, 16, 16, 83))
    assert training._WORKERS == []


def test_parallel_validation_matches_serial_chunks(monkeypatch, worker_pool):
    block = 5  # blocks: parent, worker, parent
    pack = datakit.stack_dataset(_toy_dataset(2 * block + 3, 16, 16, 84))
    j = pack[1].shape[1]
    monkeypatch.setattr(network, "_BLOCK_BYTES", block * 16 * 16 * (16 * j + 8 * 2))
    net = init_net(16, 16, num_stages=2, channels=2, num_masks=j, rng=SeededRng(85))
    serial = training.forward_chunked(net, pack[1], pack[2])
    assert training.forward_chunked(net, pack[1], pack[2], 2).tobytes() == serial.tobytes()
    assert len(training._WORKERS) == 1


def test_pool_size_is_capped_by_usable_cpus():
    big = 10 ** 9
    assert training._pool_size(big, big, 4) == 3
    assert training._pool_size(2, big, 64) == 1
    assert training._pool_size(big, 1, 64) == 0
    assert training._pool_size(big, big, 1) == 0
    assert training._pool_size(0, 2, 2) == 0


def test_more_threads_than_cpus_start_one_worker_per_extra_cpu(worker_pool):
    out = training._map(abs, [(-i,) for i in range(9)], 10 ** 6)
    assert out == list(range(9))
    assert len(training._WORKERS) == 1


def test_worker_exception_reraises_with_its_type(worker_pool):
    with pytest.raises(ValueError, match="math domain error") as info:
        training._map(math.sqrt, [(1.0,), (-1.0,)], 2)
    assert "in worker pid" in str(info.value.__cause__)
    assert training._WORKERS == []  # the next call starts a fresh pool
    assert training._map(math.sqrt, [(4.0,), (9.0,)], 2) == [2.0, 3.0]


def test_worker_death_mid_call_is_named(worker_pool):
    pid = training._pool(1)[0].process.pid
    with pytest.raises(RuntimeError, match=r"pid %d died \(exit code -9\)" % pid):
        training._map(os.kill, [(os.getpid(), 0), (pid, signal.SIGKILL)], 2)
    assert training._WORKERS == []
    assert training._map(abs, [(-1,), (-2,)], 2) == [1, 2]
    assert training._WORKERS[0].process.pid != pid


def test_worker_killed_between_calls_is_replaced(worker_pool):
    cfg = TrainConfig(epochs=1, batch_size=4, seed=7, num_stages=2, channels=2, threads=2)
    ds = _toy_dataset(8, 16, 16, 86)
    first, _, _ = train_full(ds, cfg)
    dead = training._WORKERS[0].process
    os.kill(dead.pid, signal.SIGKILL)
    dead.join(10)
    assert not dead.is_alive()
    second, _, _ = train_full(ds, cfg)
    assert training._WORKERS[0].process.pid != dead.pid
    for (_, a), (_, b) in zip(first.tensors(), second.tensors(), strict=True):
        assert a.tobytes() == b.tobytes()


def _exited(pid):
    """The process is gone or a zombie (exited, not yet reaped)."""
    try:
        with open("/proc/%d/stat" % pid, encoding="ascii") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_exit_when_the_parent_is_killed():
    code = (
        "from unrollpr import training\n"
        "from test_training import _toy_dataset\n"
        "training._usable_cpus = lambda: 2\n"
        "cfg = training.TrainConfig(epochs=1, batch_size=4, seed=7, num_stages=2,"
        " channels=2, threads=2)\n"
        "ds = _toy_dataset(8, 16, 16, 87)\n"
        "training.train_full(ds, cfg)\n"
        "print(*(w.process.pid for w in training._WORKERS), flush=True)\n"
        "while True:\n"
        "    training.train_full(ds, cfg)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.path.dirname(__file__)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env)
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 1
        time.sleep(0.3)  # mid-training
    finally:
        proc.kill()
        proc.wait(30)
        proc.stdout.close()
    deadline = time.monotonic() + 10
    while not all(_exited(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(_exited(p) for p in pids)
