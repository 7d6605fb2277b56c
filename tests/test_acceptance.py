"""Ten numbered acceptance criteria, each with its stated tolerance.

Every test records one verdict line with the measured values:

    acceptance NN <name>: PASS (<measurements>)

The lines are echoed in a terminal summary section after the run (see
conftest.py) and printed inside each test for captured output.

Criteria 6-8 share four 30-epoch desk-scale training runs through a
module-scoped fixture; everything is seeded, so the numbers reproduce
run to run.  The four runs are independent and single-threaded, so the
fixture runs them two at a time in spawned processes.
"""

import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from unrollpr import cdp, datakit, metrics, training
from unrollpr.baselines import LassoProblem, cd_lasso, ista_solve
from unrollpr.field import STREAM_INIT, SeededRng, derive_rng, fft2_unitary
from unrollpr.network import Arena, init_net, net_forward
from unrollpr.training import TrainConfig, adam_update, backward, init_adam, loss_mse


VERDICTS = []


def _verdict(num, name, ok, detail):
    line = "acceptance %02d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail)
    VERDICTS.append(line)
    print(line)


def _rand_complex(rng, n):
    return rng.normal(n) + 1j * rng.normal(n)


# ---------------------------------------------------------------------------
# 1. adjoint identity

def test_criterion_01_adjoint_identity():
    par = cdp.OperatorParams(mode="fixed")
    worst = 0.0
    t0 = time.perf_counter()
    for seed in range(100):
        rng = SeededRng(1000 + seed)
        x = _rand_complex(rng, 64).reshape(8, 8)
        z = _rand_complex(rng, 256).reshape(4, 8, 8)
        masks = cdp.make_cdp_masks(SeededRng(2000 + seed), 4, 8, 8)
        lhs = np.vdot(cdp.operator_apply_fwd(x, masks, par)[0], z)
        rhs = np.vdot(x, cdp.operator_adjoint_fwd(z, masks, par)[0])
        bound = np.linalg.norm(x) * np.linalg.norm(z)
        worst = max(worst, abs(lhs - rhs) / bound)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-12 and wall < 1.0
    _verdict(1, "adjoint-identity", ok,
             "max |<Wx,z>-<x,W^H z>|/(|x||z|)=%.2e <= 1e-12, %.2fs" % (worst, wall))
    assert ok


# ---------------------------------------------------------------------------
# 2. isometry / energy conservation

def test_criterion_02_isometry():
    worst_ch = 0.0
    worst_tot = 0.0
    t0 = time.perf_counter()
    for seed in range(100):
        rng = SeededRng(3000 + seed)
        x = _rand_complex(rng, 64).reshape(8, 8)
        masks = cdp.make_cdp_masks(SeededRng(4000 + seed), 4, 8, 8)
        nx = np.linalg.norm(x)
        for j in range(4):
            nj = np.linalg.norm(fft2_unitary(masks.masks[j] * x))
            worst_ch = max(worst_ch, abs(nj - nx) / nx)
        z = cdp.operator_apply_fwd(x, masks, cdp.OperatorParams(mode="fixed"))[0]
        e = np.linalg.norm(z) ** 2
        worst_tot = max(worst_tot, abs(e - 4.0 * nx ** 2) / (4.0 * nx ** 2))
    wall = time.perf_counter() - t0
    ok = worst_ch <= 1e-12 and worst_tot <= 1e-12 and wall < 1.0
    _verdict(2, "isometry", ok,
             "per-channel=%.2e total-energy=%.2e <= 1e-12, %.2fs"
             % (worst_ch, worst_tot, wall))
    assert ok


# ---------------------------------------------------------------------------
# 3. finite-difference gradient check

def _generic_instance():
    """8x8, K=2, c=2, J=2, learnable diagonal operator, at a generic point.

    Biases, thresholds, steps and gains are nudged off the initialization so
    no ReLU input or shrinkage code sits exactly on a nondifferentiable kink,
    where central differences would disagree with any one-sided convention.
    """
    rng = SeededRng(42)
    truth = rng.uniform(64).reshape(8, 8)
    masks = cdp.make_cdp_masks(SeededRng(43), 2, 8, 8)
    y = cdp.measure(truth, masks, 27.0, SeededRng(44))
    truth, y, masks = datakit.stack_dataset([(truth, y)])
    net = init_net(8, 8, num_stages=2, channels=2, num_masks=2,
                   mode="structured", rng=SeededRng(45))
    j = SeededRng(46)
    for st in net.stages:
        st.thresh_raw[...] = np.log(np.expm1(0.08))
        st.step_size[...] = 0.1
        for blk in (st.ana, st.syn):
            blk.b1 += 0.05 + 0.1 * j.uniform(blk.b1.size)
            blk.b2 += 0.05 + 0.1 * j.uniform(blk.b2.size)
        st.op.gain += 0.05 * _rand_complex(j, 64).reshape(8, 8)
        st.op.adj_gain += 0.05 * _rand_complex(j, 64).reshape(8, 8)
    return net, y, masks, truth


def _group_of(name):
    if name.endswith("step_size"):
        return "step"
    if name.endswith("thresh_raw"):
        return "threshold"
    if ".ana." in name or ".syn." in name:
        return "conv"
    if name.endswith("op.gain"):
        return "forward-gain"
    if name.endswith("op.adj_gain"):
        return "adjoint-gain"
    raise AssertionError(name)


def test_criterion_03_gradient_finite_differences():
    net, y, masks, truth = _generic_instance()
    _, tape = net_forward(y, masks, net, record=True)
    analytic = backward(tape, truth)

    def loss_now():
        x, _ = net_forward(y, masks, net)
        return loss_mse(x, truth)

    h = 1e-6
    t0 = time.perf_counter()
    group_err = {}
    for name, arr in net.tensors():
        rv = arr.view(np.float64).reshape(-1)
        fd = np.empty(rv.size)
        for i in range(rv.size):
            keep = rv[i]
            rv[i] = keep + h
            up = loss_now()
            rv[i] = keep - h
            dn = loss_now()
            rv[i] = keep
            fd[i] = (up - dn) / (2.0 * h)
        ga = analytic[name].view(np.float64).reshape(-1)
        rel = np.linalg.norm(ga - fd) / max(
            np.linalg.norm(ga), np.linalg.norm(fd), 1e-12)
        g = _group_of(name)
        group_err[g] = max(group_err.get(g, 0.0), rel)
    wall = time.perf_counter() - t0
    expected = {"step", "threshold", "conv", "forward-gain", "adjoint-gain"}
    ok = set(group_err) == expected \
        and all(v < 1e-5 for v in group_err.values()) and wall < 60.0
    _verdict(3, "gradient-check", ok,
             ", ".join("%s=%.2e" % (k, group_err[k]) for k in sorted(group_err))
             + " < 1e-5, %.1fs" % wall)
    assert ok


# ---------------------------------------------------------------------------
# 4. Adam first-step oracle

def test_criterion_04_adam_first_step():
    lr = 0.01
    worst = 0.0
    for g in (1.0, 10.0, 100.0, -1.0, -10.0, -100.0):
        net = init_net(2, 2, num_stages=1, channels=1, num_masks=1,
                       mode="fixed", rng=SeededRng(9))
        before = float(net.stages[0].step_size)
        grads = Arena(net.arena.slots)
        grads["stage0.step_size"][...] = g
        adam_update(net, grads, init_adam(net), lr)
        delta = float(net.stages[0].step_size) - before
        worst = max(worst, abs(delta + lr * np.sign(g)) / lr)

    net = init_net(2, 2, num_stages=1, channels=1, num_masks=1,
                   mode="structured", rng=SeededRng(9))
    before = {n: a.copy() for n, a in net.tensors()}
    adam_update(net, Arena(net.arena.slots), init_adam(net), lr)
    frozen = all(np.array_equal(a, before[n]) for n, a in net.tensors())
    ok = worst <= 1e-6 and frozen
    _verdict(4, "adam-first-step", ok,
             "max |delta + lr*sign(g)|/lr=%.2e <= 1e-6, zero-grad bitwise=%s"
             % (worst, frozen))
    assert ok


# ---------------------------------------------------------------------------
# 5. iterative-shrinkage oracle

def test_criterion_05_sparse_solver_oracle():
    rng = SeededRng(505)
    a = rng.normal(128).reshape(8, 16) / math.sqrt(8.0)
    xs = np.zeros(16)
    xs[[1, 5, 11]] = (1.0, -0.8, 0.6)
    y = a @ xs + 0.01 * rng.normal(8)
    lip = float(np.linalg.eigvalsh(a.T @ a)[-1])  # dense eigensolver, not ours
    prob = LassoProblem(a=a, y=y, lam=0.1, lip=lip)
    t0 = time.perf_counter()
    x, hist = ista_solve(prob, np.zeros(16), 20000, 1.0 / lip)
    h = np.asarray(hist)
    drift = float(np.max(h[1:] - h[:-1]))
    xc = cd_lasso(a, y, 0.1)
    gap = abs(prob.objective(x) - prob.objective(xc))
    wall = time.perf_counter() - t0
    ok = drift <= 1e-12 and gap <= 1e-6 and wall < 10.0
    _verdict(5, "sparse-solver-oracle", ok,
             "worst objective rise=%.2e <= 1e-12, gap to second solver=%.2e <= 1e-6, %.1fs"
             % (drift, gap, wall))
    assert ok


# ---------------------------------------------------------------------------
# 6-8. desk-scale training runs (shared fixture)

DESK = dict(train=200, test=20, h=32, w=32, epochs=30, batch=10,
            stages=7, channels=8, seed=5, train_seed=100, test_seed=200)


def _desk_run(alpha, mode, tmp):
    tag = "%g_%s" % (alpha, mode)
    dtr = tmp / ("train_" + tag)
    dte = tmp / ("test_" + tag)
    datakit.generate_dataset(str(dtr), DESK["train"], DESK["h"], DESK["w"],
                             seed=DESK["train_seed"], alphas=(alpha,))
    datakit.generate_dataset(str(dte), DESK["test"], DESK["h"], DESK["w"],
                             seed=DESK["test_seed"], alphas=(alpha,),
                             test_masks=True)
    _, ds = datakit.load_dataset(str(dtr))
    _, held = datakit.load_dataset(str(dte))
    cfg = TrainConfig(epochs=DESK["epochs"], batch_size=DESK["batch"],
                      seed=DESK["seed"], num_stages=DESK["stages"],
                      channels=DESK["channels"], mode=mode)
    t0 = time.perf_counter()
    net, hist, state = training.train_full(
        ds, cfg, val_dataset=held, log_path=str(tmp / ("log_" + tag + ".csv")))
    wall = time.perf_counter() - t0
    ckpt = tmp / ("model_" + tag + ".ckpt")
    training.checkpoint_save(net, state, str(ckpt))
    images, ys, masks = datakit.stack_dataset(held)
    x, _ = net_forward(ys, masks, net)
    p = float(np.mean([metrics.psnr(x[i], images[i])
                       for i in range(len(images))]))
    net0 = init_net(DESK["h"], DESK["w"], num_stages=DESK["stages"],
                    channels=DESK["channels"], num_masks=4, mode=mode,
                    rng=derive_rng(DESK["seed"], STREAM_INIT))
    x0, _ = net_forward(ys, masks, net0)
    p0 = float(np.mean([metrics.psnr(x0[i], images[i])
                        for i in range(len(images))]))
    return {"hist": hist, "psnr": p, "psnr0": p0, "wall": wall,
            "ckpt": ckpt, "testdir": dte}


# thread-count variables of the BLAS and OpenMP pools a process starts with
# when it loads numpy; set to 1 for the spawned desk runs, since two runs
# whose BLAS pools each span every CPU are slower than the same two in series
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def desk(tmp_path_factory, request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def note(msg):
        if capman is None:
            return
        with capman.global_and_fixture_disabled():
            sys.stdout.write("\n[desk] %s" % msg)
            sys.stdout.flush()

    tmp = tmp_path_factory.mktemp("desk")
    jobs = {"learned": (27.0, "structured"), "frozen": (27.0, "fixed"),
            "low": (9.0, "structured"), "high": (81.0, "structured")}
    procs = min(2, training._usable_cpus())
    saved = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("spawn")) as pool:
            note("training %d models (30 epochs) in %d processes..." % (len(jobs), procs))
            futures = {key: pool.submit(_desk_run, alpha, mode, tmp)
                       for key, (alpha, mode) in jobs.items()}
            runs = {}
            for key, fut in futures.items():
                runs[key] = fut.result()
                note("alpha=%g mode=%s done: loss=%.5f psnr=%.2f (%.0fs)"
                     % (*jobs[key], runs[key]["hist"][-1], runs[key]["psnr"],
                        runs[key]["wall"]))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return runs


def test_criterion_06_desk_training(desk):
    r = desk["learned"]
    ratio = r["hist"][-1] / r["hist"][0]
    gain = r["psnr"] - r["psnr0"]
    ok = ratio <= 0.5 and gain >= 6.0 and r["wall"] < 900.0
    detail = (
        "loss %.4f->%.4f ratio=%.3f <= 0.5, psnr %.2f->%.2f gain=%.2f >= 6 dB, %.0fs"
        % (r["hist"][0], r["hist"][-1], ratio,
           r["psnr0"], r["psnr"], gain, r["wall"])
    )
    _verdict(6, "desk-training", ok, detail)
    assert ok


def test_criterion_07_learned_operator_benefit(desk):
    a, b = desk["learned"], desk["frozen"]
    ok = a["hist"][-1] <= b["hist"][-1] and a["psnr"] >= b["psnr"] - 0.1
    _verdict(7, "learned-operator-benefit", ok,
             "loss learned=%.5f <= frozen=%.5f, psnr learned=%.2f >= frozen=%.2f - 0.1"
             % (a["hist"][-1], b["hist"][-1], a["psnr"], b["psnr"]))
    assert ok


def test_criterion_08_noise_level_ordering(desk):
    p9, p27, p81 = desk["low"]["psnr"], desk["learned"]["psnr"], desk["high"]["psnr"]
    ok = p9 > p27 > p81
    _verdict(8, "noise-level-ordering", ok,
             "psnr(9)=%.2f > psnr(27)=%.2f > psnr(81)=%.2f" % (p9, p27, p81))
    assert ok


def test_noise_free_reconstruction_beats_validation_mean(desk, tmp_path):
    # single-image CLI round trip with the trained desk model at alpha=0
    # must score above the model's (noisy) validation mean minus 1 dB
    r = desk["learned"]
    src = r["testdir"] / "img_0000.pgm"
    out = tmp_path / "recon.pgm"
    proc = subprocess.run(
        [sys.executable, "-m", "unrollpr.cli", "reconstruct",
         "--ckpt", str(r["ckpt"]), "--input", str(src),
         "--alpha", "0", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    score = metrics.psnr(datakit.load_pgm(str(out)), datakit.load_pgm(str(src)))
    assert score >= r["psnr"] - 1.0, (score, r["psnr"])


# ---------------------------------------------------------------------------
# 9. run-to-run determinism through the command line

def test_criterion_09_run_determinism(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "toy"
    r = subprocess.run(
        [sys.executable, "-m", "unrollpr.cli", "gen-data", "--out", str(data),
         "--count", "8", "--size", "16x16", "--seed", "123"],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    outs = []
    for i in (1, 2):
        ck = tmp_path / ("run%d.ckpt" % i)
        lg = tmp_path / ("run%d.csv" % i)
        r = subprocess.run(
            [sys.executable, "-m", "unrollpr.cli", "train",
             "--data", str(data), "--out", str(ck), "--epochs", "2",
             "--K", "2", "--channels", "2", "--batch", "4", "--seed", "7",
             "--threads", "1", "--log", str(lg)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append((ck.read_bytes(), lg.read_text(encoding="utf-8")))
    same_ckpt = outs[0][0] == outs[1][0]

    def rows_without_timing(text):
        # the trailing column is wall-clock seconds; all other bytes must agree
        lines = text.splitlines()
        return [lines[0]] + [",".join(ln.split(",")[:-1]) for ln in lines[1:]]

    same_log = rows_without_timing(outs[0][1]) == rows_without_timing(outs[1][1])
    wall = time.perf_counter() - t0
    ok = same_ckpt and same_log and wall < 120.0
    _verdict(9, "run-determinism", ok,
             "checkpoints identical=%s, logs identical outside timing column=%s, %.0fs"
             % (same_ckpt, same_log, wall))
    assert ok


# ---------------------------------------------------------------------------
# 10. metric examples

def test_criterion_10_metric_examples():
    x = SeededRng(77).uniform(256).reshape(16, 16)
    checks = [
        ("psnr identical -> inf", metrics.psnr(x, x) == math.inf),
        ("uniform 0.1 offset -> 20 dB",
         abs(metrics.psnr(np.full((8, 8), 0.4), np.full((8, 8), 0.3)) - 20.0)
         <= 1e-9),
        ("2x2 single 0.1 error -> 26.0206 dB",
         abs(metrics.psnr(np.zeros((2, 2)),
                          np.array([[0.1, 0.0], [0.0, 0.0]]))
             - 10.0 * math.log10(400.0)) <= 1e-12),
        ("ssim identical -> 1.0 exactly", metrics.ssim(x, x) == 1.0),
        ("ssim constant 0.5 pair -> 1.0",
         metrics.ssim(np.full((16, 16), 0.5), np.full((16, 16), 0.5)) == 1.0),
    ]

    # direct sliding-window reference for ssim(x, 1-x)
    w = metrics.gaussian_window(11, 1.5)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    ref = 1.0 - x
    for i in range(6):
        for jj in range(6):
            px = x[i:i + 11, jj:jj + 11]
            py = ref[i:i + 11, jj:jj + 11]
            mx = float((w * px).sum())
            my = float((w * py).sum())
            vx = float((w * px * px).sum()) - mx * mx
            vy = float((w * py * py).sum()) - my * my
            cxy = float((w * px * py).sum()) - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cxy + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    checks.append(("ssim vs loop reference",
                   abs(metrics.ssim(x, ref) - float(np.mean(vals))) <= 1e-12))

    ok = all(passed for _, passed in checks)
    _verdict(10, "metric-examples", ok,
             "; ".join("%s=%s" % (n, p) for n, p in checks))
    assert ok
