"""Built-in diagnostic suites: operator identities, gradients, optimizer.

Each check returns (name, measured, threshold, ok); the CLI prints one
line per check and fails the command if any check fails.  The quick subset
covers the fast closed-form identities; the full run adds the
finite-difference gradient check and the convex-solver cross-check.
"""

import numpy as np

from . import baselines, cdp, datakit, network, training
from .field import SeededRng, fft2_unitary, ifft2_unitary


def _rand_complex(rng, shape):
    n = int(np.prod(shape))
    return (rng.normal(n) + 1j * rng.normal(n)).reshape(shape)


def _loss_of(net, ys, masks, truth):
    x, _ = network.net_forward(ys, masks, net)
    return training.loss_mse(x, truth)


def check_fft_roundtrip(seeds=20):
    worst = 0.0
    for s in range(seeds):
        rng = SeededRng(9000 + s)
        x = _rand_complex(rng, (8, 8))
        err = np.linalg.norm(ifft2_unitary(fft2_unitary(x)) - x) / np.linalg.norm(x)
        worst = max(worst, err)
    return "fft-roundtrip", worst, 1e-12, worst <= 1e-12


def check_adjoint_identity(seeds=100, fault=None):
    worst = 0.0
    params = cdp.OperatorParams(mode="fixed")
    for s in range(seeds):
        rng = SeededRng(1000 + s)
        masks = cdp.make_cdp_masks(SeededRng(2000 + s), 4, 8, 8)
        x = _rand_complex(rng, (8, 8))
        z = _rand_complex(rng, (4, 8, 8))
        wx = cdp.operator_apply_fwd(x, masks, params)[0]
        whz = cdp.operator_adjoint_fwd(z, masks, params)[0]
        if fault == "adjoint":
            whz = whz + 1e-6  # deliberate perturbation, debug hook
        lhs = np.vdot(wx, z)
        rhs = np.vdot(x, whz)
        err = abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(z))
        worst = max(worst, err)
    return "adjoint-identity", worst, 1e-12, worst <= 1e-12


def check_parseval(seeds=100):
    worst = 0.0
    params = cdp.OperatorParams(mode="fixed")
    for s in range(seeds):
        rng = SeededRng(3000 + s)
        masks = cdp.make_cdp_masks(SeededRng(4000 + s), 4, 8, 8)
        x = _rand_complex(rng, (8, 8))
        nx2 = np.linalg.norm(x) ** 2
        wx = cdp.operator_apply_fwd(x, masks, params)[0]
        j = len(masks.masks)
        for wj in wx:
            worst = max(worst, abs(np.linalg.norm(wj) ** 2 - nx2) / nx2)
        err = abs(np.linalg.norm(wx) ** 2 - j * nx2) / (j * nx2)
        worst = max(worst, err)
    return "parseval-energy", worst, 1e-12, worst <= 1e-12


def check_adam_first_step():
    worst = 0.0
    lr = 0.01
    for g0 in (1.0, 10.0, 100.0, -1.0, -10.0, -100.0):
        net = network.init_net(2, 2, num_stages=1, channels=1, num_masks=1,
                               mode="fixed", rng=SeededRng(5))
        state = training.init_adam(net)
        before = float(net.stages[0].step_size)
        grads = network.Arena(net.arena.slots)
        grads["stage0.step_size"][...] = g0
        training.adam_update(net, grads, state, lr)
        delta = float(net.stages[0].step_size) - before
        err = abs(delta + lr * np.sign(g0)) / lr
        worst = max(worst, err)
    return "adam-first-step", worst, 1e-6, worst <= 1e-6


def fd_gradients(net, ys, masks, truth, h=1e-6):
    """Central finite differences over every real coordinate of every
    tensor, for a stacked batch as :func:`network.net_forward` takes it."""
    out = {}
    for name, arr in net.tensors():
        flat = arr.view(np.float64).reshape(-1)
        g = np.empty(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            lp = _loss_of(net, ys, masks, truth)
            flat[i] = keep - h
            lm = _loss_of(net, ys, masks, truth)
            flat[i] = keep
            g[i] = (lp - lm) / (2.0 * h)
        out[name] = g
    return out


def grad_error_by_tensor(net, ys, masks, truth):
    """Relative error between analytic and finite-difference gradients."""
    x, tape = network.net_forward(ys, masks, net, record=True)
    analytic = training.backward(tape, truth)
    fd = fd_gradients(net, ys, masks, truth)
    errs = {}
    for name in fd:
        ga = analytic[name].view(np.float64).reshape(-1)
        gf = fd[name]
        denom = max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-12)
        errs[name] = float(np.linalg.norm(ga - gf) / denom)
    return errs


def _small_instance(seed=42):
    """Tiny net at a generic parameter point for derivative checks, and a
    batch of one image for it: values, masks and truth, stacked.

    The init point itself is nondifferentiable (zero biases put ReLU
    inputs exactly at the kink once the threshold zeroes the code), so
    every parameter is jittered off init and the threshold is lowered
    until a healthy fraction of features survives shrinkage.
    """
    rng = SeededRng(seed)
    truth = rng.uniform(64).reshape(8, 8)
    masks = cdp.make_cdp_masks(SeededRng(seed + 1), 2, 8, 8)
    y = cdp.measure(truth, masks, 27.0, SeededRng(seed + 2))
    truth, ys, masks = datakit.stack_dataset([(truth, y)])
    net = network.init_net(8, 8, num_stages=2, channels=2, num_masks=2,
                           mode="structured", rng=SeededRng(seed + 3))
    prng = SeededRng(seed + 4)
    for st in net.stages:
        st.thresh_raw[...] = np.log(np.expm1(0.05 + 0.05 * prng.uniform(1)[0]))
        st.step_size[...] = 0.05 + 0.1 * prng.uniform(1)[0]
        for blk in (st.ana, st.syn):
            for b in (blk.b1, blk.b2):
                b += 0.05 + 0.1 * prng.uniform(b.size).reshape(b.shape)
        st.op.gain += 0.05 * _rand_complex(prng, (8, 8))
        st.op.adj_gain += 0.05 * _rand_complex(prng, (8, 8))
    return net, ys, masks, truth


def check_gradient_fd():
    net, ys, masks, truth = _small_instance()
    errs = grad_error_by_tensor(net, ys, masks, truth)
    worst = max(errs.values())
    return "gradient-fd", worst, 1e-5, worst <= 1e-5


def check_ista_oracle():
    rng = SeededRng(77)
    a = rng.normal(8 * 16).reshape(8, 16)
    yv = rng.normal(8)
    prob = baselines.LassoProblem.build(a, yv, 0.1)
    x0 = np.zeros(16)
    sol, hist = baselines.ista_solve(prob, x0, 5000, 1.0 / prob.lip)
    drift = max(
        (hist[i + 1] - hist[i] for i in range(len(hist) - 1)), default=0.0
    )
    xcd = baselines.cd_lasso(a, yv, 0.1)
    gap = abs(hist[-1] - prob.objective(xcd)) / max(1.0, abs(prob.objective(xcd)))
    measured = max(drift, gap)
    ok = drift <= 1e-12 and gap <= 1e-6
    return "ista-oracle", measured, 1e-6, ok


def run_selfcheck(quick=False, inject_fault=None):
    """Returns (rows, all_ok); rows are (name, measured, threshold, ok)."""
    rows = [
        check_fft_roundtrip(),
        check_adjoint_identity(fault=inject_fault),
        check_parseval(),
        check_adam_first_step(),
    ]
    if not quick:
        rows.append(check_gradient_fd())
        rows.append(check_ista_oracle())
    return rows, all(r[3] for r in rows)
