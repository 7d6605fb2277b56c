"""Measurement operator: masks, forward/adjoint, learnable modes, noise."""

import tracemalloc

import numpy as np
import pytest

from unrollpr.cdp import (
    MaskSet,
    OperatorParams,
    dft_matrix_2d,
    make_cdp_masks,
    masks_from_seed,
    measure,
    operator_adjoint_fwd,
    operator_adjoint_vjp,
    operator_apply_fwd,
    operator_apply_vjp,
)
from unrollpr.field import SeededRng


def _rand_complex(rng, shape):
    n = int(np.prod(shape))
    return (rng.normal(n) + 1j * rng.normal(n)).reshape(shape)


def _brute_dft2(h, w):
    # independent O(N^2) construction of the unitary 2D DFT matrix
    n = h * w
    m = np.zeros((n, n), dtype=np.complex128)
    for r in range(h):
        for c in range(w):
            for u in range(h):
                for v in range(w):
                    m[r * w + c, u * w + v] = np.exp(
                        -2j * np.pi * (r * u / h + c * v / w)
                    )
    return m / np.sqrt(n)


def test_masks_unit_modulus():
    ms = make_cdp_masks(SeededRng(1), 4, 8, 8)
    assert np.max(np.abs(np.abs(ms.masks) - 1.0)) <= 1e-12


def test_masks_deterministic():
    a = make_cdp_masks(SeededRng(7), 4, 8, 8)
    b = make_cdp_masks(SeededRng(7), 4, 8, 8)
    assert np.array_equal(a.masks, b.masks)


def test_masks_need_at_least_one():
    with pytest.raises(ValueError):
        make_cdp_masks(SeededRng(1), 0, 8, 8)


def test_masks_from_seed_records_rebuild_key():
    ms = masks_from_seed(99, 4, 8, 8)
    again = masks_from_seed(ms.seed, 4, 8, 8)
    assert np.array_equal(ms.masks, again.masks)


def test_mask_arguments_uniform_ks():
    # one 64x64 mask; KS statistic of phase angles against U[0, 2pi)
    ms = make_cdp_masks(SeededRng(3), 1, 64, 64)
    theta = np.sort(np.angle(ms.masks[0]).ravel() % (2 * np.pi))
    n = theta.size
    cdf = theta / (2 * np.pi)
    i = np.arange(1, n + 1)
    d = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    crit_1pct = 1.62762 / np.sqrt(n)
    assert d < crit_1pct


def test_fixed_apply_reduces_to_fft():
    mask = MaskSet(masks=np.ones((1, 2, 2), dtype=np.complex128))
    x = np.zeros((2, 2))
    x[0, 0] = 1.0
    z = operator_apply_fwd(x, mask, OperatorParams(mode="fixed"))[0]
    assert z.shape == (1, 2, 2)
    assert np.allclose(z, 0.5, atol=1e-15)


def test_structured_identity_gain_matches_fixed():
    ms = make_cdp_masks(SeededRng(5), 4, 8, 8)
    x = _rand_complex(SeededRng(6), (8, 8))
    zf = operator_apply_fwd(x, ms, OperatorParams(mode="fixed"))[0]
    zs = operator_apply_fwd(x, ms, OperatorParams.initial("structured", 8, 8))[0]
    assert np.allclose(zf, zs, atol=1e-14)


def test_dense_init_matches_fixed_and_matrix_oracle():
    ms = make_cdp_masks(SeededRng(8), 2, 4, 4)
    x = _rand_complex(SeededRng(9), (4, 4))
    zf = operator_apply_fwd(x, ms, OperatorParams(mode="fixed"))[0]
    zd = operator_apply_fwd(x, ms, OperatorParams.initial("dense", 4, 4))[0]
    assert np.max(np.abs(zf - zd)) <= 1e-12
    # explicit matrix-multiplication oracle, brute-force DFT matrix
    f2 = _brute_dft2(4, 4)
    for j in range(2):
        ref = (f2 @ (ms.masks[j] * x).ravel()).reshape(4, 4)
        assert np.max(np.abs(zd[j] - ref)) <= 1e-12


def _dense_case(b, j, h):
    x = SeededRng(10).normal(b * h * h).reshape(b, h, h)
    z = _rand_complex(SeededRng(11), (b, j, h, h))
    masks = np.stack([masks_from_seed(i, j, h, h).masks for i in range(b)])
    p = OperatorParams.initial("dense", h, h)
    p.mat = p.mat + 0.1 * _rand_complex(SeededRng(12), p.mat.shape)
    return x, z, masks, p


def test_dense_caches_rows_of_one_gemm():
    # each dense product is one GEMM over the whole batch: the caches hold
    # the modulated field as one 2-D (B*J, N) view of its (B, J, h, w) buffer
    b, j, h = 3, 2, 4
    x, z, masks, p = _dense_case(b, j, h)
    _, ca = operator_apply_fwd(x, MaskSet(masks), p)
    _, cs = operator_adjoint_fwd(z, MaskSet(masks), p)
    assert ca["uf"].shape == (b * j, h * h) and ca["uf"].base.shape == (b, j, h, h)
    assert np.array_equal(ca["uf"].base, masks * x[:, None])
    assert cs["zf"].shape == (b * j, h * h) and np.shares_memory(cs["zf"], z)


def test_dense_one_mask_bitwise_invariant_to_batch():
    # numpy runs a one-row product through gemv, whose bits differ from
    # gemm's, so one-mask images must not fold into a many-row GEMM
    b, h = 6, 4
    x, z, masks, p = _dense_case(b, 1, h)

    def run(s):
        w, ca = operator_apply_fwd(x[s], MaskSet(masks[s]), p)
        a, cs = operator_adjoint_fwd(z[s], MaskSet(masks[s]), p)
        return w, a, operator_apply_vjp(z[s], ca)[0], operator_adjoint_vjp(x[s], cs)[0]

    whole = run(slice(None))
    for i in range(b):
        for all_rows, one in zip(whole, run(slice(i, i + 1))):
            assert np.array_equal(all_rows[i:i + 1], one)


@pytest.mark.parametrize("tie", [False, True])
def test_dense_vjps_conjugate_the_thin_operand_not_the_matrix(tie):
    # an input cotangent df @ conj(m) is formed as conj(conj(df) @ m), so a
    # vjp's peak holds its matrix cotangent, its input cotangent and two
    # (B*J, N) buffers, never an N x N conjugate of the matrix (a tied
    # adjoint's cotangent is conjugate-transposed in place, too)
    b, j, h = 10, 4, 16
    x, z, masks, p = _dense_case(b, j, h)
    if tie:
        p.adj_mat, p.tie_adjoint = None, True
    _, ca = operator_apply_fwd(x, MaskSet(masks), p)
    _, cs = operator_adjoint_fwd(z, MaskSet(masks), p)
    rows = (b * j, h * h)
    du = (z.reshape(rows) @ np.conj(p.mat)).reshape(z.shape)
    want_dx = np.sum(np.conj(masks) * du, axis=-3)
    dq = masks * x[:, None]
    want_dz = (dq.reshape(rows) @ np.conj(p._tensor(adjoint=True))).reshape(z.shape)
    for vjp, seed, cache, want in ((operator_apply_vjp, z, ca, want_dx),
                                   (operator_adjoint_vjp, x, cs, want_dz)):
        tracemalloc.start()
        try:
            got, grads = vjp(seed, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (dm,) = grads.values()
        # 4 KiB for the array headers and the dict around them
        assert peak <= dm.nbytes + got.nbytes + 2 * 16 * rows[0] * rows[1] + 4096
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_dft_matrix_is_unitary_and_matches_brute_force():
    f2 = dft_matrix_2d(4, 8)
    assert np.allclose(f2 @ f2.conj().T, np.eye(32), atol=1e-12)
    assert np.max(np.abs(f2 - _brute_dft2(4, 8))) <= 1e-12


def test_adjoint_identity_fixed_mode():
    p = OperatorParams(mode="fixed")
    for s in range(10):
        rng = SeededRng(100 + s)
        ms = make_cdp_masks(SeededRng(200 + s), 4, 8, 8)
        x = _rand_complex(rng, (8, 8))
        z = _rand_complex(rng, (4, 8, 8))
        lhs = np.vdot(operator_apply_fwd(x, ms, p)[0], z)
        rhs = np.vdot(x, operator_adjoint_fwd(z, ms, p)[0])
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(z)


def test_adjoint_zeros_give_zeros():
    ms = make_cdp_masks(SeededRng(4), 4, 8, 8)
    zeros = np.zeros((4, 8, 8), dtype=np.complex128)
    out = operator_adjoint_fwd(zeros, ms, OperatorParams(mode="fixed"))[0]
    assert np.all(out == 0)


def test_single_ones_mask_gives_identity_composition():
    mask = MaskSet(masks=np.ones((1, 8, 8), dtype=np.complex128))
    p = OperatorParams(mode="fixed")
    x = _rand_complex(SeededRng(12), (8, 8))
    back = operator_adjoint_fwd(operator_apply_fwd(x, mask, p)[0], mask, p)[0]
    assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


def test_per_channel_isometry_and_energy():
    p = OperatorParams(mode="fixed")
    for s in range(10):
        ms = make_cdp_masks(SeededRng(300 + s), 4, 8, 8)
        x = _rand_complex(SeededRng(400 + s), (8, 8))
        nx2 = np.linalg.norm(x) ** 2
        z = operator_apply_fwd(x, ms, p)[0]
        for j in range(4):
            assert abs(np.linalg.norm(z[j]) ** 2 - nx2) <= 1e-12 * nx2
        assert abs(np.linalg.norm(z) ** 2 - 4 * nx2) <= 1e-12 * 4 * nx2


def test_dense_guard_rejects_large_fields():
    with pytest.raises(ValueError):
        OperatorParams.initial("dense", 128, 64)  # N = 8192 > 4096


def test_unknown_mode_rejected():
    ms = make_cdp_masks(SeededRng(1), 1, 4, 4)
    with pytest.raises(ValueError):
        operator_apply_fwd(np.ones((4, 4)), ms, OperatorParams(mode="banana"))


def test_measure_zero_noise_is_exact_magnitude():
    ms = make_cdp_masks(SeededRng(21), 4, 8, 8)
    x = SeededRng(22).uniform(64).reshape(8, 8)
    mv = measure(x, ms, 0.0, SeededRng(23))
    z = operator_apply_fwd(x, ms, OperatorParams(mode="fixed"))[0]
    assert np.array_equal(mv.values, np.abs(z))
    assert mv.alpha == 0.0


def test_measure_blind_to_global_sign():
    ms = make_cdp_masks(SeededRng(31), 4, 8, 8)
    x = SeededRng(32).uniform(64).reshape(8, 8)
    a = measure(x, ms, 0.0, SeededRng(33))
    b = measure(-x, ms, 0.0, SeededRng(33))
    assert np.array_equal(a.values, b.values)


def test_measure_rejects_negative_alpha():
    ms = make_cdp_masks(SeededRng(41), 4, 8, 8)
    with pytest.raises(ValueError):
        measure(np.ones((8, 8)), ms, -1.0, SeededRng(42))


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_measure_rejects_non_finite_alpha(alpha):
    ms = make_cdp_masks(SeededRng(41), 4, 8, 8)
    with pytest.raises(ValueError, match="finite"):
        measure(np.ones((8, 8)), ms, alpha, SeededRng(42))


def test_measure_keeps_its_masks():
    ms = make_cdp_masks(SeededRng(43, 1), 4, 8, 8)
    mv = measure(np.ones((8, 8)), ms, 9.0, SeededRng(44))
    assert mv.masks is ms.masks and mv.mask_seed is None


def test_measure_nonnegative_and_finite():
    ms = make_cdp_masks(SeededRng(51), 4, 8, 8)
    x = SeededRng(52).uniform(64).reshape(8, 8)
    mv = measure(x, ms, 81.0, SeededRng(53))
    assert np.all(mv.values >= 0)
    assert np.all(np.isfinite(mv.values))


def test_measure_noise_variance_calibration():
    # constant image under one all-ones mask concentrates all energy at the
    # DC bin, whose magnitude (4.0) dwarfs its noise sigma, so the
    # nonnegativity clamp fires with negligible probability and the sample
    # variance of y - |Ax| should match (alpha/255)*|Ax|.
    mask = MaskSet(masks=np.ones((1, 4, 4), dtype=np.complex128))
    x = np.ones((4, 4))
    alpha = 81.0
    mag0 = 4.0  # unitary DFT of all-ones: sum/sqrt(N) = 16/4
    rng = SeededRng(60)
    n = 100000
    vals = np.empty(n)
    for i in range(n):
        vals[i] = measure(x, mask, alpha, rng).values[0, 0, 0]
    expected = (alpha / 255.0) * mag0
    sample_var = np.var(vals - mag0)
    assert abs(sample_var - expected) <= 0.05 * expected


def test_apply_vjp_matches_finite_differences():
    # scalar probe: d/dt Re(sum(conj(c) * W(x + t*e))) at t=0 equals
    # Re(sum(conj(dx) * e)) with dx from the vjp seeded by c
    ms = make_cdp_masks(SeededRng(71), 2, 4, 4)
    p = OperatorParams.initial("structured", 4, 4)
    p.gain += 0.1 * _rand_complex(SeededRng(72), (4, 4))
    x = _rand_complex(SeededRng(73), (4, 4))
    c = _rand_complex(SeededRng(74), (2, 4, 4))
    e = _rand_complex(SeededRng(75), (4, 4))
    _, cache = operator_apply_fwd(x, ms, p)
    dx, _ = operator_apply_vjp(c, cache)
    h = 1e-7

    def f(t):
        z, _ = operator_apply_fwd(x + t * e, ms, p)
        return (np.conj(c) * z).real.sum()

    fd = (f(h) - f(-h)) / (2 * h)
    an = (np.conj(dx) * e).real.sum()
    assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))
