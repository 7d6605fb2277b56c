"""Image quality metrics against closed forms and a loop-based reference."""

import math

import numpy as np
import pytest

from unrollpr.field import SeededRng
from unrollpr.metrics import gaussian_window, psnr, ssim


def _ssim_reference(x, ref):
    """Direct per-window implementation with explicit loops."""
    w = gaussian_window(11, 1.5)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, wd = x.shape
    vals = []
    for i in range(h - 10):
        for j in range(wd - 10):
            px = x[i:i + 11, j:j + 11]
            py = ref[i:i + 11, j:j + 11]
            mx = float((w * px).sum())
            my = float((w * py).sum())
            vx = float((w * px * px).sum()) - mx * mx
            vy = float((w * py * py).sum()) - my * my
            cxy = float((w * px * py).sum()) - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cxy + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# psnr

def test_psnr_identical_images_is_infinite():
    x = SeededRng(0).uniform(256).reshape(16, 16)
    assert psnr(x, x) == math.inf


def test_psnr_hand_value_20db():
    # constant error 0.1 -> MSE 0.01 -> 10*log10(100) = 20
    x = np.full((8, 8), 0.3)
    assert abs(psnr(x + 0.1, x) - 20.0) <= 1e-12


def test_psnr_hand_value_quarter_grid():
    # errors (0.1, 0, 0, 0) -> MSE 0.0025 -> 10*log10(400)
    a = np.zeros((2, 2))
    b = np.array([[0.1, 0.0], [0.0, 0.0]])
    assert abs(psnr(a, b) - 10.0 * math.log10(400.0)) <= 1e-12
    assert abs(psnr(a, b) - 26.020599913279625) <= 1e-9


def test_psnr_symmetric():
    rng = SeededRng(1)
    a = rng.uniform(64).reshape(8, 8)
    b = rng.uniform(64).reshape(8, 8)
    assert psnr(a, b) == psnr(b, a)


def test_psnr_decreases_with_noise():
    rng = SeededRng(2)
    x = rng.uniform(256).reshape(16, 16)
    last = math.inf
    for scale in (1e-3, 1e-2, 1e-1):
        noisy = x + scale * SeededRng(3).normal(256).reshape(16, 16)
        cur = psnr(noisy, x)
        assert cur < last
        last = cur


def test_psnr_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# window

def test_gaussian_window_normalized_and_symmetric():
    w = gaussian_window()
    assert w.shape == (11, 11)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.array_equal(w, w.T)
    assert np.array_equal(w, w[::-1, ::-1])
    assert w[5, 5] == w.max()


# ---------------------------------------------------------------------------
# ssim

def test_ssim_identical_images_is_one():
    x = SeededRng(4).uniform(256).reshape(16, 16)
    assert abs(ssim(x, x) - 1.0) <= 1e-12


def test_ssim_identical_constant_images_is_one():
    x = np.full((16, 16), 0.5)
    assert ssim(x, x) == 1.0


@pytest.mark.parametrize("shape", [(16, 16), (16, 32), (32, 16)], ids="{0[0]}x{0[1]}".format)
def test_ssim_matches_loop_reference(shape):
    rng = SeededRng(5)
    n = shape[0] * shape[1]
    x = rng.uniform(n).reshape(shape)
    y = np.clip(x + 0.2 * rng.normal(n).reshape(shape), 0.0, 1.0)
    assert abs(ssim(x, y) - _ssim_reference(x, y)) <= 1e-12
    assert abs(ssim(x, 1.0 - x) - _ssim_reference(x, 1.0 - x)) <= 1e-12


def test_ssim_bounded_and_symmetric():
    rng = SeededRng(6)
    for _ in range(10):
        a = rng.uniform(256).reshape(16, 16)
        b = rng.uniform(256).reshape(16, 16)
        v = ssim(a, b)
        assert -1.0 <= v <= 1.0
        assert abs(v - ssim(b, a)) <= 1e-15


def test_ssim_decreases_with_noise():
    rng = SeededRng(7)
    x = rng.uniform(1024).reshape(32, 32)
    vals = []
    for scale in (0.01, 0.05, 0.1, 0.2, 0.4):
        means = []
        for seed in range(20):
            n = SeededRng(100 + seed).normal(1024).reshape(32, 32)
            means.append(ssim(np.clip(x + scale * n, 0, 1), x))
        vals.append(np.mean(means))
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ssim_small_image_rejected():
    with pytest.raises(ValueError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))


def test_ssim_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ssim(np.zeros((16, 16)), np.zeros((16, 32)))


def test_ssim_exact_window_size_uses_single_window():
    x = SeededRng(8).uniform(121).reshape(11, 11)
    y = np.clip(x + 0.1, 0, 1)
    assert abs(ssim(x, y) - _ssim_reference(x, y)) <= 1e-12
