"""Reconstruction quality metrics for [0,1]-normalized grayscale images."""

import math
from functools import lru_cache

import numpy as np

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(x, ref):
    """10*log10(1 / MSE) in dB, dynamic range 1.0; +inf for exact equality."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ValueError("shape mismatch %r vs %r" % (x.shape, ref.shape))
    mse = float(np.mean((x - ref) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_1d(size, sigma):
    r = np.arange(size) - (size - 1) / 2.0
    return np.exp(-(r ** 2) / (2.0 * sigma ** 2))


def gaussian_window(size=SSIM_WINDOW, sigma=SSIM_SIGMA):
    """Normalized 2D Gaussian tap matrix."""
    g1 = _gaussian_1d(size, sigma)
    g = np.outer(g1, g1)
    return g / g.sum()


@lru_cache(maxsize=8)
def _band(n):
    """(n - 10, n) matrix; row i holds the normalised 1-D Gaussian at columns
    i..i+10, so ``band @ a`` filters the rows of ``a`` over valid offsets."""
    g1 = _gaussian_1d(SSIM_WINDOW, SSIM_SIGMA)
    m = n - SSIM_WINDOW + 1
    band = np.zeros((m, n))
    for i in range(m):
        band[i, i:i + SSIM_WINDOW] = g1 / g1.sum()
    band.flags.writeable = False
    return band


def check_ssim_shape(shape):
    """Raise ValueError unless ``shape`` is 2-D with sides of at least SSIM_WINDOW."""
    if len(shape) != 2 or min(shape) < SSIM_WINDOW:
        raise ValueError(
            "images must be at least %dx%d, got %r" % (SSIM_WINDOW, SSIM_WINDOW, tuple(shape))
        )


def ssim(x, ref):
    """Mean local SSIM, 11x11 Gaussian window sigma=1.5, valid windowing.

    Standard constants K1=0.01, K2=0.03 at dynamic range 1.
    """
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ValueError("shape mismatch %r vs %r" % (x.shape, ref.shape))
    check_ssim_shape(x.shape)
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    # the 2-D window is the outer product of the 1-D one: filter the columns,
    # then the rows, of all five moment images with two GEMMs
    stack = np.stack([x, ref, x * x, ref * ref, x * ref])
    mu_x, mu_y, ex2, ey2, exy = _band(x.shape[0]) @ stack @ _band(x.shape[1]).T
    var_x = ex2 - mu_x ** 2
    var_y = ey2 - mu_y ** 2
    cov = exy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def scores(xs, refs):
    """Per-image (PSNR list, SSIM list) of two equally long image stacks."""
    pairs = list(zip(xs, refs, strict=True))
    return [psnr(x, ref) for x, ref in pairs], [ssim(x, ref) for x, ref in pairs]
