"""Zero-padded 3x3 convolutions with explicit backward passes.

Layout is (batch, channels, h, w) throughout, weights are
(c_out, c_in, 3, 3), and padding keeps spatial size fixed.

Every contraction is a BLAS GEMM on a strided view, with no window copy.
Each image is zero-padded once into a flat row per channel of length
(h+2)*(w+2)+2.  Output pixel (r, s) sits at column q = r*(w+2)+s of an
(h, w+2) output grid, and tap (i, j) reads input column q + i*(w+2)+j, so
a tap is a plain column offset into the padded row.  The two grid columns
past w hold junk and are cropped.  The forward sums the nine tap GEMMs
``w[:, :, i, j] @ x_pad[b][:, off:off+n]`` (n = h*(w+2)) for one block of
images at a time, sized so the partial sums stay in cache.  The input
gradient is the same correlation of the padded output gradient with the
180-degree rotated, transposed kernels, and each weight-gradient tap is
``dy[b] @ x_pad[b][:, off:off+n].T`` summed over the batch.

The batch stays the outer axis: every image gets its own GEMMs, so an
image's output does not depend on which images share its batch.  With one
input channel a tap GEMM would have inner dimension 1, a slow outer
product in BLAS; there the nine taps are stacked into one (c_out, 9) @
(9, n) GEMM per image instead.  Nothing padded is cached: the backward
pads x again.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

# bytes of partial sums per block of images, small enough to stay in L2
_BLOCK_BYTES = 1 << 19


def _pad(x):
    """(B, C, h, w) -> zero-padded flat rows (B, C, (h+2)*(w+2)+2)."""
    b, c, h, w = x.shape
    size = (h + 2) * (w + 2)
    xp = np.zeros((b, c, size + 2))
    xp[:, :, :size].reshape(b, c, h + 2, w + 2)[:, :, 1:-1, 1:-1] = x
    return xp


def _taps(w):
    """Column offset of each tap (i, j) in a padded row of an image w wide."""
    return [i * (w + 2) + j for i in range(3) for j in range(3)]


def _correlate(xp, w, h, wd):
    """Sum over taps of w[:, :, i, j] @ shifted xp: (B, c_out, h*(wd+2))."""
    b, c = xp.shape[:2]
    o = w.shape[0]
    n = h * (wd + 2)
    if c == 1:
        s = xp.strides
        cols = as_strided(xp, (b, 3, 3, n), (s[0], (wd + 2) * s[2], s[2], s[2]))
        return np.matmul(w.reshape(o, 9), cols.reshape(b, 9, n))
    wt = np.ascontiguousarray(w.reshape(o, c, 9).transpose(2, 0, 1))
    offs = _taps(wd)
    y = np.empty((b, o, n))
    blk = max(1, _BLOCK_BYTES // y[0].nbytes)
    part = np.empty((min(blk, b), o, n))
    for s in range(0, b, blk):
        acc = y[s:s + blk]
        tmp = part[:len(acc)]
        np.matmul(wt[0], xp[s:s + blk, :, :n], out=acc)
        for t in range(1, 9):
            np.matmul(wt[t], xp[s:s + blk, :, offs[t]:offs[t] + n], out=tmp)
            acc += tmp
    return y


def _crop(y, h, w):
    """(B, C, h*(w+2)) output grid -> view of the (B, C, h, w) pixels."""
    return y.reshape(y.shape[0], y.shape[1], h, w + 2)[..., :w]


def conv2d_fwd(x, w, b):
    """y[b,o] = sum_c x[b,c] * w[o,c] + b[o], same-size output."""
    h, wd = x.shape[2:]
    y = _crop(_correlate(_pad(x), w, h, wd), h, wd) + b[:, None, None]
    return y, (x, w)


def conv2d_bwd(dy, cache):
    """Returns (dx, dw, db) for the cached forward call."""
    x, w = cache
    o, c = w.shape[:2]
    h, wd = dy.shape[2:]
    n = h * (wd + 2)
    db = dy.sum(axis=(0, 2, 3))
    dyp = _pad(dy)
    # transposed conv: correlate dy with the 180-degree rotated kernels
    dx = _crop(_correlate(dyp, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), h, wd), h, wd)
    # dy on the output grid is a view of its padded rows, junk columns zero
    dyq = dyp[:, :, wd + 3:wd + 3 + n]
    xp = _pad(x)
    dw = np.empty((o, c, 9))
    for t, off in enumerate(_taps(wd)):
        dw[:, :, t] = np.matmul(dyq, xp[:, :, off:off + n].transpose(0, 2, 1)).sum(0)
    return dx, dw.reshape(o, c, 3, 3), db


def xavier_conv_weight(rng, c_out, c_in, k=3):
    """Uniform init on [-a, a], a = sqrt(6 / (fan_in + fan_out))."""
    fan_in = c_in * k * k
    fan_out = c_out * k * k
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniform(c_out * c_in * k * k).reshape(c_out, c_in, k, k)
    return limit * (2.0 * u - 1.0)
