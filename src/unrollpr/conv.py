"""Zero-padded 3x3 convolutions with explicit backward passes.

Layout is (batch, channels, h, w) throughout, weights are
(c_out, c_in, 3, 3), and padding keeps spatial size fixed.

Every contraction is a BLAS GEMM on a strided view, with no window copy.
Each image is zero-padded into a flat row per channel of length
(h+2)*(w+2)+2.  Output pixel (r, s) sits at column q = r*(w+2)+s of an
(h, w+2) output grid, and tap (i, j) reads input column q + i*(w+2)+j, so
a tap is a plain column offset into the padded row.  The two grid columns
past w hold junk.  The forward sums the nine tap GEMMs
``w[:, :, i, j] @ x_pad[b][:, off:off+n]`` (n = h*(w+2)) for one block of
images at a time, sized so the partial sums stay in cache.  The input
gradient is the same correlation of the padded output gradient with the
180-degree rotated, transposed kernels, and each weight-gradient tap
``dy[b] @ x_pad[b][:, off:off+n].T``, summed over the batch, is added into
the caller's ``dw`` (the bias cotangent into ``db``).

The batch stays the outer axis: every image gets its own GEMMs, so an
image's output does not depend on which images share its batch.  The dense
measurement operator (``cdp._matmul``) differs: it folds the batch into
the rows of one GEMM, so there batch invariance rests on the BLAS giving
each row the same bits whatever the row count, not on one GEMM per image
(checked with OpenBLAS 0.3.31; the batch-invariance tests pin it).  With one
input channel a tap GEMM would have inner dimension 1, a slow outer
product in BLAS; there the nine taps are stacked into one (c_out, 9) @
(9, n) GEMM per image instead.

Padded rows are also the format of every result.  ``conv2d_fwd`` returns
``y`` and ``conv2d_bwd`` returns ``dx`` as the (B, C, h, w) interior view,
at offset w+3, of a padded-row buffer that this module allocated and owns.
Grid column q lands at buffer column q + w+3, so the grid's junk columns
fall on the pad cells between consecutive rows.  The grid is copied in
once (with the bias), then the head, the tail and the junk cells are
zeroed: every pad cell of an owned buffer is zero.  An input (``x``,
``dy`` or the cached ``x``) that is such a view is read in place; any
other array is padded into a fresh buffer.  Recognition is exact: the
array must be a view this module handed out (a weak registry, compared
with ``is``, which also fixes the w+3 offset) and still have its shape
and strides, so a view of foreign memory, or any other view of an owned
buffer, is padded whatever its pad cells hold.

``rows(y)`` returns the buffer behind a conv output, so that elementwise
passes run on one contiguous array instead of a strided view.  Only
operations that keep 0 at 0 may write there -- a ReLU, a mask multiply, a
soft threshold -- because the next conv reads the pad cells as zeros.
"""

import weakref

import numpy as np
from numpy.lib.stride_tricks import as_strided

# bytes of partial sums per block of images, small enough to stay in L2
_BLOCK_BYTES = 1 << 19

# id(view) -> view, for every output view handed out; an entry leaves when
# its view is freed
_OWNED = weakref.WeakValueDictionary()


def _interior(buf, h, w):
    """(B, C, h, w) view of the pixels in padded rows of an image w wide."""
    s = buf.strides
    return np.ndarray((buf.shape[0], buf.shape[1], h, w), buf.dtype, buf,
                      (w + 3) * s[2], (s[0], s[1], (w + 2) * s[2], s[2]))


def _owner(v):
    """The buffer behind ``v`` if v is an output view handed out here, else None.

    An array's offset into its buffer is fixed at creation, so the identity
    check covers it; shape and strides are checked because they can be set.
    """
    if _OWNED.get(id(v)) is not v or v.ndim != 4:
        return None
    buf = v.base
    b, c, h, w = v.shape
    s = buf.strides
    if (buf.shape != (b, c, (h + 2) * (w + 2) + 2)
            or v.strides != (s[0], s[1], (w + 2) * s[2], s[2])):
        return None
    return buf


def _rows_of(x):
    """(B, C, h, w) -> padded rows (B, C, (h+2)*(w+2)+2): the buffer behind
    x when x is a conv output, else a zero-padded copy."""
    buf = _owner(x)
    if buf is None:
        b, c, h, w = x.shape
        buf = np.zeros((b, c, (h + 2) * (w + 2) + 2))
        _interior(buf, h, w)[...] = x
    return buf


def _new_rows(shape):
    """Allocate an output buffer; the one place results get their memory."""
    return np.empty(shape)


def _emit(grid, h, w, bias=None):
    """(B, C, h*(w+2)) output grid -> interior view of a fresh owned buffer."""
    b, c, n = grid.shape
    buf = _new_rows((b, c, (h + 2) * (w + 2) + 2))
    if bias is not None:
        # an in-place add on the contiguous grid and a copy beat one
        # three-operand add into the strided core: 67-76 vs 93-104 us for
        # B=10, c=8, 32x32 on one core
        grid += np.repeat(bias, n).reshape(c, n)
    buf[:, :, w + 3:w + 3 + n] = grid
    buf[:, :, :w + 3] = 0.0
    buf[:, :, w + 3 + n:] = 0.0
    # the grid's junk columns are the pad cells between consecutive rows
    buf[:, :, w + 3:w + 3 + n].reshape(b, c, h, w + 2)[..., w:] = 0.0
    view = _interior(buf, h, w)
    _OWNED[id(view)] = view
    return view


def rows(y):
    """The padded-row buffer behind a conv output ``y``.

    Writes through it must keep 0 at 0 (see the module docstring).
    Raises ValueError for any array that is not such an output.
    """
    buf = _owner(y)
    if buf is None:
        raise ValueError("not the output of conv2d_fwd or conv2d_bwd")
    return buf


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


def conv2d_fwd(x, w, b):
    """y[b,o] = sum_c x[b,c] * w[o,c] + b[o], same-size output."""
    h, wd = x.shape[2:]
    return _emit(_correlate(_rows_of(x), w, h, wd), h, wd, b), (x, w)


def conv2d_bwd(dy, cache, dw, db):
    """Adds the weight and bias cotangents into ``dw`` and ``db``; returns dx."""
    x, w = cache
    h, wd = dy.shape[2:]
    n = h * (wd + 2)
    dyp = _rows_of(dy)
    # one einsum over the buffer behind a conv output: its pad cells add zeros
    db += np.einsum("bcq->c", dyp) if dyp is dy.base else dy.sum(axis=(0, 2, 3))
    # transposed conv: correlate dy with the 180-degree rotated kernels
    dx = _emit(_correlate(dyp, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), h, wd), h, wd)
    # dy on the output grid is a view of its padded rows, junk columns zero
    dyq = dyp[:, :, wd + 3:wd + 3 + n]
    xp = _rows_of(x)
    for t, off in enumerate(_taps(wd)):
        dw[:, :, t // 3, t % 3] += np.matmul(dyq, xp[:, :, off:off + n].transpose(0, 2, 1)).sum(0)
    return dx


def xavier_conv_weight(rng, c_out, c_in, k=3):
    """Uniform init on [-a, a], a = sqrt(6 / (fan_in + fan_out))."""
    fan_in = c_in * k * k
    fan_out = c_out * k * k
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniform(c_out * c_in * k * k).reshape(c_out, c_in, k, k)
    return limit * (2.0 * u - 1.0)
