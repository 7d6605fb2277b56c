"""Coded-diffraction measurement operators with a learnable spectral stage.

A measurement stacks J channels.  Channel j modulates the image by a random
unit-modulus mask d_j and pushes it through a spectral transform T:

    (W x)_j = T (d_j * x)

Three transform modes are supported:

* ``fixed``       T = F, the unitary 2D DFT: the structured path with no gain.
* ``structured``  T = diag(g) F with a per-frequency complex gain g, so the
                  transform stays O(N log N) and holds 2N real parameters.
* ``dense``       T is a full N x N complex matrix acting on the flattened
                  image (initialized to the DFT matrix); quadratic storage,
                  guarded to N <= 4096.

The adjoint map carries its own gain / matrix (initialized to the true
adjoint) unless ``tie_adjoint`` is set.  Then it applies conj(g) or M^H,
formed from the forward tensor on every call, so the two stay exactly
adjoint, and its cotangent goes back onto the forward tensor.

Gradients follow the convention  vbar = dL/dRe(v) + i dL/dIm(v)  for complex
intermediates, which makes every complex-linear map M pull back as M^H.
Each operator is a ``*_fwd`` / ``*_vjp`` pair only: the forward returns
(output, cache); the vjp consumes the cache, adds (never writes) its
parameter cotangents into a gradient :class:`OperatorParams`, so stages
sharing one operator sum there, and returns the input cotangent.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import (DENSE_SIZE_LIMIT, SeededRng, check_spatial_pow2, dense_too_large,
                    fft2_unitary, ifft2_unitary)


@dataclass
class MaskSet:
    """J unit-modulus modulation masks of shape (J, h, w), or a batch of
    such sets (B, J, h, w); the masks are never modified once built."""

    masks: np.ndarray
    seed: int = None

    @cached_property
    def conj(self):
        """conj(masks), computed on first use and kept with the set."""
        return np.conj(self.masks)


@dataclass
class MeasurementVector:
    """Magnitude measurements (J, h, w), their noise level, the (J, h, w)
    masks they were taken through and those masks' seed (None if unseeded)."""

    values: np.ndarray
    alpha: float
    mask_seed: int
    masks: np.ndarray


def masks_from_seed(seed, num_masks, h, w):
    """The mask set of one integer seed: masks exp(i theta), theta ~ U[0, 2 pi)
    drawn from ``SeededRng(seed)``, recording its key ``SeededRng(seed).seed``."""
    if num_masks < 1:
        raise ValueError("need at least one mask, got %d" % num_masks)
    check_spatial_pow2((h, w))
    rng = SeededRng(seed)
    theta = 2.0 * np.pi * rng.uniform(num_masks * h * w).reshape(num_masks, h, w)
    return MaskSet(masks=np.exp(1j * theta), seed=rng.seed)


def dft_matrix_2d(h, w):
    """Unitary 2D DFT as an (N, N) matrix over row-major flattened fields."""
    ih = np.arange(h)
    iw = np.arange(w)
    fh = np.exp(-2j * np.pi * np.outer(ih, ih) / h) / np.sqrt(h)
    fw = np.exp(-2j * np.pi * np.outer(iw, iw) / w) / np.sqrt(w)
    return np.kron(fh, fw)


def _identity_gains(h, w):
    return np.ones((h, w), dtype=np.complex128), np.ones((h, w), dtype=np.complex128)


def _dft_pair(h, w):
    f2 = dft_matrix_2d(h, w)
    return f2, f2.conj().T.copy()


# mode -> (forward, adjoint) attribute names, their shape for an h x w field
# and their initial values; ``fixed`` has no trainable part
_TRANSFORMS = {
    "fixed": ((), None, None),
    "structured": (("gain", "adj_gain"), lambda h, w: (h, w), _identity_gains),
    "dense": (("mat", "adj_mat"), lambda h, w: (h * w, h * w), _dft_pair),
}


def _transform(mode):
    if mode not in _TRANSFORMS:
        raise ValueError("unknown operator mode %r" % mode)
    return _TRANSFORMS[mode]


def operator_layout(mode, h, w, tie_adjoint=False):
    """Stored operator tensors as (attribute, shape, dtype), forward first.

    A tied adjoint is derived from the forward side, so it is not stored.
    """
    names, shape, _ = _transform(mode)
    if names:
        check_spatial_pow2((h, w))
    if dense_too_large(mode, h, w):
        raise ValueError("dense transform needs %d^2 complex entries; limit is %d^2"
                         % (h * w, DENSE_SIZE_LIMIT))
    names = names[:1] if tie_adjoint else names
    return tuple((name, shape(h, w), np.dtype(np.complex128)) for name in names)


@dataclass
class OperatorParams:
    """Trainable state of the spectral transform and its adjoint.

    ``gain``/``adj_gain`` are (h, w) complex fields (structured mode);
    ``mat``/``adj_mat`` are (N, N) complex matrices (dense mode).  The
    unused pair is None.  With ``tie_adjoint`` the adjoint-side tensor is
    None too: it is derived from the forward side instead.
    """

    mode: str
    gain: np.ndarray = None
    adj_gain: np.ndarray = None
    mat: np.ndarray = None
    adj_mat: np.ndarray = None
    tie_adjoint: bool = False

    @staticmethod
    def initial(mode, h, w, tie_adjoint=False):
        """The operator of ``mode`` at its initial value (stored tensors only):
        identity gains, equal to the fixed operator, or the DFT matrix."""
        names = [name for name, _, _ in operator_layout(mode, h, w, tie_adjoint)]
        init = _TRANSFORMS[mode][2](h, w) if names else ()
        return OperatorParams(mode=mode, tie_adjoint=tie_adjoint, **dict(zip(names, init)))

    def _tensor(self, adjoint):
        """The stored gain / matrix one side applies (for a tied adjoint, the
        forward one, whose adjoint it applies); None in fixed mode."""
        names = _transform(self.mode)[0]
        if not names:
            return None
        return getattr(self, names[1] if adjoint and not self.tie_adjoint else names[0])


def _modulate(x, masks):
    # (..., h, w) -> (..., J, h, w)
    return masks * x[..., None, :, :]


def _matmul(v, m, adjoint=False):
    """m (or m^H with ``adjoint``) applied to each flattened (h, w) field of
    v; returns (the product, flat v).

    All leading axes fold into the rows of one (B*J, N) @ (N, N) GEMM; numpy
    loops over a stacked operand, one J-row GEMM per image.  So batch
    invariance rests on the BLAS giving a row the same bits whatever the row
    count (checked with OpenBLAS 0.3.31, pinned by tests).  numpy sends a
    one-row product to gemv, whose bits differ from gemm's, so one-mask
    images keep one gemv each.  m^H v is formed as conj(conj(v) @ m): the
    conjugate is taken of the (rows, N) operand, never of the N x N matrix.
    """
    n = m.shape[1]
    vf = v.reshape((-1, n) if v.shape[-3] > 1 else (-1, 1, n))
    if not adjoint:
        return (vf @ m.T).reshape(v.shape), vf
    out = np.conj(vf) @ m
    return np.conjugate(out, out=out).reshape(v.shape), vf


def _matmul_vjp(dout, vf, m, adjoint=False):
    """Pull dout back through :func:`_matmul`: (dv, dm summed over leading axes).

    dv is dout through m^H (through m when ``adjoint``), one GEMM over the
    batch as well; dm is df^T conj(vf), or vf^T conj(df) when ``adjoint``.
    """
    n = vf.shape[-1]
    df = dout.reshape(-1, n)
    lhs, rhs = (vf.reshape(-1, n), df) if adjoint else (df, vf.reshape(-1, n))
    return _matmul(dout, m, not adjoint)[0], lhs.T @ np.conj(rhs)


def _gain_grad(v, dout):
    """Cotangent of a per-frequency gain g in g * v, summed over the batch."""
    return np.sum(np.conj(v) * dout, axis=tuple(range(dout.ndim - 2)))


def operator_apply_fwd(x, mask_set, params):
    """W x for a real or complex field x of shape (..., h, w).

    Returns (z, cache) with z of shape (..., J, h, w).  ``mask_set`` is a
    :class:`MaskSet` whose (J, h, w) or (B, J, h, w) masks broadcast against
    x; passing the same set to several calls conjugates its masks once.
    """
    u = _modulate(np.asarray(x), mask_set.masks)
    g = params._tensor(adjoint=False)
    cache = {"mode": params.mode, "conj_masks": mask_set.conj, "g": g}
    if params.mode == "dense":
        z, cache["uf"] = _matmul(u, g)
    else:  # the FFT, then the gain if there is one
        z = fft2_unitary(u)
        if g is not None:
            cache["f"] = z
            z = g * z
    return z, cache


def operator_apply_vjp(dz, cache, grad):
    """Pull dz back through W, adding the gain / matrix cotangent into the
    gradient :class:`OperatorParams` ``grad``; returns dx, the complex
    cotangent of x (take .real when x was real)."""
    g = cache["g"]
    if cache["mode"] == "dense":
        du, dm = _matmul_vjp(dz, cache["uf"], g)
        grad.mat += dm
    else:
        if g is not None:
            grad.gain += _gain_grad(cache["f"], dz)
            dz = np.conj(g) * dz
        du = ifft2_unitary(dz)
    return np.sum(cache["conj_masks"] * du, axis=-3)


def operator_adjoint_fwd(z, mask_set, params):
    """W^H z (learned adjoint) for z of shape (..., J, h, w) through the
    :class:`MaskSet` ``mask_set``.

    Returns (s, cache) with s of shape (..., h, w), complex.
    """
    z, tied = np.asarray(z), params.tie_adjoint
    a = params._tensor(adjoint=True)
    cache = {"mode": params.mode, "masks": mask_set.masks, "a": a, "tied": tied}
    if params.mode == "dense":
        q, cache["zf"] = _matmul(z, a, adjoint=tied)
    else:  # the gain if there is one, then the inverse FFT
        if a is not None:
            cache["z"] = z
            z = (np.conj(a) if tied else a) * z
        q = ifft2_unitary(z)
    s = np.sum(mask_set.conj * q, axis=-3)
    return s, cache


def operator_adjoint_vjp(ds, cache, grad):
    """Pull ds (real or complex) back through W^H, adding the adjoint's
    cotangent into the gradient :class:`OperatorParams` ``grad`` (a tied
    one into the forward tensor); returns dz."""
    a, tied = cache["a"], cache["tied"]
    dq = cache["masks"] * ds[..., None, :, :]
    if cache["mode"] == "dense":
        dz, da = _matmul_vjp(dq, cache["zf"], a, adjoint=tied)
    else:
        dz = fft2_unitary(dq)
        if a is None:
            return dz
        da = _gain_grad(cache["z"], dz)
        da, dz = (np.conj(da), a * dz) if tied else (da, np.conj(a) * dz)
    grad._tensor(adjoint=True)[...] += da
    return dz


def measure(x, mask_set, alpha, rng):
    """Noisy magnitude measurements of a real image under the fixed operator.

    y = max(0, |F(d_j * x)| + w) with w ~ N(0, (alpha / 255) |F(d_j * x)|)
    per entry, so noise power scales with the local signal magnitude and
    alpha = 0 gives exact magnitudes.
    """
    if not 0 <= alpha < np.inf:
        raise ValueError("noise level must be finite and nonnegative, got %r" % (alpha,))
    z = fft2_unitary(_modulate(np.asarray(x, dtype=np.float64), mask_set.masks))
    mag = np.abs(z)
    sigma = np.sqrt((alpha / 255.0) * mag)
    noise = rng.normal(mag.size).reshape(mag.shape)
    values = np.maximum(mag + sigma * noise, 0.0)
    return MeasurementVector(values=values, alpha=float(alpha), mask_seed=mask_set.seed,
                             masks=mask_set.masks)
