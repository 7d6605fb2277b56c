"""Coded-diffraction measurement operators with a learnable spectral stage.

A measurement stacks J channels.  Channel j modulates the image by a random
unit-modulus mask d_j and pushes it through a spectral transform T:

    (W x)_j = T (d_j * x)

Three transform modes are supported:

* ``fixed``       T is the unitary 2D DFT; no trainable part.
* ``structured``  T = diag(g) F with a per-frequency complex gain g, so the
                  transform stays O(N log N) and holds 2N real parameters.
* ``dense``       T is a full N x N complex matrix acting on the flattened
                  image (initialized to the DFT matrix); quadratic storage,
                  guarded to N <= 4096.

The adjoint map carries its own gain / matrix (initialized to the true
adjoint) unless ``tie_adjoint`` is set, in which case it is recomputed from
the forward parameters every call and the two stay exactly adjoint.

Gradients follow the convention  vbar = dL/dRe(v) + i dL/dIm(v)  for complex
intermediates, which makes every complex-linear map M pull back as M^H.
Each operator comes as a ``*_fwd`` / ``*_vjp`` pair; the forward returns a
cache that the vjp consumes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import SeededRng, check_spatial_pow2, fft2_unitary, ifft2_unitary

DENSE_SIZE_LIMIT = 4096  # dense transforms store N^2 complex entries


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

    @property
    def num_masks(self):
        return self.masks.shape[0]

    @property
    def shape(self):
        return self.masks.shape[1:]


@dataclass
class MeasurementVector:
    """Magnitude measurements (J, h, w) with their noise level and mask key."""

    values: np.ndarray
    alpha: float
    mask_seed: int = None


def make_cdp_masks(rng, num_masks, h, w):
    """Draw masks exp(i theta), theta ~ U[0, 2 pi), one field per channel.

    The set records ``rng.seed`` as its rebuild key only when the rng is on
    stream 0, the convention :func:`masks_from_seed` uses; a set drawn from
    some other stream cannot be rebuilt from one integer.
    """
    if num_masks < 1:
        raise ValueError("need at least one mask, got %d" % num_masks)
    check_spatial_pow2((h, w))
    theta = 2.0 * np.pi * rng.uniform(num_masks * h * w).reshape(num_masks, h, w)
    seed = rng.seed if rng.stream == 0 else None
    return MaskSet(masks=np.exp(1j * theta), seed=seed)


def masks_from_seed(seed, num_masks, h, w):
    """Rebuild the mask set identified by one integer seed."""
    return make_cdp_masks(SeededRng(seed, 0), num_masks, h, w)


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


def operator_layout(mode, h, w, tie_adjoint=False):
    """Stored operator tensors as (attribute, shape, dtype), forward first.

    A tied adjoint is derived from the forward side, so it is not stored.
    """
    if mode not in _TRANSFORMS:
        raise ValueError("unknown operator mode %r" % mode)
    names, shape, _ = _TRANSFORMS[mode]
    if names:
        check_spatial_pow2((h, w))
    if mode == "dense" and h * w > DENSE_SIZE_LIMIT:
        raise ValueError(
            "dense transform needs %d^2 complex entries; limit is %d^2"
            % (h * w, DENSE_SIZE_LIMIT)
        )
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
        """The operator of ``mode`` at its initial value (stored tensors only)."""
        names = [name for name, _, _ in operator_layout(mode, h, w, tie_adjoint)]
        init = _TRANSFORMS[mode][2](h, w) if names else ()
        return OperatorParams(mode=mode, tie_adjoint=tie_adjoint, **dict(zip(names, init)))

    @staticmethod
    def fixed():
        return OperatorParams(mode="fixed")

    @staticmethod
    def structured(h, w, tie_adjoint=False):
        """Identity gains: starts out exactly equal to the fixed operator."""
        return OperatorParams.initial("structured", h, w, tie_adjoint)

    @staticmethod
    def dense(h, w, tie_adjoint=False):
        """Full-matrix transform seeded at the DFT matrix."""
        return OperatorParams.initial("dense", h, w, tie_adjoint)


def _modulate(x, masks):
    # (..., h, w) -> (..., J, h, w)
    return masks * x[..., None, :, :]


def _mask_set(mask_set):
    """A MaskSet as is; a raw (..., J, h, w) mask array wrapped in one.

    Passing the same MaskSet to several calls conjugates its masks once.
    """
    if isinstance(mask_set, MaskSet):
        return mask_set
    return MaskSet(np.asarray(mask_set))


def operator_apply_fwd(x, mask_set, params):
    """W x for a real or complex field x of shape (..., h, w).

    Returns (z, cache) with z of shape (..., J, h, w).  ``mask_set`` may be
    a MaskSet or a raw (..., J, h, w) array (batched per-sample masks).
    """
    ms = _mask_set(mask_set)
    u = _modulate(np.asarray(x), ms.masks)
    if params.mode == "fixed":
        z = fft2_unitary(u)
        cache = {"mode": "fixed", "conj_masks": ms.conj}
    elif params.mode == "structured":
        f = fft2_unitary(u)
        z = params.gain * f
        cache = {"mode": "structured", "conj_masks": ms.conj, "gain": params.gain, "f": f}
    elif params.mode == "dense":
        lead = u.shape[:-2]
        n = u.shape[-2] * u.shape[-1]
        uf = u.reshape(lead + (n,))
        z = (uf @ params.mat.T).reshape(u.shape)
        cache = {"mode": "dense", "conj_masks": ms.conj, "mat": params.mat, "uf": uf}
    else:
        raise ValueError("unknown operator mode %r" % params.mode)
    return z, cache


def operator_apply(x, mask_set, params):
    z, _ = operator_apply_fwd(x, mask_set, params)
    return z


def operator_apply_vjp(dz, cache):
    """Pull dz back through W.  Returns (dx, grads).

    dx is the complex cotangent of x (take .real when x was real);
    grads maps parameter names ("gain" or "mat") to their cotangents.
    """
    grads = {}
    if cache["mode"] == "fixed":
        du = ifft2_unitary(dz)
    elif cache["mode"] == "structured":
        df = np.conj(cache["gain"]) * dz
        grads["gain"] = np.sum(
            np.conj(cache["f"]) * dz, axis=tuple(range(dz.ndim - 2))
        )
        du = ifft2_unitary(df)
    else:  # dense
        lead = dz.shape[:-2]
        n = dz.shape[-2] * dz.shape[-1]
        dzf = dz.reshape(lead + (n,))
        uf = cache["uf"]
        # sum of outer products over all leading axes
        grads["mat"] = dzf.reshape(-1, n).T @ np.conj(uf.reshape(-1, n))
        du = (dzf @ np.conj(cache["mat"])).reshape(dz.shape)
    dx = np.sum(cache["conj_masks"] * du, axis=-3)
    return dx, grads


def _adjoint_transform(params):
    """Effective adjoint-side gain or matrix, honoring tie_adjoint."""
    if params.mode == "structured":
        return np.conj(params.gain) if params.tie_adjoint else params.adj_gain
    if params.mode == "dense":
        return params.mat.conj().T if params.tie_adjoint else params.adj_mat
    return None


def operator_adjoint_fwd(z, mask_set, params):
    """W^H z (learned adjoint) for z of shape (..., J, h, w).

    Returns (s, cache) with s of shape (..., h, w), complex.
    """
    ms = _mask_set(mask_set)
    d = ms.masks
    z = np.asarray(z)
    if params.mode == "fixed":
        q = ifft2_unitary(z)
        cache = {"mode": "fixed", "masks": d}
    elif params.mode == "structured":
        a = _adjoint_transform(params)
        wv = a * z
        q = ifft2_unitary(wv)
        cache = {
            "mode": "structured",
            "masks": d,
            "adj": a,
            "z": z,
            "tied": params.tie_adjoint,
        }
    elif params.mode == "dense":
        a = _adjoint_transform(params)
        lead = z.shape[:-2]
        n = z.shape[-2] * z.shape[-1]
        zf = z.reshape(lead + (n,))
        q = (zf @ a.T).reshape(z.shape)
        cache = {
            "mode": "dense",
            "masks": d,
            "adj": a,
            "zf": zf,
            "tied": params.tie_adjoint,
        }
    else:
        raise ValueError("unknown operator mode %r" % params.mode)
    s = np.sum(ms.conj * q, axis=-3)
    return s, cache


def operator_adjoint(z, mask_set, params):
    s, _ = operator_adjoint_fwd(z, mask_set, params)
    return s


def operator_adjoint_vjp(ds, cache):
    """Pull ds back through W^H.  Returns (dz, grads).

    ds may be real or complex.  With tie_adjoint the adjoint-side
    cotangent is re-expressed on the forward parameters, so grads again
    uses the "gain" / "mat" keys.
    """
    d = cache["masks"]
    dq = d * ds[..., None, :, :]
    grads = {}
    if cache["mode"] == "fixed":
        dz = fft2_unitary(dq)
    elif cache["mode"] == "structured":
        dw = fft2_unitary(dq)
        dz = np.conj(cache["adj"]) * dw
        ga = np.sum(np.conj(cache["z"]) * dw, axis=tuple(range(dw.ndim - 2)))
        if cache["tied"]:
            grads["gain"] = np.conj(ga)
        else:
            grads["adj_gain"] = ga
    else:  # dense
        lead = dq.shape[:-2]
        n = dq.shape[-2] * dq.shape[-1]
        dqf = dq.reshape(lead + (n,))
        zf = cache["zf"]
        ma = dqf.reshape(-1, n).T @ np.conj(zf.reshape(-1, n))
        if cache["tied"]:
            grads["mat"] = ma.conj().T
        else:
            grads["adj_mat"] = ma
        dz = (dqf @ np.conj(cache["adj"])).reshape(dq.shape)
    return dz, grads


def measure(x, mask_set, alpha, rng):
    """Noisy magnitude measurements of a real image under the fixed operator.

    y = max(0, |F(d_j * x)| + w) with w ~ N(0, (alpha / 255) |F(d_j * x)|)
    per entry, so noise power scales with the local signal magnitude and
    alpha = 0 gives exact magnitudes.
    """
    if alpha < 0:
        raise ValueError("noise level must be nonnegative, got %r" % (alpha,))
    z = fft2_unitary(_modulate(np.asarray(x, dtype=np.float64), mask_set.masks))
    mag = np.abs(z)
    sigma = np.sqrt((alpha / 255.0) * mag)
    noise = rng.normal(mag.size).reshape(mag.shape)
    values = np.maximum(mag + sigma * noise, 0.0)
    return MeasurementVector(values=values, alpha=float(alpha), mask_seed=mask_set.seed)
