"""Field primitives: unitary 2D FFTs and reproducible random streams.

Everything downstream works on float64 / complex128 arrays whose trailing
two axes are the spatial dimensions.  Spatial sizes are restricted to
powers of two so that the transform is always the clean radix-2 case and
round-trip error stays at the 1e-15 level.
"""

import numpy as np

# Stream domains for deriving independent random streams from one run seed.
# Train and test masks deliberately live in different domains so held-out
# measurements never reuse the training mask distribution.
STREAM_MASKS_TRAIN = 1
STREAM_MASKS_TEST = 2
STREAM_NOISE = 3
STREAM_INIT = 4
STREAM_SHUFFLE = 5
STREAM_SYNTH = 6

_MASK64 = 0xFFFFFFFFFFFFFFFF

# caps on stages K, channels c, masks J, height h and width w, for every
# size read from outside (checkpoint headers, manifests, the command line):
# a size beyond them is rejected before anything is allocated for it
FIELD_CAPS = {"K": 64, "c": 1024, "J": 64, "h": 4096, "w": 4096}
# cap on count x masks x height x width of a dataset read from a manifest:
# its measurement values and the masks they carry are that many entries each
DATASET_CAP = 2 ** 24
DENSE_SIZE_LIMIT = 4096  # cap on N = h x w of a dense operator's N x N matrices


def is_pow2(n):
    """True for 1, 2, 4, 8, ..."""
    n = int(n)
    return n >= 1 and (n & (n - 1)) == 0


def cap_error(name, value):
    """Why ``value`` is not a valid ``FIELD_CAPS`` field ``name``, or None.

    Every field lies in [1, cap]; h and w are also powers of two.
    """
    cap = FIELD_CAPS[name]
    if not 1 <= value <= cap:
        return "%s=%d outside [1, %d]" % (name, value, cap)
    if name in ("h", "w") and not is_pow2(value):
        return "%s=%d is not a power of two" % (name, value)
    return None


def dense_too_large(mode, h, w):
    """True for a dense operator on an h x w field beyond ``DENSE_SIZE_LIMIT``."""
    return mode == "dense" and h * w > DENSE_SIZE_LIMIT


def check_spatial_pow2(shape):
    """Validate that the trailing two axes of ``shape`` are powers of two."""
    if len(shape) < 2:
        raise ValueError("need at least two spatial axes, got shape %r" % (shape,))
    h, w = shape[-2], shape[-1]
    if not (is_pow2(h) and is_pow2(w)):
        raise ValueError("spatial size must be a power of two, got %dx%d" % (h, w))


def fft2_unitary(x):
    """Unitary 2D DFT over the last two axes (norm preserved exactly)."""
    x = np.asarray(x)
    check_spatial_pow2(x.shape)
    return np.fft.fft2(x, norm="ortho")


def ifft2_unitary(x):
    """Inverse of :func:`fft2_unitary`; also its adjoint."""
    x = np.asarray(x)
    check_spatial_pow2(x.shape)
    return np.fft.ifft2(x, norm="ortho")


def stream_id(domain, index=0):
    """Pack a (domain, index) pair into one 64-bit stream id."""
    return ((int(domain) & 0xFFFFFFFF) << 32) | (int(index) & 0xFFFFFFFF)


class SeededRng:
    """Deterministic random source keyed by (seed, stream).

    The same key reproduces the same draw sequence on any platform, and
    distinct streams under one seed are statistically independent, so a
    single run seed can be fanned out to masks, noise, weight init and
    shuffling without the streams colliding.  Backed by the counter-based
    Philox generator, which is exactly reproducible by construction.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, n):
        """n iid draws from U[0, 1) as a float64 vector."""
        return self._gen.uniform(size=int(n))

    def normal(self, n):
        """n iid draws from N(0, 1) as a float64 vector."""
        return self._gen.normal(size=int(n))

    def integers(self, low, high, n=None):
        """Integers from [low, high), scalar when n is None."""
        return self._gen.integers(low, high, size=n)

    def permutation(self, n):
        """A random permutation of range(n)."""
        return self._gen.permutation(int(n))


def derive_rng(seed, domain, index=0):
    """Child stream of a run seed, addressed by domain and index."""
    return SeededRng(seed, stream_id(domain, index))
