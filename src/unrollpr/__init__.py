"""Unrolled phase retrieval from coded diffraction patterns.

Magnitude-only measurements y = |Wx| + noise are inverted by a K-stage
unrolled network alternating a data-fidelity descent step with a learned
residual proximal projection.  The measurement operator itself (and an
independent adjoint) is trainable; gradients, the optimizer and all file
formats are implemented directly on numpy arrays.
"""

import ctypes

from .cdp import (
    MaskSet,
    MeasurementVector,
    OperatorParams,
    masks_from_seed,
    measure,
)
from .field import SeededRng, fft2_unitary, ifft2_unitary
from .metrics import psnr, ssim
from .network import (
    NetParams,
    StageParams,
    init_net,
    net_forward,
    soft_threshold,
)
from .training import (
    AdamState,
    TrainConfig,
    adam_update,
    backward,
    checkpoint_load,
    checkpoint_save,
    loss_mse,
    lr_schedule,
    train_full,
)

# glibc mallopt parameters (malloc.h) and the values set for them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_BYTES = 1 << 30  # free heap top kept: room for a freed 200-image recorded desk tape
_MMAP_BYTES = 32 << 20  # glibc's 64-bit ceiling; a 200-image recorded desk tape has ~14 MB arrays


def _keep_freed_memory():
    """Keep freed arrays on malloc's free lists instead of the kernel's.

    Every training step frees its whole forward tape.  Under
    glibc's dynamic thresholds the large arrays are mmap'd and the top of
    the heap is trimmed once they are freed, so the next step faults the
    same pages in again and the kernel zeroes each one.  Fixed thresholds
    (which also switch the dynamic adjustment off) serve arrays below
    ``_MMAP_BYTES`` from the heap and trim only past ``_TRIM_BYTES`` of free
    top.  Where libc has no ``mallopt`` (macOS, Windows) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)


_keep_freed_memory()

__version__ = "0.1.0"

__all__ = [
    "AdamState", "MaskSet", "MeasurementVector", "NetParams", "OperatorParams",
    "SeededRng", "StageParams", "TrainConfig", "adam_update", "backward",
    "checkpoint_load", "checkpoint_save", "fft2_unitary", "ifft2_unitary",
    "init_net", "loss_mse", "lr_schedule", "masks_from_seed", "measure",
    "net_forward", "psnr", "soft_threshold", "ssim", "train_full",
]
