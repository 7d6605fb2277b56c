"""End-to-end training: loss, reverse-mode gradients, Adam, checkpoints.

Complex parameters are optimized in real coordinates: every tensor exposes
a float64 view (real/imag interleaved for complex dtypes) and Adam moments
live in that flat real layout.  The gradient dict produced by ``backward``
is keyed exactly like ``NetParams.tensors()``, which walks
``network.net_layout``; the checkpoint format serializes the same layout,
so one declared order drives the optimizer, the file format and the
finite-difference harness.

Checkpoint container (all little-endian): magic "DLMM", u32 version 2,
u32 fields K, c, J, h, w, operator mode code (0 fixed / 1 dense /
2 structured), flags (bit0 adjoint tied, bit1 operator shared); then every
parameter tensor as a u64 float count plus raw float64 data in declared
order (complex stored as interleaved pairs); then per-tensor Adam moments
m, v in the same order; then the step counter as a one-float tensor; then
a 32-byte SHA-256 digest of all preceding bytes.  Version 1 files, whose
payload is identical but whose trailer is a u64 FNV-1a digest, are still
read; new files are always written as version 2.  The header alone fixes
the file length, so a load validates the header fields and the file size
before it hashes anything or allocates the network.
"""

import hashlib
import math
import os
import struct
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import cdp, metrics, network
from .datakit import atomic_write
from .errors import FormatError, UnsupportedVersionError
from .field import STREAM_INIT, STREAM_SHUFFLE, derive_rng, is_pow2

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CKPT_MAGIC = b"DLMM"
CKPT_VERSION = 2
_TRAILER_SIZE = {1: 8, 2: 32}  # readable versions -> digest bytes
_MODE_CODES = {"fixed": 0, "dense": 1, "structured": 2}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}
# magic, version, then K, c, J, h, w, mode code, flags
_HEADER = struct.Struct("<4s8I")
# caps on K, c, J, h, w; a header beyond them is rejected before any
# size arithmetic or allocation
_FIELD_CAPS = (("K", 64), ("c", 1024), ("J", 64), ("h", 4096), ("w", 4096))
_KNOWN_FLAGS = 3

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(data):
    """64-bit FNV-1a over a byte string (the version 1 checkpoint digest)."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _real_flat(a):
    """Float64 view of a tensor's real coordinates, flattened (no copy)."""
    a = np.ascontiguousarray(a)
    return a.view(np.float64).reshape(-1)


# ---------------------------------------------------------------------------
# loss and gradients

def loss_mse(batch_out, batch_truth):
    """Mean squared error over every pixel of every sample."""
    a = np.stack([np.asarray(v, dtype=np.float64) for v in batch_out]) \
        if isinstance(batch_out, (list, tuple)) else np.asarray(batch_out, dtype=np.float64)
    b = np.stack([np.asarray(v, dtype=np.float64) for v in batch_truth]) \
        if isinstance(batch_truth, (list, tuple)) else np.asarray(batch_truth, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty batch")
    if a.shape != b.shape:
        raise ValueError("shape mismatch %r vs %r" % (a.shape, b.shape))
    return float(np.mean((a - b) ** 2))


def backward(tape, truth, batch_scale=None):
    """Gradient of the mean-squared loss w.r.t. every network tensor.

    ``truth`` matches the tape's output shape.  ``batch_scale`` overrides
    the sample count in the loss normalization, which lets a batch be
    evaluated in chunks whose gradients sum to the full-batch gradient.
    """
    out = tape.output
    t = np.asarray(truth, dtype=np.float64)
    if t.ndim == 2:
        t = t[None]
    if t.shape != out.shape:
        raise ValueError("truth shape %r does not match tape %r" % (t.shape, out.shape))
    b = out.shape[0] if batch_scale is None else batch_scale
    dout = (2.0 / (b * out.shape[1] * out.shape[2])) * (out - t)
    grads, _ = network.net_backward_from_output(tape, dout)
    return grads


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    """First/second moments per tensor (real layout) plus the step count."""

    m: dict
    v: dict
    step: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS


def init_adam(params):
    m = {}
    v = {}
    for name, arr in params.tensors():
        n = _real_flat(arr).size
        m[name] = np.zeros(n)
        v[name] = np.zeros(n)
    return AdamState(m=m, v=v)


def adam_update(params, grads, state, lr):
    """One Adam step, updating parameters in place.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;  bias-correct both;
    theta <- theta - lr * mhat / (sqrt(vhat) + eps).
    """
    state.step += 1
    k = state.step
    c1 = 1.0 - state.beta1 ** k
    c2 = 1.0 - state.beta2 ** k
    for name, arr in params.tensors():
        g = grads.get(name)
        if g is None:
            raise ValueError("missing gradient for %s" % name)
        g = np.asarray(g)
        if g.shape != arr.shape:
            raise ValueError(
                "gradient shape %r does not match %s %r" % (g.shape, name, arr.shape)
            )
        gf = _real_flat(g)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * gf
        v *= state.beta2
        v += (1.0 - state.beta2) * gf * gf
        upd = lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        rv = arr.view(np.float64)
        rv[...] -= upd.reshape(rv.shape)
    return params, state


# ---------------------------------------------------------------------------
# schedule and config

@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 10
    lr: float = 1e-3
    decay: float = 0.95
    decay_every: int = 2
    seed: int = 0
    num_stages: int = 7
    channels: int = 32
    num_masks: int = 4
    mode: str = "structured"
    tie_adjoint: bool = False
    share_operator: bool = False
    threads: int = 1


def lr_schedule(epoch, config):
    """Stepped decay: lr * decay^(epoch // decay_every), epoch counted from 0."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return config.lr * config.decay ** (epoch // config.decay_every)


# ---------------------------------------------------------------------------
# training loop

def _stack_samples(dataset):
    """Manifest-ordered dataset -> stacked images, measurements, masks."""
    images = np.stack([np.asarray(img, dtype=np.float64) for img, _ in dataset])
    ys = np.stack([np.asarray(mv.values, dtype=np.float64) for _, mv in dataset])
    cache = {}
    masks = []
    for _, mv in dataset:
        key = mv.mask_seed
        if key not in cache:
            j, h, w = mv.values.shape
            cache[key] = cdp.masks_from_seed(key, j, h, w).masks
        masks.append(cache[key])
    return images, ys, np.stack(masks)


def _chunk_grads(net, images, ys, masks, idx, batch_scale, threads):
    """Forward/backward over index chunks; index-ordered reduction."""
    chunks = [idx] if threads <= 1 else [
        idx[i::threads] for i in range(threads) if len(idx[i::threads])
    ]

    def one(chunk):
        x, tape = network.net_forward(ys[chunk], masks[chunk], net)
        sq = float(np.sum((x - images[chunk]) ** 2))
        g = backward(tape, images[chunk], batch_scale=batch_scale)
        return sq, g

    if len(chunks) == 1:
        results = [one(chunks[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(one, chunks))
    total_sq = 0.0
    grads = None
    for sq, g in results:  # fixed order: chunk 0, 1, ...
        total_sq += sq
        if grads is None:
            grads = g
        else:
            for k in grads:
                grads[k] = grads[k] + g[k]
    n = images.shape[1] * images.shape[2]
    return total_sq / (batch_scale * n), grads


def _val_metrics(net, val_pack):
    images, ys, masks = val_pack
    x, _ = network.net_forward(ys, masks, net)
    ps = [metrics.psnr(x[i], images[i]) for i in range(len(images))]
    ss = [metrics.ssim(x[i], images[i]) for i in range(len(images))]
    return float(np.mean(ps)), float(np.mean(ss))


def _csv_num(x):
    return repr(float(x))


def train(dataset, config, net=None, val_dataset=None, log_path=None):
    """Seeded mini-batch training; returns (params, per-epoch loss history).

    ``dataset`` is a list of (image, measurement) pairs whose measurements
    were generated by the fixed operator.  Bit-deterministic for a given
    config and dataset when threads == 1.
    """
    net, history, _ = train_full(dataset, config, net, val_dataset, log_path)
    return net, history


def train_full(dataset, config, net=None, val_dataset=None, log_path=None):
    """Like :func:`train` but also returns the final optimizer state."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    images, ys, masks = _stack_samples(dataset)
    h, w = images.shape[1:]
    j = ys.shape[1]
    if net is None:
        net = network.init_net(
            h, w, num_stages=config.num_stages, channels=config.channels,
            num_masks=j, mode=config.mode, tie_adjoint=config.tie_adjoint,
            share_operator=config.share_operator,
            rng=derive_rng(config.seed, STREAM_INIT),
        )
    state = init_adam(net)
    shuffle_rng = derive_rng(config.seed, STREAM_SHUFFLE)
    val_pack = _stack_samples(val_dataset) if val_dataset else None
    history = []
    rows = []
    ns = len(dataset)
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        lr = lr_schedule(epoch, config)
        perm = shuffle_rng.permutation(ns)
        sq_sum = 0.0
        for i in range(0, ns, config.batch_size):
            idx = perm[i:i + config.batch_size]
            loss, grads = _chunk_grads(
                net, images, ys, masks, idx, len(idx), config.threads
            )
            sq_sum += loss * len(idx)
            adam_update(net, grads, state, lr)
        epoch_loss = sq_sum / ns
        history.append(epoch_loss)
        if not np.isfinite(epoch_loss):
            raise FloatingPointError("training diverged at epoch %d" % (epoch + 1))
        vp, vs = _val_metrics(net, val_pack) if val_pack else ("", "")
        seconds = time.perf_counter() - t0
        rows.append((epoch + 1, lr, epoch_loss, vp, vs, seconds))
    if log_path is not None:
        lines = ["epoch,lr,train_loss,val_psnr,val_ssim,seconds"]
        for ep, lr, ls, vp, vs, sec in rows:
            lines.append(",".join([
                str(ep), _csv_num(lr), _csv_num(ls),
                _csv_num(vp) if vp != "" else "",
                _csv_num(vs) if vs != "" else "",
                _csv_num(sec),
            ]))
        atomic_write(log_path, ("\n".join(lines) + "\n").encode("utf-8"))
    return net, history, state


# ---------------------------------------------------------------------------
# checkpoints

def _check_header(head):
    """Validate a header; returns (version, K, c, J, h, w, mode, flags).

    Every rejection is a FormatError at the offending field's offset.
    """
    if head[:4] != CKPT_MAGIC:
        raise FormatError("bad magic, not a checkpoint", offset=0)
    if len(head) < 8:
        raise FormatError("truncated header", offset=len(head))
    (version,) = struct.unpack_from("<I", head, 4)
    if version not in _TRAILER_SIZE:
        raise UnsupportedVersionError(
            "checkpoint version %d, can read 1 and %d" % (version, CKPT_VERSION),
            offset=4,
        )
    if len(head) < _HEADER.size:
        raise FormatError("truncated header", offset=len(head))
    _, _, *fields = _HEADER.unpack_from(head)
    k, c, j, h, w, mode_code, flags = fields
    for i, (name, cap) in enumerate(_FIELD_CAPS):
        if not 1 <= fields[i] <= cap:
            raise FormatError(
                "header field %s=%d outside [1, %d]" % (name, fields[i], cap),
                offset=8 + 4 * i,
            )
    for name, value, offset in (("h", h, 20), ("w", w, 24)):
        if not is_pow2(value):
            raise FormatError(
                "header field %s=%d is not a power of two" % (name, value), offset=offset
            )
    if mode_code not in _MODE_NAMES:
        raise FormatError("unknown operator mode code %d" % mode_code, offset=28)
    if flags & ~_KNOWN_FLAGS:
        raise FormatError("unknown flag bits 0x%x" % flags, offset=32)
    mode = _MODE_NAMES[mode_code]
    if mode == "dense" and h * w > cdp.DENSE_SIZE_LIMIT:
        raise FormatError(
            "dense operator of %dx%d exceeds %d entries" % (h, w, cdp.DENSE_SIZE_LIMIT),
            offset=20,
        )
    return version, k, c, j, h, w, mode, flags


def _floats(shape, dtype):
    """Float64 count of a stored tensor (complex entries are two floats)."""
    return math.prod(shape) * dtype.itemsize // 8


def _file_size(version, layout):
    """Exact checkpoint length implied by a validated header's layout.

    Every ``network.net_layout`` entry is a record (u64 count plus its
    floats) three times: the parameter, then the two Adam moments.
    """
    tensors = sum(8 + 8 * _floats(shape, dtype) for _, _, shape, dtype in layout)
    # params, then m and v per tensor, then the one-float step counter
    return _HEADER.size + 3 * tensors + 16 + _TRAILER_SIZE[version]


def _pieces(params, state):
    """The version 2 payload as byte buffers, without copying tensor data."""
    flags = (1 if params.tie_adjoint else 0) | (2 if params.share_operator else 0)
    head = _HEADER.pack(
        CKPT_MAGIC, CKPT_VERSION, params.num_stages, params.channels,
        params.num_masks, params.height, params.width, _MODE_CODES[params.mode], flags,
    )
    _check_header(head)  # never write a file that checkpoint_load rejects
    yield head
    arrays = [arr for _, arr in params.tensors()]
    for name, _ in params.tensors():
        arrays += [state.m[name], state.v[name]]
    arrays.append(np.array(float(state.step)))
    for a in arrays:
        flat = _real_flat(a).astype("<f8", copy=False)
        yield struct.pack("<Q", flat.size)
        yield memoryview(flat).cast("B")


def checkpoint_save(params, state, path):
    """Serialize network and optimizer state; bit-exact round trip."""
    digest = hashlib.sha256()

    def chunks():
        for piece in _pieces(params, state):
            digest.update(piece)
            yield piece
        yield digest.digest()

    atomic_write(path, chunks())


def checkpoint_load(path):
    """Parse a version 1 or 2 checkpoint; returns (params, adam_state)."""
    with open(path, "rb") as f:
        version, k, c, j, h, w, mode, flags = _check_header(f.read(_HEADER.size))
        tie, share = bool(flags & 1), bool(flags & 2)
        layout = network.net_layout(h, w, k, c, mode, tie, share)
        expected = _file_size(version, layout)
        actual = os.fstat(f.fileno()).st_size
        if actual != expected:
            raise FormatError(
                "checkpoint is %d bytes, its header implies %d" % (actual, expected),
                offset=min(actual, expected),
            )
        f.seek(0)
        data = memoryview(f.read(expected))
    digest_at = expected - _TRAILER_SIZE[version]
    body = data[:digest_at]
    if version == 1:
        computed = struct.pack("<Q", fnv1a64(body))
    else:
        computed = hashlib.sha256(body).digest()
    if data[digest_at:] != computed:
        raise FormatError("digest mismatch, file corrupted", offset=digest_at)
    pos = _HEADER.size

    def take(what, n):
        """Copy the next (u64 count, float64 data) record out of the body."""
        nonlocal pos
        (count,) = struct.unpack_from("<Q", body, pos)
        if count != n:
            raise FormatError(
                "tensor %s holds %d floats, expected %d" % (what, count, n), offset=pos
            )
        flat = np.frombuffer(body, "<f8", n, pos + 8).astype(np.float64)
        pos += 8 + 8 * n
        return flat

    def fill(stage, path, shape, dtype):
        what = "stage%d.%s" % (stage, path)
        return take(what, _floats(shape, dtype)).view(dtype).reshape(shape)

    net = network.build_net(h, w, k, c, j, mode, tie, share, fill)
    m, v = {}, {}
    for name, arr in net.tensors():
        m[name] = take(name + ".m", arr.nbytes // 8)
        v[name] = take(name + ".v", arr.nbytes // 8)
    step = take("step counter", 1)
    return net, AdamState(m=m, v=v, step=int(step[0]))
