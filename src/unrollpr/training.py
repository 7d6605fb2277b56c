"""End-to-end training: loss, reverse-mode gradients, Adam, checkpoints.

Parameters, gradients and Adam moments each live in an arena: one float64
array per network, its tensors laid out one after the other in
``network.net_layout`` order, complex entries as interleaved real/imag
pairs, so complex parameters are optimized in real coordinates.  The
tensors, and the gradient and moment dicts keyed like
``NetParams.tensors()``, are views into their arenas.  Adam runs over the
arenas in cache-sized blocks, one chunk's gradients add to another's in
one sum, and a checkpoint record is a slice of an arena, so one declared
order drives the optimizer, the file format and the finite-difference
harness.

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
import multiprocessing
import os
import signal
import struct
import time
import traceback
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from . import cdp, metrics, network
from .datakit import atomic_write, stack_dataset
from .errors import FormatError, UnsupportedVersionError
from .field import FIELD_CAPS, STREAM_INIT, STREAM_SHUFFLE, cap_error, derive_rng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_DECAY = 0.95
LR_DECAY_EVERY = 2

CKPT_MAGIC = b"DLMM"
CKPT_VERSION = 2
_TRAILER_SIZE = {1: 8, 2: 32}  # readable versions -> digest bytes
_MODE_CODES = {"fixed": 0, "dense": 1, "structured": 2}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}
# magic, version, then K, c, J, h, w, mode code, flags
_HEADER = struct.Struct("<4s8I")
_KNOWN_FLAGS = 3
_COUNT = struct.Struct("<Q")  # the float count before each record
# a save joins records shorter than this many bytes into one buffer
_GATHER_BYTES = 1 << 16
# float64s of each array an Adam block touches: the block's arrays stay in cache
_ADAM_BLOCK = 1 << 15

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(data):
    """64-bit FNV-1a over a byte string (the version 1 checkpoint digest)."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


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
    """Gradient of the mean-squared loss w.r.t. every network tensor, as an
    arena laid out like the parameters (``network.net_backward_from_output``).

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
    """First/second moments per tensor, each an arena laid out like the
    parameters (real coordinates), plus the step count."""

    m: dict
    v: dict
    step: int = 0


def init_adam(params):
    return AdamState(m=network.Arena(params.arena.slots), v=network.Arena(params.arena.slots))


def _flat(params, tensors, what="", items=None):
    """``tensors.flat``, once ``items`` (name -> array, ``tensors`` by
    default) hold every tensor of ``params``' layout as a view into it;
    ValueError names the first one that is not."""
    slots = params.arena.slots
    if not isinstance(tensors, network.Arena):
        name = slots[0].name
    elif tensors.slots != slots:
        name = next(a or b for a, b in zip_longest(slots, tensors.slots) if a != b).name
    else:
        name = tensors.stale(items)
    if name is None:
        return tensors.flat
    raise ValueError("%s%s is not a view into an arena laid out like the network's: "
                     "rebound rather than written into, or of another network" % (name, what))


def _grad_flat(params, grads):
    """``grads`` as one array laid out like the parameter arena: its own
    arena when it is one, else a copy."""
    if isinstance(grads, network.Arena) and grads.slots == params.arena.slots \
            and grads.stale() is None:
        return grads.flat
    packed = network.Arena(params.arena.slots)
    for name, view in packed.items():
        g = np.asarray(grads.get(name))
        if g.dtype == object or g.shape != view.shape:
            raise ValueError("gradient for %s is missing or not shaped %r" % (name, view.shape))
        view[...] = g
    return packed.flat


def adam_update(params, grads, state, lr):
    """One Adam step, updating parameters in place.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;  bias-correct both;
    theta <- theta - lr * mhat / (sqrt(vhat) + eps).  Each coordinate is
    updated on its own, so the arenas go through in blocks that stay in
    cache.
    """
    p = _flat(params, params.arena, items=dict(params.tensors()))
    m, v = _flat(params, state.m, ".m"), _flat(params, state.v, ".v")
    g = _grad_flat(params, grads)
    state.step += 1
    k = state.step
    c1 = 1.0 - ADAM_BETA1 ** k
    c2 = 1.0 - ADAM_BETA2 ** k
    for i in range(0, p.size, _ADAM_BLOCK):
        s = slice(i, i + _ADAM_BLOCK)
        gb, mb, vb = g[s], m[s], v[s]
        mb *= ADAM_BETA1
        mb += (1.0 - ADAM_BETA1) * gb
        vb *= ADAM_BETA2
        vb += (1.0 - ADAM_BETA2) * gb * gb
        p[s] -= lr * (mb / c1) / (np.sqrt(vb / c2) + ADAM_EPS)
    return params, state


# ---------------------------------------------------------------------------
# schedule and config

@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 10
    lr: float = 1e-3
    seed: int = 0
    num_stages: int = 7
    channels: int = 32
    num_masks: int = 4
    mode: str = "structured"
    tie_adjoint: bool = False
    share_operator: bool = False
    threads: int = 1


def lr_schedule(epoch, config):
    """Stepped decay: lr * LR_DECAY^(epoch // LR_DECAY_EVERY), epoch from 0."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return config.lr * LR_DECAY ** (epoch // LR_DECAY_EVERY)


# ---------------------------------------------------------------------------
# chunks in worker processes
#
# Numpy's many short calls per stage hold the interpreter lock, so threads
# mostly take turns; the extra chunks of a step run in forked processes.
# A task carries everything it reads (the weights too) and a worker keeps
# nothing between tasks, so a worker can never compute with stale weights.
# Forked rather than spawned: a worker starts with the package imported and
# the caller's sys.path, at no import cost.  fork copies only the calling
# thread, so the pool assumes no other thread of the caller holds a lock
# the worker will need.

def _pool_size(tasks, threads, cpus):
    """Workers beside the parent: as many tasks at once as threads allows,
    never more processes than usable CPUs."""
    return max(0, min(tasks, threads, cpus) - 1)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(tasks, results, inherited):
    """Worker loop: run each ``(fn, args)`` from ``tasks``, reply in order.

    The forked worker first closes the parent's pipe ends it inherited, its
    own included: with no write end of its task pipe left open here, the
    parent's exit or death reaches it as EOF.
    """
    for conn in inherited:
        conn.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    while True:
        try:
            fn, args = tasks.recv()
        except EOFError:
            return
        try:
            reply = (True, fn(*args))
        except Exception as e:  # re-raised in the parent
            reply = (False, e, traceback.format_exc())
        try:
            results.send(reply)
        except OSError:  # the parent is gone
            return


class _Worker:
    """A forked process that runs the tasks sent to it one at a time."""

    def __init__(self, others):
        ctx = multiprocessing.get_context("fork")
        task_r, self.tasks = ctx.Pipe(duplex=False)
        self.results, result_w = ctx.Pipe(duplex=False)
        inherited = [self.tasks, self.results]
        for w in others:
            inherited += [w.tasks, w.results]
        self.process = ctx.Process(
            target=_serve, args=(task_r, result_w, inherited), daemon=True
        )
        self.process.start()
        task_r.close()
        result_w.close()

    def submit(self, fn, args):
        try:
            self.tasks.send((fn, args))
        except OSError:
            raise self._died() from None

    def result(self):
        try:
            ok, *reply = self.results.recv()
        except (EOFError, OSError):
            raise self._died() from None
        if ok:
            return reply[0]
        exc, tb = reply
        raise exc from RuntimeError("in worker pid %d:\n%s" % (self.process.pid, tb))

    def _died(self):
        self.process.join(1.0)
        return RuntimeError("worker process pid %d died (exit code %s)"
                            % (self.process.pid, self.process.exitcode))

    def close(self):
        self.tasks.close()
        self.results.close()
        self.process.terminate()
        self.process.join()


# the process's workers: started on first need, kept until the process exits
_WORKERS = []


def _pool(n):
    """``n`` live workers, started as needed; none where fork is missing."""
    if n <= 0 or "fork" not in multiprocessing.get_all_start_methods():
        return []
    for w in [w for w in _WORKERS if not w.process.is_alive()]:
        _WORKERS.remove(w)
        w.close()
    while len(_WORKERS) < n:
        _WORKERS.append(_Worker(_WORKERS))
    return _WORKERS[:n]


def _close_pool():
    while _WORKERS:
        _WORKERS.pop().close()


def _map(fn, arg_tuples, threads):
    """``[fn(*args) for args in arg_tuples]``, up to ``threads`` at a time.

    Tasks go out in groups of one per process: the parent computes the
    first of each group itself while the workers compute the rest.  Results
    come back in task order, so the outcome does not depend on which process
    ran a task.  ``threads == 1`` runs everything here and pickles nothing.
    """
    workers = _pool(_pool_size(len(arg_tuples), threads, _usable_cpus()))
    width = len(workers) + 1
    out = []
    try:
        for i in range(0, len(arg_tuples), width):
            group = arg_tuples[i:i + width]
            for w, args in zip(workers, group[1:]):
                w.submit(fn, args)
            out.append(fn(*group[0]))
            out += [w.result() for w in workers[:len(group) - 1]]
    except BaseException:
        _close_pool()  # no task may stay in flight into the next call
        raise
    return out


def _grads(net, images, ys, masks, batch_scale):
    """One chunk's summed squared error and its gradients.

    Overflow and NaN raise no numpy warning, here or in a worker process:
    the caller's finite-loss check reports a diverged step once.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x, tape = network.net_forward(ys, masks, net, record=True)
        sq = float(np.sum((x - images) ** 2))
        return sq, backward(tape, images, batch_scale=batch_scale)


def _chunk_grads(net, images, ys, masks, idx, batch_scale, threads):
    """Forward/backward over index chunks; index-ordered reduction."""
    step = max(threads, 1)
    chunks = [idx[i::step] for i in range(step) if len(idx[i::step])]
    results = _map(_grads, [
        (net, images[c], ys[c], masks[c], batch_scale) for c in chunks
    ], threads)
    grads = results[0][1]
    for _, g in results[1:]:  # fixed order: chunk 0, 1, ...
        grads.flat += g.flat
    n = images.shape[1] * images.shape[2]
    return sum(sq for sq, _ in results) / (batch_scale * n), grads


def _reconstruct(net, ys, masks):
    return network.net_forward(ys, masks, net)[0]


def forward_chunked(net, ys, masks, threads=1):
    """Reconstruct a stacked set, one forward task per block of
    ``network.block_size`` images, ``threads`` tasks at a time.

    Batch invariance keeps the output bit-identical to one whole-set call.
    """
    n = network.block_size(net)
    return np.concatenate(_map(_reconstruct, [
        (net, ys[i:i + n], masks[i:i + n]) for i in range(0, len(ys), n)
    ], threads))


def _csv_num(x):
    return repr(float(x))


def train(dataset, config, net=None, val_dataset=None, log_path=None):
    """Seeded mini-batch training; returns (params, per-epoch loss history).

    ``dataset`` is a list of (image, measurement) pairs whose measurements
    were generated by the fixed operator (:func:`cdp.measure`); each
    measurement's own masks are the ones the network reconstructs through,
    and ``val_dataset`` likewise.  Bit-deterministic for a given
    config and dataset at each thread count.  ``config.threads`` sets how
    many chunks each batch is split into (and how many run at once, the
    extra ones in worker processes), so the gradient sum order, and with it
    the result at rounding level, differs between thread counts.
    """
    net, history, _ = train_full(dataset, config, net, val_dataset, log_path)
    return net, history


def train_full(dataset, config, net=None, val_dataset=None, log_path=None):
    """Like :func:`train` but also returns the final optimizer state."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    images, ys, masks = stack_dataset(dataset)
    val_pack = stack_dataset(val_dataset) if val_dataset else None
    if val_pack:  # validation scores SSIM: fail before any epoch runs
        metrics.check_ssim_shape(val_pack[0].shape[1:])
    h, w = images.shape[1:]
    j = ys.shape[1]
    if net is None:
        net = network.init_net(
            h, w, num_stages=config.num_stages, channels=config.channels,
            num_masks=j, mode=config.mode, tie_adjoint=config.tie_adjoint,
            share_operator=config.share_operator,
            rng=derive_rng(config.seed, STREAM_INIT),
        )
    # validation runs this net: a set it cannot take fails before any epoch runs
    if val_pack and val_pack[1].shape[1:] != (net.num_masks, net.height, net.width):
        raise ValueError(
            "validation measurements are (J, h, w) = %r, the network takes (%d, %d, %d)"
            % (val_pack[1].shape[1:], net.num_masks, net.height, net.width))
    state = init_adam(net)
    shuffle_rng = derive_rng(config.seed, STREAM_SHUFFLE)
    history = []
    rows = []
    ns = len(dataset)
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        lr = lr_schedule(epoch, config)
        perm = shuffle_rng.permutation(ns)
        sq_sum = 0.0
        for step, i in enumerate(range(0, ns, config.batch_size), 1):
            idx = perm[i:i + config.batch_size]
            loss, grads = _chunk_grads(
                net, images, ys, masks, idx, len(idx), config.threads
            )
            bad = None if np.isfinite(loss) else "loss %r" % loss
            if bad is None and not np.isfinite(grads.flat @ grads.flat):
                # the first non-finite tensor; none if the square sum just overflowed
                bad = next(("gradient of " + name for name, g in grads.items()
                            if not np.isfinite(g).all()), None)
            if bad:  # before the update: the weights stay finite
                raise FloatingPointError(
                    "training diverged at epoch %d step %d: %s" % (epoch + 1, step, bad))
            sq_sum += loss * len(idx)
            with np.errstate(over="ignore", invalid="ignore"):
                adam_update(net, grads, state, lr)
        epoch_loss = sq_sum / ns
        history.append(epoch_loss)
        vp = vs = ""
        if val_pack:
            x = forward_chunked(net, val_pack[1], val_pack[2], config.threads)
            ps, ss = metrics.scores(x, val_pack[0])
            vp, vs = float(np.mean(ps)), float(np.mean(ss))
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
    for i, name in enumerate(FIELD_CAPS):  # K, c, J, h, w: the header's order
        err = cap_error(name, fields[i])
        if err:
            raise FormatError("header field " + err, offset=8 + 4 * i)
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


@lru_cache(maxsize=32)
def _records(slots):
    """The payload after the header as (arena, byte start, byte stop, name)
    per record: arena 0 holds the parameters, 1 and 2 the Adam moments m
    and v, whose records alternate per tensor, and 3 the step counter."""
    spans = [(8 * s.start, 8 * s.stop, s.name) for s in slots]
    return tuple((0,) + span for span in spans) + tuple(
        (i, a, b, name + what) for a, b, name in spans for i, what in ((1, ".m"), (2, ".v"))
    ) + ((3, 0, 8, "step counter"),)


def checkpoint_save(params, state, path):
    """Serialize network and optimizer state; bit-exact round trip.

    Raises ValueError, before any file is created, naming the first tensor
    of the network, or of ``state``'s moments, that is not laid out as the
    network's layout asks.
    """
    flags = (1 if params.tie_adjoint else 0) | (2 if params.share_operator else 0)
    head = _HEADER.pack(
        CKPT_MAGIC, CKPT_VERSION, params.num_stages, params.channels,
        params.num_masks, params.height, params.width, _MODE_CODES[params.mode], flags,
    )
    _check_header(head)  # never write a file that checkpoint_load rejects
    arenas = [memoryview(a.astype("<f8", copy=False)).cast("B") for a in (
        _flat(params, params.arena, items=dict(params.tensors())),
        _flat(params, state.m, ".m"), _flat(params, state.v, ".v"),
        np.array([state.step], float))]
    parts, run = [], [head]
    for i, a, b, _ in _records(params.arena.slots):
        run.append(_COUNT.pack((b - a) // 8))
        if b - a < _GATHER_BYTES:
            run.append(arenas[i][a:b])
        else:  # a long record goes out uncopied
            parts += (b"".join(run), arenas[i][a:b])
            run = []
    parts.append(b"".join(run))
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    atomic_write(path, parts + [digest.digest()])


def checkpoint_load(path):
    """Parse a version 1 or 2 checkpoint; returns (params, adam_state)."""
    with open(path, "rb") as f:
        version, k, c, j, h, w, mode, flags = _check_header(f.read(_HEADER.size))
        tie, share = bool(flags & 1), bool(flags & 2)
        slots = network.net_layout(h, w, k, c, mode, tie, share)
        # every slot is a record (u64 count plus its floats) for the parameter
        # and both Adam moments, then comes the one-float step counter
        expected = (_HEADER.size + 24 * (len(slots) + slots[-1].stop) + 16
                    + _TRAILER_SIZE[version])
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
    # every float is read: parameters, m, v and the step counter
    arenas = [np.empty(n, "<f8") for n in (slots[-1].stop,) * 3 + (1,)]
    bufs = [memoryview(a).cast("B") for a in arenas]
    pos = _HEADER.size
    for i, a, b, name in _records(slots):
        (count,) = _COUNT.unpack_from(body, pos)
        if 8 * count != b - a:
            raise FormatError(
                "tensor %s holds %d floats, expected %d" % (name, count, (b - a) // 8),
                offset=pos)
        bufs[i][a:b] = body[pos + 8:pos + 8 + b - a]
        pos += 8 + b - a
    p, m, v, (step,) = (a.astype(np.float64, copy=False) for a in arenas)
    # the digest catches corruption, not a crafted file; a float64 counts exactly
    # up to 2**53
    if not 0 <= step < 2 ** 53 or step % 1:
        raise FormatError("step counter %r is not a count" % float(step), offset=pos - 8)
    net = network.build_net(h, w, k, c, j, mode, tie, share, p)
    return net, AdamState(m=network.Arena(slots, m), v=network.Arena(slots, v), step=int(step))
