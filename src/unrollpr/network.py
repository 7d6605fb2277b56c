"""The unrolled reconstruction network.

K stages, each a magnitude-fidelity descent step followed by a residual
proximal projection:

    r = Re[ x - t * W^H( Wx - y * phase(Wx) ) ]      (data fidelity)
    x = r + syn( soft( ana(r), tau ) )               (proximal projection)

``ana`` (3x3 conv 1->c, ReLU, 3x3 conv c->c) lifts the image to a feature
space where soft-thresholding acts as the sparsity prox, and ``syn``
(c->c, ReLU, c->1) maps back.  tau = softplus(thresh_raw) keeps the
threshold positive while training it unconstrained.  The step size,
threshold, both transforms and the measurement operator pair are all
per-stage parameters, untied across stages unless asked otherwise.

Each stage block is a (forward, vjp) pair sharing a cache: ``sgd_step_fwd``
/ ``sgd_step_bwd`` and ``ppm_fwd`` / ``ppm_bwd``, batched over (B, h, w)
images.  Each VJP adds its parameter cotangents into its stage of a zero
network built like the parameters and returns the input cotangent.
``net_forward`` takes one input form, a stacked (B, J, h, w) batch.  With
``record=True`` it records a per-stage tape that the training module walks
backwards; without ``record`` (inference) no cache outlives its stage, and
the stages run over blocks of :func:`block_size` images, small enough to
stay in cache.  That block is also the task that ``training.forward_chunked``
hands to each process.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import attrgetter

import numpy as np

from . import cdp
from .conv import conv2d_bwd, conv2d_fwd, rows, xavier_conv_weight
from .field import SeededRng

PHASE_EPS = 1e-12

# thresh_raw value whose softplus is 0.5
THRESH_RAW_INIT = float(np.log(np.expm1(0.5)))
STEP_SIZE_INIT = 0.01

_REAL = np.dtype(np.float64)
_STACK = ("w1", "b1", "w2", "b2")  # ConvStack field order

# bytes of one block's stage arrays, small enough to stay in cache
_BLOCK_BYTES = 3 << 19


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def soft_threshold(z, tau, out=None):
    """sign(z) * max(|z| - tau, 0); the prox of tau*||.||_1.

    Computed as z - clip(z, -tau, tau), which gives the same values up to
    the sign of zero; ``out`` may be ``z`` itself.
    """
    if tau < 0:
        raise ValueError("threshold must be nonnegative, got %r" % (tau,))
    z = np.asarray(z)
    return np.subtract(z, np.clip(z, -tau, tau), out=out)


@dataclass
class ConvStack:
    """Weights of one conv -> ReLU -> conv block."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class StageParams:
    """All learnables of one unrolled stage."""

    step_size: np.ndarray  # () float64, t
    thresh_raw: np.ndarray  # () float64, tau = softplus(thresh_raw)
    op: cdp.OperatorParams  # measurement operator and its learned adjoint
    ana: ConvStack  # image -> feature analysis transform
    syn: ConvStack  # feature -> image synthesis transform


# where a stored tensor lives: its name "stage<k>.<path>", its stage, the
# attribute path there ("ana.w1", "op.gain"), and float64s [start, stop) of an
# arena, complex entries as interleaved (real, imag) pairs
Slot = namedtuple("Slot", "name stage path shape dtype start stop")


class Arena(dict):
    """Name -> tensor for every :class:`Slot` of ``slots``, each a view into
    the one float64 array ``flat`` (zeros when not given).  An entry rebound
    to another array has left ``flat``; :meth:`stale` names it.  An arena
    pickles as one buffer."""

    def __init__(self, slots, flat=None):
        self.slots = slots
        self.flat = np.zeros(slots[-1].stop) if flat is None else flat
        self.views = tuple(np.ndarray(s.shape, s.dtype, self.flat, 8 * s.start) for s in slots)
        super().__init__(zip((s.name for s in slots), self.views))

    def __reduce__(self):
        return Arena, (self.slots, self.flat)

    def stale(self, tensors=None):
        """Name of the first slot whose tensor in ``tensors`` (name -> array,
        this arena by default) is not its view here, or None."""
        tensors = self if tensors is None else tensors
        for slot, view in zip(self.slots, self.views):
            if tensors.get(slot.name) is not view:
                return slot.name
        return None


@dataclass
class NetParams:
    """Full network: stage list plus the shape/mode contract.

    Every stored tensor is a view into ``arena.flat``, the one parameter
    array: write into the tensors, do not rebind them.
    """

    height: int
    width: int
    num_masks: int
    channels: int
    mode: str
    tie_adjoint: bool = False
    share_operator: bool = False
    stages: list = dc_field(default_factory=list)
    arena: Arena = dc_field(default=None, repr=False, compare=False)

    @property
    def num_stages(self):
        return len(self.stages)

    def __reduce__(self):
        """Pickles as the header fields and the one parameter array."""
        return build_net, (self.height, self.width, self.num_stages, self.channels,
                           self.num_masks, self.mode, self.tie_adjoint,
                           self.share_operator, self.arena.flat)

    def tensors(self):
        """Yield (slot name, array) for every :func:`net_layout` slot, as
        the stages hold it.

        Derived tensors (tied adjoints) and shared operators beyond stage 0
        are not stored, so they are not emitted.
        """
        for name, k, get in _getters(self.arena.slots):
            yield name, get(self.stages[k])


@lru_cache(maxsize=32)
def _getters(slots):
    """(name, stage, getter of its path) for every slot of a layout."""
    return tuple((s.name, s.stage, attrgetter(s.path)) for s in slots)


@lru_cache(maxsize=32)
def net_layout(h, w, num_stages, channels, mode, tie_adjoint=False, share_operator=False):
    """Every stored tensor as a :class:`Slot`, in checkpoint order.

    Per stage: step size, threshold, the analysis (1->c->c) and synthesis
    (c->c->1) conv stacks, then the operator tensors of
    ``cdp.operator_layout`` (stage 0 only when the operator is shared).
    This single order drives the builder, the optimizer, the gradient
    layout and the checkpoint format; the slots follow one another in an
    arena.
    """
    c = channels
    stage = [("step_size", (), _REAL), ("thresh_raw", (), _REAL)]
    for blk, c_in, c_out in (("ana", 1, c), ("syn", c, 1)):
        shapes = ((c, c_in, 3, 3), (c,), (c_out, c, 3, 3), (c_out,))
        stage += [(blk + "." + name, shape, _REAL) for name, shape in zip(_STACK, shapes)]
    op = [("op." + name, shape, dtype)
          for name, shape, dtype in cdp.operator_layout(mode, h, w, tie_adjoint)]
    slots, pos = [], 0
    for k in range(num_stages):
        for path, shape, dtype in (stage + op if k == 0 or not share_operator else stage):
            n = math.prod(shape) * dtype.itemsize // 8
            slots.append(Slot("stage%d.%s" % (k, path), k, path, shape, dtype, pos, pos + n))
            pos += n
    return tuple(slots)


def build_net(h, w, num_stages, channels, num_masks, mode, tie_adjoint,
              share_operator, flat=None):
    """Network whose stored tensors are views into one parameter arena.

    ``flat`` holds their values in :func:`net_layout` order (zeros when
    None); a shared operator is stored at stage 0 and reused by the later
    stages.
    """
    net = NetParams(
        height=h, width=w, num_masks=num_masks, channels=channels, mode=mode,
        tie_adjoint=tie_adjoint, share_operator=share_operator,
    )
    net.arena = Arena(net_layout(h, w, num_stages, channels, mode, tie_adjoint,
                                 share_operator), flat)
    blank = [None] * len(_STACK)
    for k in range(num_stages):
        op = net.stages[0].op if share_operator and k > 0 else \
            cdp.OperatorParams(mode=mode, tie_adjoint=tie_adjoint)
        net.stages.append(StageParams(None, None, op, ConvStack(*blank), ConvStack(*blank)))
    for slot, view in zip(net.arena.slots, net.arena.views):
        stage = net.stages[slot.stage]
        owner, _, attr = slot.path.rpartition(".")  # "ana.w1" sets stage.ana.w1
        setattr(attrgetter(owner)(stage) if owner else stage, attr, view)
    return net


def init_net(h, w, num_stages=7, channels=32, num_masks=4, mode="structured",
             tie_adjoint=False, share_operator=False, rng=None):
    """Fresh network: Xavier conv weights, zero biases, t=0.01, tau=0.5 and
    the operator at its initial value (``cdp.OperatorParams.initial``)."""
    if num_stages < 1:
        raise ValueError("need at least one stage, got %d" % num_stages)
    if rng is None:
        rng = SeededRng(0)
    scalars = {"step_size": STEP_SIZE_INIT, "thresh_raw": THRESH_RAW_INIT}
    op = cdp.OperatorParams.initial(mode, h, w, tie_adjoint)
    net = build_net(h, w, num_stages, channels, num_masks, mode, tie_adjoint,
                    share_operator)
    for slot, arr in zip(net.arena.slots, net.arena.views):
        if slot.path.startswith("op."):
            arr[...] = getattr(op, slot.path[3:])
        elif len(slot.shape) == 4:  # conv weight (c_out, c_in, 3, 3)
            arr[...] = xavier_conv_weight(rng, slot.shape[0], slot.shape[1])
        else:  # scalars, zero biases
            arr[...] = scalars.get(slot.path, 0.0)
    return net


# ---------------------------------------------------------------------------
# data-fidelity step

def sgd_step_fwd(x, stage, y, masks):
    """One descent step on the magnitude-fit objective, batched (B, h, w)."""
    z, op_cache = cdp.operator_apply_fwd(x, masks, stage.op)
    mag = np.abs(z)
    safe = np.maximum(mag, PHASE_EPS)
    ph = z * (1.0 / safe)  # z / safe bit for bit, without a complex division
    fit = np.divide(y, safe, out=safe)
    resid = z * np.subtract(1.0, fit, out=fit)  # z - y * ph
    s, adj_cache = cdp.operator_adjoint_fwd(resid, masks, stage.op)
    t = float(stage.step_size)
    s_re = s.real
    r = x - t * s_re
    cache = {
        "op": op_cache, "adj": adj_cache, "mag": mag, "ph": ph,
        "y": y, "s_re": s_re, "t": t,
    }
    return r, cache


def sgd_step_bwd(dr, cache, g):
    """Adds the step size and operator cotangents into gradient stage ``g``; returns dx."""
    g.step_size -= np.sum(dr * cache["s_re"])
    dz, adj = cdp.operator_adjoint_vjp(-cache["t"] * dr, cache["adj"])
    # resid = z - y * phase(z), phase(z) = z / max(|z|, eps).  Above eps the
    # phase pulls dph = -y * dresid back to 1j * ph * Im(conj(dph) * ph) / |z|,
    # i.e. dz += 1j * ph * c with real c = y * Im(conj(dresid) * ph) / |z|;
    # at or below eps the phase is linear and dz += dph / eps.
    ph, mag, y = cache["ph"], cache["mag"], cache["y"]
    small = mag <= PHASE_EPS
    dres_small, y_small = dz[small], y[small]
    re, im = dz.real, dz.imag  # views: dz is a fresh array, updated in place
    c = re * ph.imag
    c -= im * ph.real
    c *= y
    c /= np.maximum(mag, PHASE_EPS)
    re -= ph.imag * c
    im += ph.real * c
    dz[small] = dres_small + (-y_small * dres_small) / PHASE_EPS
    dxc, fwd = cdp.operator_apply_vjp(dz, cache["op"])
    for name, v in fwd.items():  # a tied adjoint's cotangent is on the same key:
        adj[name] = np.add(adj[name], v, out=adj[name]) if name in adj else v  # summed first
    for name, v in adj.items():
        getattr(g.op, name)[...] += v
    return dr + dxc.real


# ---------------------------------------------------------------------------
# learned transforms and the proximal projection

def _stack_fwd(x4, blk):
    c1, k1 = conv2d_fwd(x4, blk.w1, blk.b1)
    a1 = rows(c1)
    np.maximum(a1, 0.0, out=a1)  # in place: only the ReLU output is kept
    z2, k2 = conv2d_fwd(c1, blk.w2, blk.b2)
    return z2, (k1, k2)


def _stack_bwd(dz2, cache, g):
    k1, k2 = cache
    da1, dw2, db2 = conv2d_bwd(dz2, k2)
    dc1 = rows(da1)
    np.multiply(dc1, rows(k2[0]) > 0, out=dc1)  # relu(c) > 0 exactly where c > 0
    dx4, dw1, db1 = conv2d_bwd(da1, k1)
    g.w1 += dw1
    g.b1 += db1
    g.w2 += dw2
    g.b2 += db2
    return dx4


def ppm_fwd(r, stage):
    """Residual prox step, batched (B, h, w).

    The codes are shrunk in place, so the cache holds only the shrunk codes
    (``cache["shrunk"]``).  For |code| > tau the shrunk value is nonzero
    exactly, so the live-code fraction is the share of ``shrunk != 0``.
    """
    code, ana_cache = _stack_fwd(r[:, None], stage.ana)
    tau = float(softplus(stage.thresh_raw))
    soft_threshold(rows(code), tau, out=rows(code))  # 0 stays 0 in the pads
    out4, syn_cache = _stack_fwd(code, stage.syn)
    x = r + out4[:, 0]
    cache = {
        "ana": ana_cache, "syn": syn_cache, "shrunk": code, "tau": tau,
        "thresh_raw": stage.thresh_raw,
    }
    return x, cache


def ppm_bwd(dx, cache, g):
    """Adds the conv and threshold cotangents into gradient stage ``g``; returns dr."""
    dshrunk = _stack_bwd(dx[:, None], cache["syn"], g.syn)
    shrunk = rows(cache["shrunk"])
    dcode = rows(dshrunk)
    # dead zone |code| <= tau, derivative 0: exactly where shrunk == 0
    np.multiply(dcode, shrunk != 0, out=dcode)
    dtau = -np.vdot(np.sign(shrunk), dcode)
    g.thresh_raw += dtau * float(sigmoid(cache["thresh_raw"]))
    dr4 = _stack_bwd(dshrunk, cache["ana"], g.ana)
    return dx + dr4[:, 0]


# ---------------------------------------------------------------------------
# full unrolled forward

def block_size(params):
    """Images per block of an unrecorded forward, the unit of every eval.

    An unrecorded forward runs every stage on one block of images before the
    next, so the stages' arrays stay in cache.  A block holds as many images
    as fit in ``_BLOCK_BYTES`` at h*w*(16J + 8c) bytes an image, J complex
    fields and c real feature maps per pixel: 12 images at 32x32, J=4, c=8.
    Batch invariance keeps each block's output bitwise equal to a
    whole-batch pass.
    """
    image_bytes = params.height * params.width * (16 * params.num_masks + 8 * params.channels)
    return max(1, _BLOCK_BYTES // image_bytes)


@dataclass
class ForwardTape:
    """One forward evaluation: its start and output, and, when recorded,
    every stage's caches for the backward pass (empty otherwise)."""

    params: NetParams
    stage_caches: list
    x0: np.ndarray
    output: np.ndarray


def _run_stages(x, y, ms, params, caches=None):
    """All K stages on one batch; each stage's caches go to ``caches`` if
    given, and are dropped otherwise."""
    for stage in params.stages:
        r, c_sgd = sgd_step_fwd(x, stage, y, ms)
        x, c_ppm = ppm_fwd(r, stage)
        if caches is not None:
            caches.append((c_sgd, c_ppm))
    return x


def net_forward(ys, masks, params, x0=None, *, record=False):
    """Run all stages over a stacked batch; returns (reconstruction, tape).

    ``ys`` holds (B, J, h, w) measurement values and ``masks`` the
    (B, J, h, w) masks each image was measured through, as
    ``datakit.stack_dataset`` stacks them; ``x0`` is a (B, h, w) start, the
    all-ones images by default.  The reconstruction is (B, h, w).
    ``record`` keeps every stage's caches on the tape, as
    :func:`net_backward_from_output` needs.  Without it the tape holds only
    x0 and the output, and the stages run over blocks of :func:`block_size`
    images written into one output array.
    """
    j, h, w = params.num_masks, params.height, params.width
    b = len(ys) if np.ndim(ys) == 4 else 0
    want = (b, j, h, w)
    if np.shape(ys) != want or np.shape(masks) != want or \
            (x0 is not None and np.shape(x0) != (b, h, w)):
        raise ValueError(
            "net_forward takes (B, J, h, w) values and masks and an optional (B, h, w) x0, "
            "with (J, h, w) = (%d, %d, %d) for this network; got values %r, masks %r, x0 %r"
            % (j, h, w, np.shape(ys), np.shape(masks), x0 if x0 is None else np.shape(x0)))
    ys, masks = np.asarray(ys, dtype=np.float64), np.asarray(masks)
    xb = np.ones((b, h, w)) if x0 is None else np.asarray(x0, dtype=np.float64)
    caches = []
    if record:
        x = _run_stages(xb, ys, cdp.MaskSet(masks), params, caches)
    else:
        x = np.empty((b, h, w))
        n = block_size(params)
        for i in range(0, b, n):
            s = slice(i, i + n)
            x[s] = _run_stages(xb[s], ys[s], cdp.MaskSet(masks[s]), params)
    return x, ForwardTape(params=params, stage_caches=caches, x0=xb, output=x)


def net_backward_from_output(tape, dx):
    """Walk the tape in reverse given dx = dL/d(output), (B, h, w); returns
    (grads, dL/d(x0)).

    The stage VJPs add into a zero network built like the parameters, so a
    shared operator sums at stage 0.  ``grads`` is its :class:`Arena`;
    complex cotangents are dL/dRe + i dL/dIm.
    """
    p = tape.params
    if len(tape.stage_caches) != p.num_stages:
        raise ValueError("the tape holds no stage caches: run net_forward(..., record=True) "
                         "before a backward pass")
    grads = build_net(p.height, p.width, p.num_stages, p.channels, p.num_masks, p.mode,
                      p.tie_adjoint, p.share_operator)
    for (c_sgd, c_ppm), g in zip(reversed(tape.stage_caches), reversed(grads.stages)):
        dr = ppm_bwd(dx, c_ppm, g)
        dx = sgd_step_bwd(dr, c_sgd, g)
    return grads.arena, dx
