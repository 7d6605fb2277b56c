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

Each block is a (forward, vjp) pair sharing a cache; ``net_forward``
records a per-stage tape that the training module walks backwards.
"""

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import attrgetter

import numpy as np

from . import cdp
from .conv import conv2d_bwd, conv2d_fwd, xavier_conv_weight
from .field import SeededRng

PHASE_EPS = 1e-12

# thresh_raw value whose softplus is 0.5
THRESH_RAW_INIT = float(np.log(np.expm1(0.5)))
STEP_SIZE_INIT = 0.01

_REAL = np.dtype(np.float64)
_STACK = ("w1", "b1", "w2", "b2")  # ConvStack field order


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


def soft_threshold(z, tau):
    """sign(z) * max(|z| - tau, 0); the prox of tau*||.||_1."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative, got %r" % (tau,))
    z = np.asarray(z)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


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


@dataclass
class NetParams:
    """Full network: stage list plus the shape/mode contract."""

    height: int
    width: int
    num_masks: int
    channels: int
    mode: str
    tie_adjoint: bool = False
    share_operator: bool = False
    stages: list = dc_field(default_factory=list)

    @property
    def num_stages(self):
        return len(self.stages)

    def tensors(self):
        """Yield ("stage<k>.<path>", array) for every :func:`net_layout` entry.

        Derived tensors (tied adjoints) and shared operators beyond stage 0
        are not stored, so they are not emitted.
        """
        layout = net_layout(self.height, self.width, self.num_stages, self.channels,
                            self.mode, self.tie_adjoint, self.share_operator)
        for k, path, _, _ in layout:
            yield "stage%d.%s" % (k, path), attrgetter(path)(self.stages[k])


@lru_cache(maxsize=32)
def net_layout(h, w, num_stages, channels, mode, tie_adjoint=False, share_operator=False):
    """Every stored tensor as (stage, path, shape, dtype), in checkpoint order.

    Per stage: step size, threshold, the analysis (1->c->c) and synthesis
    (c->c->1) conv stacks, then the operator tensors of
    ``cdp.operator_layout`` (stage 0 only when the operator is shared).
    ``path`` is the attribute path inside the stage, e.g. "ana.w1" or
    "op.gain".  This single order drives the builder, the optimizer, the
    gradient layout and the checkpoint format.
    """
    c = channels
    stage = [("step_size", (), _REAL), ("thresh_raw", (), _REAL)]
    for blk, c_in, c_out in (("ana", 1, c), ("syn", c, 1)):
        shapes = ((c, c_in, 3, 3), (c,), (c_out, c, 3, 3), (c_out,))
        stage += [(blk + "." + name, shape, _REAL) for name, shape in zip(_STACK, shapes)]
    op = [("op." + name, shape, dtype)
          for name, shape, dtype in cdp.operator_layout(mode, h, w, tie_adjoint)]
    return tuple(
        (k,) + entry
        for k in range(num_stages)
        for entry in (stage + op if k == 0 or not share_operator else stage)
    )


def build_net(h, w, num_stages, channels, num_masks, mode, tie_adjoint,
              share_operator, fill):
    """Network whose stored tensors are ``fill(stage, path, shape, dtype)``.

    ``fill`` runs once per :func:`net_layout` entry, in layout order; a
    shared operator is filled at stage 0 and reused by the later stages.
    """
    net = NetParams(
        height=h, width=w, num_masks=num_masks, channels=channels, mode=mode,
        tie_adjoint=tie_adjoint, share_operator=share_operator,
    )
    blank = [None] * len(_STACK)
    for k in range(num_stages):
        op = net.stages[0].op if share_operator and k > 0 else \
            cdp.OperatorParams(mode=mode, tie_adjoint=tie_adjoint)
        net.stages.append(StageParams(None, None, op, ConvStack(*blank), ConvStack(*blank)))
    for k, path, shape, dtype in net_layout(h, w, num_stages, channels, mode,
                                            tie_adjoint, share_operator):
        stage = net.stages[k]
        owner, _, attr = path.rpartition(".")  # "ana.w1" sets stage.ana.w1
        setattr(attrgetter(owner)(stage) if owner else stage, attr, fill(k, path, shape, dtype))
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

    def fill(k, path, shape, dtype):
        if path.startswith("op."):
            return getattr(op, path[3:]).copy()
        if len(shape) == 4:  # conv weight (c_out, c_in, 3, 3)
            return xavier_conv_weight(rng, shape[0], shape[1])
        return np.full(shape, scalars.get(path, 0.0))  # scalars, zero biases

    return build_net(h, w, num_stages, channels, num_masks, mode, tie_adjoint,
                     share_operator, fill)


# ---------------------------------------------------------------------------
# shape plumbing

def _batched_image(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        return x[None], True
    if x.ndim == 3:
        return x, False
    raise ValueError("expected (h, w) or (batch, h, w), got shape %r" % (x.shape,))


def _batched_meas(y):
    vals = np.asarray(getattr(y, "values", y), dtype=np.float64)
    if vals.ndim == 3:
        return vals[None], True
    if vals.ndim == 4:
        return vals, False
    raise ValueError("expected (J, h, w) or (batch, J, h, w) measurements")


# ---------------------------------------------------------------------------
# data-fidelity step

def sgd_step_fwd(x, stage, y, masks):
    """One descent step on the magnitude-fit objective, batched (B, h, w)."""
    z, op_cache = cdp.operator_apply_fwd(x, masks, stage.op)
    mag = np.abs(z)
    safe = np.maximum(mag, PHASE_EPS)
    ph = z / safe
    resid = z - y * ph
    s, adj_cache = cdp.operator_adjoint_fwd(resid, masks, stage.op)
    t = float(stage.step_size)
    s_re = s.real
    r = x - t * s_re
    cache = {
        "op": op_cache, "adj": adj_cache, "z": z, "mag": mag, "ph": ph,
        "y": y, "s_re": s_re, "t": t,
    }
    return r, cache


def sgd_step_bwd(dr, cache):
    """Returns (dx, grads); grads holds step_size plus operator cotangents."""
    grads = {}
    grads["step_size"] = np.array(-np.sum(dr * cache["s_re"]))
    ds = (-cache["t"] * dr).astype(np.complex128)
    dresid, adj_grads = cdp.operator_adjoint_vjp(ds, cache["adj"])
    for k, v in adj_grads.items():
        grads["op." + k] = grads.get("op." + k, 0) + v
    dz = dresid.copy()
    dph = -cache["y"] * dresid
    # phase(z) = z / max(|z|, eps): curved branch above eps, linear below
    z, mag = cache["z"], cache["mag"]
    big = mag > PHASE_EPS
    m3 = np.where(big, mag, 1.0) ** 3
    dz += np.where(big, -1j * z * (np.conj(dph) * z).imag / m3, dph / PHASE_EPS)
    dxc, op_grads = cdp.operator_apply_vjp(dz, cache["op"])
    for k, v in op_grads.items():
        grads["op." + k] = grads.get("op." + k, 0) + v
    dx = dr + dxc.real
    return dx, grads


def sgd_step(x, stage, y, masks):
    """Public single-call form; accepts unbatched (h, w) images."""
    xb, squeeze = _batched_image(x)
    yb, _ = _batched_meas(y)
    r, _ = sgd_step_fwd(xb, stage, yb, masks)
    return r[0] if squeeze else r


# ---------------------------------------------------------------------------
# learned transforms and the proximal projection

def _stack_fwd(x4, blk):
    c1, k1 = conv2d_fwd(x4, blk.w1, blk.b1)
    a1 = np.maximum(c1, 0.0)
    z2, k2 = conv2d_fwd(a1, blk.w2, blk.b2)
    return z2, (k1, c1, k2)


def _stack_bwd(dz2, cache):
    k1, c1, k2 = cache
    da1, dw2, db2 = conv2d_bwd(dz2, k2)
    dc1 = da1 * (c1 > 0)
    dx4, dw1, db1 = conv2d_bwd(dc1, k1)
    return dx4, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def transform_forward(r, stack):
    """Image (h, w) or (B, h, w) -> features (B, c, h, w) via conv/ReLU/conv."""
    rb, squeeze = _batched_image(r)
    if stack.w1.shape[1] != 1:
        raise ValueError(
            "analysis stack expects 1 input channel, got %d" % stack.w1.shape[1]
        )
    z, _ = _stack_fwd(rb[:, None], stack)
    return z[0] if squeeze else z


def transform_inverse(code, stack):
    """Features (B, c, h, w) -> image, symmetric conv/ReLU/conv path."""
    code = np.asarray(code, dtype=np.float64)
    squeeze = code.ndim == 3
    cb = code[None] if squeeze else code
    if stack.w1.shape[1] != cb.shape[1]:
        raise ValueError(
            "synthesis stack expects %d channels, got %d"
            % (stack.w1.shape[1], cb.shape[1])
        )
    x, _ = _stack_fwd(cb, stack)
    if x.shape[1] != 1:
        raise ValueError("synthesis stack must end in one channel")
    return x[0, 0] if squeeze else x[:, 0]


def ppm_fwd(r, stage):
    """Residual prox step, batched (B, h, w)."""
    code, ana_cache = _stack_fwd(r[:, None], stage.ana)
    tau = float(softplus(stage.thresh_raw))
    shrunk = soft_threshold(code, tau)
    out4, syn_cache = _stack_fwd(shrunk, stage.syn)
    x = r + out4[:, 0]
    cache = {
        "ana": ana_cache, "syn": syn_cache, "code": code, "tau": tau,
        "thresh_raw": stage.thresh_raw,
    }
    return x, cache


def ppm_bwd(dx, cache):
    """Returns (dr, grads) with conv and threshold cotangents."""
    dout4 = dx[:, None]
    dshrunk, syn_g = _stack_bwd(dout4, cache["syn"])
    code, tau = cache["code"], cache["tau"]
    active = np.abs(code) > tau  # dead zone: derivative 0 at |code| <= tau
    dcode = np.where(active, dshrunk, 0.0)
    dtau = -np.sum(np.sign(code) * np.where(active, dshrunk, 0.0))
    dthresh_raw = np.array(dtau * float(sigmoid(cache["thresh_raw"])))
    dr4, ana_g = _stack_bwd(dcode, cache["ana"])
    dr = dx + dr4[:, 0]
    grads = {"thresh_raw": dthresh_raw}
    for k, v in ana_g.items():
        grads["ana." + k] = v
    for k, v in syn_g.items():
        grads["syn." + k] = v
    return dr, grads


def ppm_forward(r, stage):
    """Public single-call form; accepts unbatched (h, w) images."""
    rb, squeeze = _batched_image(r)
    x, _ = ppm_fwd(rb, stage)
    return x[0] if squeeze else x


# ---------------------------------------------------------------------------
# full unrolled forward

@dataclass
class ForwardTape:
    """Everything the backward pass needs from one forward evaluation."""

    params: NetParams
    stage_caches: list
    x0: np.ndarray
    output: np.ndarray
    batched_input: bool


def net_forward(y, masks, params, x0=None):
    """Run all stages; returns (reconstruction, tape).

    y is a MeasurementVector or raw values array, (J, h, w) or batched
    (B, J, h, w); masks is a MaskSet or array broadcastable to y's shape;
    x0 defaults to the all-ones image.
    """
    yb, squeezed = _batched_meas(y)
    b = yb.shape[0]
    h, w = params.height, params.width
    if yb.shape[1] != params.num_masks or yb.shape[2:] != (h, w):
        raise ValueError(
            "measurements %r do not match network (J=%d, %dx%d)"
            % (yb.shape, params.num_masks, h, w)
        )
    d = np.asarray(getattr(masks, "masks", masks))
    if d.shape[-3:] != (params.num_masks, h, w):
        raise ValueError("mask shape %r does not match network" % (d.shape,))
    if x0 is None:
        xb = np.ones((b, h, w))
    else:
        xb, _ = _batched_image(x0)
        if xb.shape[0] == 1 and b > 1:
            xb = np.broadcast_to(xb, (b, h, w)).copy()
        if xb.shape != (b, h, w):
            raise ValueError("x0 shape %r does not match batch" % (xb.shape,))
    x = xb
    caches = []
    for stage in params.stages:
        r, c_sgd = sgd_step_fwd(x, stage, yb, d)
        x, c_ppm = ppm_fwd(r, stage)
        caches.append((c_sgd, c_ppm))
    tape = ForwardTape(
        params=params, stage_caches=caches, x0=xb, output=x,
        batched_input=not squeezed,
    )
    return (x[0] if squeezed else x), tape


def net_backward_from_output(tape, dout):
    """Walk the tape in reverse given dL/d(output); returns name->grad dict.

    Complex parameter cotangents stay complex (dL/dRe + i dL/dIm); shared
    operators accumulate under the stage0 names.
    """
    params = tape.params
    dx = dout if dout.ndim == 3 else dout[None]
    grads = {}

    def put(k, name, v):
        if name.startswith("op.") and params.share_operator:
            k = 0
        key = "stage%d.%s" % (k, name)
        if key in grads:
            grads[key] = grads[key] + v
        else:
            grads[key] = v

    for k in range(params.num_stages - 1, -1, -1):
        c_sgd, c_ppm = tape.stage_caches[k]
        dr, g_ppm = ppm_bwd(dx, c_ppm)
        for name, v in g_ppm.items():
            put(k, name, v)
        dx, g_sgd = sgd_step_bwd(dr, c_sgd)
        for name, v in g_sgd.items():
            put(k, name, v)
    # canonicalize: every emitted tensor gets an entry, zero when untouched
    out = {}
    for name, arr in params.tensors():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(arr)
        out[name] = g
    return out, dx
