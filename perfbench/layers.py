"""Which unrollpr functions the traced run wraps, and the per-layer metrics.

FLOP and byte figures here are computed from call shapes, not measured:
they repeat exactly for a given workload, so they can be cited as counts.
Times are measured self times (span duration minus child spans).
"""

import numpy as np

from unrollpr import cdp, conv, datakit, field, metrics, network, training


def _conv_fwd(args, result):
    x, w = args[0], args[1]
    b, c, h, wd = x.shape
    o = w.shape[0]
    macs = b * o * c * h * wd * w.shape[2] * w.shape[3]
    return {"flop": 2 * macs, "bytes": 8 * (x.size + w.size + b * o * h * wd)}


def _conv_bwd(args, result):
    dy, (x, w) = args[0], args[1]
    b, o, h, wd = dy.shape
    macs = b * o * w.shape[1] * h * wd * w.shape[2] * w.shape[3]
    # two contractions (dw and dx); reads dy, x, w and writes dx, dw
    return {"flop": 4 * macs, "bytes": 8 * (dy.size + 2 * x.size + 2 * w.size)}


def _dense(cache, matmuls):
    if cache["mode"] != "dense":
        return None
    flat = cache["uf"] if "uf" in cache else cache["zf"]
    n = flat.shape[-1]
    # complex (m x n) @ (n x n): 8 real flops per complex multiply-add
    return {"flop": 8 * matmuls * (flat.size // n) * n * n}


def _dense_fwd(args, result):
    return _dense(result[1], 1)


def _dense_vjp(args, result):
    return _dense(args[1], 2)  # input cotangent and matrix cotangent


def _adam(args, result):
    coords = sum(a.size * (2 if np.iscomplexobj(a) else 1) for _, a in args[0].tensors())
    # reads param, grad, m, v; writes param, m, v
    return {"bytes": 8 * 7 * coords}


TARGETS = (
    (conv, "conv2d_fwd", "conv.fwd", _conv_fwd),
    (conv, "conv2d_bwd", "conv.bwd", _conv_bwd),
    (field, "fft2_unitary", "field.fft", None),
    (field, "ifft2_unitary", "field.fft", None),
    (cdp, "operator_apply_fwd", "cdp.apply", _dense_fwd),
    (cdp, "operator_apply_vjp", "cdp.apply", _dense_vjp),
    (cdp, "operator_adjoint_fwd", "cdp.adjoint", _dense_fwd),
    (cdp, "operator_adjoint_vjp", "cdp.adjoint", _dense_vjp),
    (cdp, "measure", "cdp.measure", None),
    (cdp, "masks_from_seed", "cdp.masks", lambda args, result: {"seed": args[0]}),
    (network, "sgd_step_fwd", "network.sgd_step", None),
    (network, "sgd_step_bwd", "network.sgd_step", None),
    (network, "ppm_fwd", "network.ppm", None),
    (network, "ppm_bwd", "network.ppm", None),
    (network, "net_forward", "network.forward", None),
    (network, "net_backward_from_output", "network.backward", None),
    (training, "adam_update", "training.adam", _adam),
    (training, "fnv1a64", "training.digest", lambda args, result: {"bytes": len(args[0])}),
    (training, "checkpoint_save", "training.ckpt_save", None),
    (training, "checkpoint_load", "training.ckpt_load", None),
    (training, "train_full", "training.train", None),
    (datakit, "generate_dataset", "datakit.generate", None),
    (datakit, "load_dataset", "datakit.load", None),
    (metrics, "psnr", "metrics.psnr", None),
    (metrics, "ssim", "metrics.ssim", None),
)

def install(tracer):
    for module, attr, name, count in TARGETS:
        tracer.wrap(module, attr, name, count)


def held_mb(obj):
    """MB of distinct array buffers reachable from a tape or cache."""
    owners = {}

    def walk(o):
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            owners[id(o)] = o.nbytes
        elif isinstance(o, dict):
            for v in o.values():
                walk(v)
        elif isinstance(o, (list, tuple)):
            for v in o:
                walk(v)

    walk(obj)
    return sum(owners.values()) / 1e6


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, eval_tape_mb, overhead_frac):
    """Every per-layer metric of BENCHMARK.json, by name, from the recorded spans."""
    agg = tracer.summary()

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    conv_s = get("conv.fwd", "self_s") + get("conv.bwd", "self_s")
    conv_gflop = (get("conv.fwd", "flop") + get("conv.bwd", "flop")) / 1e9
    seeds = [s.work["seed"] for s in tracer.named("cdp.masks")]
    digest_mb = get("training.digest", "bytes") / 1e6
    # busy time of forward and backward spans inside the training call(s),
    # summed over threads, over the wall time of those calls
    trains = tracer.named("training.train")
    busy = sum(
        s.dur for s in tracer.spans
        if s.name in ("network.forward", "network.backward")
        and any(t.start <= s.start and s.end <= t.end for t in trains)
    )
    return {
        "conv.fwd.calls": get("conv.fwd", "calls"),
        "conv.fwd.self_s": get("conv.fwd", "self_s"),
        "conv.bwd.calls": get("conv.bwd", "calls"),
        "conv.bwd.self_s": get("conv.bwd", "self_s"),
        "conv.gflop": conv_gflop,
        "conv.mb": (get("conv.fwd", "bytes") + get("conv.bwd", "bytes")) / 1e6,
        "conv.gflop_per_s": _ratio(conv_gflop, conv_s),
        "field.fft.calls": get("field.fft", "calls"),
        "field.fft.self_s": get("field.fft", "self_s"),
        "cdp.apply.self_s": get("cdp.apply", "self_s"),
        "cdp.adjoint.self_s": get("cdp.adjoint", "self_s"),
        "cdp.dense.gflop": (get("cdp.apply", "flop") + get("cdp.adjoint", "flop")) / 1e9,
        "cdp.measure.self_s": get("cdp.measure", "self_s"),
        "cdp.masks.calls": len(seeds),
        "cdp.masks.unique_ratio": _ratio(len(set(seeds)), len(seeds)),
        "network.sgd_step.self_s": get("network.sgd_step", "self_s"),
        "network.ppm.self_s": get("network.ppm", "self_s"),
        "network.forward.s": get("network.forward", "total_s"),
        "network.backward.s": get("network.backward", "total_s"),
        "network.eval_tape_mb": eval_tape_mb,
        "training.adam.calls": get("training.adam", "calls"),
        "training.adam.self_s": get("training.adam", "self_s"),
        "training.adam.mb_per_s": _ratio(
            get("training.adam", "bytes") / 1e6, get("training.adam", "self_s")
        ),
        "training.digest.self_s": get("training.digest", "self_s"),
        "training.digest.mb_per_s": _ratio(digest_mb, get("training.digest", "self_s")),
        "training.digest.mb_per_ckpt": _ratio(digest_mb, get("training.digest", "calls")),
        "training.ckpt_save.self_s": get("training.ckpt_save", "self_s"),
        "training.ckpt_load.self_s": get("training.ckpt_load", "self_s"),
        "training.thread_overlap": _ratio(busy, sum(t.dur for t in trains)),
        "datakit.generate.s": get("datakit.generate", "total_s"),
        "datakit.load.s": get("datakit.load", "total_s"),
        "metrics.ssim.self_s": get("metrics.ssim", "self_s"),
        "metrics.psnr.self_s": get("metrics.psnr", "self_s"),
        "trace.overhead_frac": overhead_frac,
    }
