#!/usr/bin/env python3
"""unrollpr benchmark: set-up, train, checkpoint and eval throughput.

Run from the repository root; it imports the package from ``src/``:

    python3 perfbench/run.py --workload desk-structured-t1 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each run generates its inputs from ``--seed``, drives the package's public
functions the way a user runs them (generate and load data, train,
checkpoint save and load, eval), checks the outputs, prints every metric
with its unit and ends with one JSON result line.  ``--trace 1`` makes a
separate traced run that reports the per-layer metrics instead.  See
``perfbench/README.md`` for the workloads and what each metric measures.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: the workloads control their own
# thread count, and a result must not depend on how many cores BLAS grabs.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import asdict, dataclass, replace  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

try:
    import unrollpr  # noqa: E402
except ImportError as e:
    sys.exit("perfbench: cannot import unrollpr from %s (%s)" % (SRC, e))
if not os.path.abspath(unrollpr.__file__).startswith(SRC + os.sep):
    sys.exit("perfbench: unrollpr imported from %s, not %s" % (unrollpr.__file__, SRC))

from unrollpr import cdp, datakit, metrics, network, training  # noqa: E402
from unrollpr.field import STREAM_INIT, derive_rng  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402


@dataclass(frozen=True)
class Workload:
    size: int  # square image side
    stages: int  # K
    channels: int  # c
    mode: str
    threads: int
    epochs: int  # of the model whose checkpoint and held-out PSNR are measured
    chunk: int  # train images per timed train_full call
    count: int = 200  # train images, and again held-out images
    batch: int = 10
    masks: int = 4  # J
    alpha: float = 27.0
    min_rounds: int = 3
    sample_s: float = 0.5  # a timed sample repeats its operation at least this long


WORKLOADS = {
    "desk-structured-t1": Workload(32, 7, 8, "structured", threads=1, epochs=1, chunk=40),
    "desk-structured-t2": Workload(32, 7, 8, "structured", threads=2, epochs=1, chunk=40),
    "dense-16x16": Workload(16, 3, 4, "dense", threads=1, epochs=3, chunk=200),
}

# --tiny: same code paths at smoke-test sizes
TINY = dict(count=20, stages=1, channels=2, epochs=2, chunk=10, min_rounds=1, sample_s=0.0)

# Weight init and shuffling are a fixed setting of the workload, like K and c;
# --seed varies the data, so the quality guard does not ride on init luck.
TRAIN_SEED = 5

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _SPEC = json.load(_f)
# metric name -> unit, as BENCHMARK.json declares them
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Affinity:
    """Single-threaded work stays on one CPU; training with threads spreads.

    On a shared host the CPUs differ in speed for minutes at a time, so a run
    the scheduler parks on one or the other reads bimodal.  Set-up,
    checkpoint and eval always run on the highest-numbered CPU (CPU 0 takes
    most interrupts); a training call with several threads gets every CPU.
    """

    def __init__(self):
        self.usable = set(os.sched_getaffinity(0))
        self.home = {max(self.usable)}
        os.sched_setaffinity(0, self.home)

    @contextmanager
    def spread(self, threads):
        if threads > 1:
            os.sched_setaffinity(0, self.usable)  # pool threads inherit this
        try:
            yield
        finally:
            os.sched_setaffinity(0, self.home)


class Tally:
    """Operations attempted and failed; every output check feeds it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, n, failed=0, note=None):
        self.attempted += n
        self.failed += failed
        if failed and note:
            self.notes.append(note)
            print("FAILED: %s" % note, file=sys.stderr)


# ---------------------------------------------------------------------------
# the four steps a user runs

def setup(wl, seed, work):
    """Generate and load the train and held-out sets; (train, heldout, s)."""
    os.makedirs(work)
    train_dir = os.path.join(work, "train")
    heldout_dir = os.path.join(work, "heldout")
    t0 = time.perf_counter()
    datakit.generate_dataset(train_dir, wl.count, wl.size, wl.size, seed, alphas=(wl.alpha,))
    datakit.generate_dataset(
        heldout_dir, wl.count, wl.size, wl.size, seed + 1, alphas=(wl.alpha,),
        test_masks=True,
    )
    _, train = datakit.load_dataset(train_dir)
    _, heldout = datakit.load_dataset(heldout_dir)
    seconds = time.perf_counter() - t0
    for data in (train, heldout):
        if len(data) != wl.count or data[0][0].shape != (wl.size, wl.size):
            raise RuntimeError("set-up produced %d samples of %r" % (len(data), data[0][0].shape))
    return train, heldout, seconds


def untrained_net(wl):
    """The network train_full starts from (same init stream and seed)."""
    return network.init_net(
        wl.size, wl.size, num_stages=wl.stages, channels=wl.channels,
        num_masks=wl.masks, mode=wl.mode, rng=derive_rng(TRAIN_SEED, STREAM_INIT),
    )


def train(wl, threads, data, epochs, tally):
    """train_full from the untrained network; (net, state, seconds)."""
    config = training.TrainConfig(
        epochs=epochs, batch_size=wl.batch, seed=TRAIN_SEED, num_stages=wl.stages,
        channels=wl.channels, num_masks=wl.masks, mode=wl.mode, threads=threads,
    )
    t0 = time.perf_counter()
    net, history, state = training.train_full(data, config)
    seconds = time.perf_counter() - t0
    steps = epochs * -(-len(data) // wl.batch)
    finite = all(np.isfinite(history)) and all(
        np.isfinite(a).all() for _, a in net.tensors()
    )
    tally.add(steps, 0 if finite else steps, "non-finite loss or weights after training")
    return net, state, seconds


def evaluate(net, data):
    """As ``unrollpr eval``: one net_forward over the set, then per-image scores."""
    images = np.stack([img for img, _ in data])
    ys = np.stack([mv.values for _, mv in data])
    built = {}
    for _, mv in data:
        if mv.mask_seed not in built:
            built[mv.mask_seed] = cdp.masks_from_seed(
                mv.mask_seed, net.num_masks, net.height, net.width
            ).masks
    masks = np.stack([built[mv.mask_seed] for _, mv in data])
    x, tape = network.net_forward(ys, masks, net)
    psnrs = [metrics.psnr(x[i], images[i]) for i in range(len(data))]
    ssims = [metrics.ssim(x[i], images[i]) for i in range(len(data))]
    return x, psnrs, ssims, tape


def same_model(net_a, state_a, net_b, state_b):
    """Bit-exact equality of every tensor, Adam moment and the step count."""
    ta, tb = list(net_a.tensors()), list(net_b.tensors())
    if [n for n, _ in ta] != [n for n, _ in tb] or state_a.step != state_b.step:
        return False
    for (name, a), (_, b) in zip(ta, tb):
        pairs = ((a, b), (state_a.m[name], state_b.m[name]), (state_a.v[name], state_b.v[name]))
        for u, v in pairs:
            if u.shape != v.shape or u.dtype != v.dtype or u.tobytes() != v.tobytes():
                return False
    return True


def repeat(fn, min_s):
    """Call fn until its calls add up to min_s seconds, at least once.

    Returns (calls, seconds, last result).  A timed sample spans at least
    min_s, so short operations are not timed one blip at a time.
    """
    calls, elapsed, result = 0, 0.0, None
    while calls == 0 or elapsed < min_s:
        result = None  # release the previous result before the next call
        t0 = time.perf_counter()
        result = fn()
        elapsed += time.perf_counter() - t0
        calls += 1
    return calls, elapsed, result


class Cycles:
    """Checkpoint save, load, and eval of the loaded model, with checks."""

    def __init__(self, heldout, baseline_psnr, tally):
        self.heldout = heldout
        self.baseline_psnr = baseline_psnr
        self.tally = tally
        self.save_mb_s = []
        self.load_mb_s = []
        self.eval_img_s = []
        self.val_psnr = None
        self.ssim = None
        self.first_x = None
        self.tape = None

    def run(self, net, state, path, min_s):
        n = len(self.heldout)
        try:
            saves, save_s, _ = repeat(lambda: training.checkpoint_save(net, state, path), min_s)
            self.tally.add(saves)
            mb = os.path.getsize(path) / 1e6
            self.save_mb_s.append(saves * mb / save_s)
            loads, load_s, (loaded, loaded_state) = repeat(
                lambda: training.checkpoint_load(path), min_s
            )
            exact = same_model(net, state, loaded, loaded_state)
            self.tally.add(loads, 0 if exact else loads, "checkpoint round trip not bit-exact")
            self.load_mb_s.append(loads * mb / load_s)
            self.tape = None  # release the previous eval's tape before the next
            evals, eval_s, (x, psnrs, ssims, self.tape) = repeat(
                lambda: evaluate(loaded, self.heldout), min_s
            )
        except Exception:
            traceback.print_exc()
            self.tally.add(1, 1, "checkpoint or eval raised")
            return
        self.eval_img_s.append(evals * n / eval_s)
        bad = sum(
            not (np.isfinite(x[i]).all() and np.isfinite(psnrs[i]) and np.isfinite(ssims[i]))
            for i in range(n)
        )
        self.tally.add(evals * n, evals * bad, "%d non-finite reconstructions or scores" % bad)
        mean_psnr = float(np.mean(psnrs))
        if self.first_x is None:
            self.first_x = x
            self.val_psnr = mean_psnr
            self.ssim = float(np.mean(ssims))
            self.tally.add(
                0, 0 if mean_psnr > self.baseline_psnr else evals * n,
                "held-out PSNR %.4f dB does not beat the untrained %.4f dB"
                % (mean_psnr, self.baseline_psnr),
            )
        elif x.tobytes() != self.first_x.tobytes():
            self.tally.add(0, evals * n, "eval of the same checkpoint changed between rounds")


# ---------------------------------------------------------------------------
# runs

def machine_record(seed, threads, affinity):
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except TypeError:  # numpy < 1.26 has no mode argument
        pass
    return {
        "nproc": len(affinity.usable),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if "THREAD" in k},
        "threads_used": threads,
        "cpus": sorted(affinity.usable),
        "single_thread_cpu": max(affinity.home),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the repository the benchmark sits in, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_plain(wl, seed, seconds, threads, affinity, work, tally):
    """Untraced run: end-to-end metrics.

    After set-up and training the measured model, rounds of (set-up, timed
    train_full on the next chunk of the train set, checkpoint save and
    load, eval) repeat until ``seconds`` have passed since the start, so
    every metric's samples are spread over the whole run.
    """
    start = time.perf_counter()
    train_set, heldout, first_setup = setup(wl, seed, os.path.join(work, "data"))
    setups = [first_setup]
    baseline = float(np.mean(evaluate(untrained_net(wl), heldout)[1]))
    with affinity.spread(threads):
        net, state, _ = train(wl, threads, train_set, wl.epochs, tally)
    cycles = Cycles(heldout, baseline, tally)
    chunks = [train_set[i:i + wl.chunk] for i in range(0, len(train_set), wl.chunk)]
    train_rates = []
    rounds = 0
    while rounds < wl.min_rounds or time.perf_counter() - start < seconds:
        times = []
        while not times or sum(times) < wl.sample_s:
            times.append(setup(wl, seed, os.path.join(work, "setup"))[2])
            shutil.rmtree(os.path.join(work, "setup"))
        setups.append(statistics.fmean(times))
        chunk = chunks[rounds % len(chunks)]
        with affinity.spread(threads):
            train_rates.append(len(chunk) / train(wl, threads, chunk, 1, tally)[2])
        cycles.run(net, state, os.path.join(work, "model.ckpt"), wl.sample_s)
        rounds += 1
    metrics_ = {
        "train_img_per_s": statistics.median(train_rates),
        "eval_img_per_s": statistics.median(cycles.eval_img_s),
        "ckpt_save_mb_per_s": statistics.median(cycles.save_mb_s),
        "ckpt_load_mb_per_s": statistics.median(cycles.load_mb_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "val_psnr_db": cycles.val_psnr,
    }
    detail = {
        "setup_s": setups, "train_img_per_s": train_rates,
        "eval_img_per_s": cycles.eval_img_s, "ckpt_save_mb_per_s": cycles.save_mb_s,
        "ckpt_load_mb_per_s": cycles.load_mb_s, "untrained_psnr_db": baseline,
        "val_ssim": cycles.ssim,
    }
    return {k: (v, E2E_UNITS[k]) for k, v in metrics_.items()}, detail


def run_traced(wl, seed, threads, affinity, work, tally):
    """Untraced training, then the same pipeline traced: per-layer metrics.

    The traced part has a fixed shape (one set-up, one training of the
    measured model, one checkpoint save, load and eval), so the call and
    FLOP counts repeat exactly for a workload.
    """
    train_set, heldout, _ = setup(wl, seed, os.path.join(work, "plain"))
    baseline = float(np.mean(evaluate(untrained_net(wl), heldout)[1]))
    with affinity.spread(threads):
        net, state, plain_s = train(wl, threads, train_set, wl.epochs, tally)
    del train_set, heldout
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        train_set, heldout, _ = setup(wl, seed, os.path.join(work, "traced"))
        cycles = Cycles(heldout, baseline, tally)
        with affinity.spread(threads):
            traced_net, traced_state, traced_s = train(wl, threads, train_set, wl.epochs, tally)
        cycles.run(traced_net, traced_state, os.path.join(work, "model.ckpt"), 0.0)
    finally:
        tracer.uninstall()
    same = same_model(net, state, traced_net, traced_state)
    tally.add(0, 0 if same else 1, "tracing changed the trained model")
    overhead = 1.0 - plain_s / traced_s  # share of untraced throughput lost
    tape_mb = layers.held_mb([cycles.tape.stage_caches, cycles.tape.x0, cycles.tape.output])
    detail = {"train_s_untraced": plain_s, "train_s_traced": traced_s,
              "spans": tracer.summary()}
    values = layers.per_layer(tracer, tape_mb, overhead)
    return {k: (values[k], unit) for k, unit in LAYER_UNITS.items()}, detail


def run_one(name, seed, seconds, trace, tiny):
    wl = WORKLOADS[name]
    if tiny:
        wl = replace(wl, **TINY)
    affinity = Affinity()
    threads = min(wl.threads, len(affinity.usable))
    tally = Tally()
    out_dir = os.path.join(ROOT, ".perfbench")
    work = os.path.join(out_dir, "work-%d" % os.getpid())
    try:
        if trace:
            values, detail = run_traced(wl, seed, threads, affinity, work, tally)
        else:
            values, detail = run_plain(wl, seed, seconds, threads, affinity, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metric, (value, unit) in values.items():
        print("%-30s %16.6f %s" % (metric, value, unit))
    print("%-30s %16.6f %s   (%d of %d operations)" % (
        "failed_frac", tally.failed / tally.attempted, "ratio", tally.failed, tally.attempted,
    ))
    record = {
        "workload": name, "config": asdict(wl), "seconds": seconds, "trace": trace,
        "machine": machine_record(seed, threads, affinity), "failures": tally.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "samples": detail,
    }
    with open(os.path.join(out_dir, "BENCH_%s_seed%d_trace%d.json" % (name, seed, trace)),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print("== %s" % name, flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of an untraced run; the traced run has a fixed shape")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    result = run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
