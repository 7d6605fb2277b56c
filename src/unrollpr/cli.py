"""Command-line surface: gen-data, train, eval, reconstruct, selfcheck.

Exit codes: 0 success, 1 selfcheck failure, 2 usage error (training that
diverges included), 3 I/O error, 4 shape/compatibility error; codes 2-4
print one ``error:`` line.  Every output
file is written atomically, into a directory checked before any work.  All
randomness flows from the --seed flags through named streams, so each
command's outputs are reproducible from its flags alone.
"""

import argparse
import csv
import io
import os
import sys

import numpy as np

from . import cdp, datakit, metrics, network, selfcheck, training
from .errors import FormatError, ShapeError
from .field import STREAM_NOISE, cap_error, derive_rng
from .training import float_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SHAPE = 4


def _parse_size(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError("size must look like 32x32, got %r" % text)
    h, w = int(parts[0]), int(parts[1])
    err = cap_error("h", h) or cap_error("w", w)
    if err:
        raise ValueError("bad size %r: %s" % (text, err))
    return h, w


def cmd_gen_data(args):
    h, w = _parse_size(args.size)
    datakit.generate_dataset(
        args.out, args.count, h, w, args.seed,
        alphas=tuple(float(v) for v in args.alphas.split(",")), test_masks=args.test_masks,
    )
    print("wrote %d samples (%dx%d) to %s" % (args.count, h, w, args.out))
    return EXIT_OK


def _read_dir(data_dir):
    if not os.path.isdir(data_dir):
        raise FileNotFoundError("no such data directory: %s" % data_dir)
    return datakit.read_manifest(os.path.join(data_dir, datakit.MANIFEST_NAME))


def _manifest(flag, data_dir):
    """The manifest in ``data_dir`` (if any) as a (name, path) input of :func:`_check_paths`."""
    return "the %s manifest" % flag, data_dir and os.path.join(data_dir, datakit.MANIFEST_NAME)


def _check_paths(outs, ins):
    """Before any work, fail on an output path that is a directory, is in a
    missing one, or names the same file as an input or an earlier output.
    ``outs`` and ``ins`` are (name, path) pairs; a None path is skipped."""
    seen = {os.path.realpath(path): name for name, path in ins if path}
    for name, path in outs:
        if not path:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError("cannot write %s: it is a directory" % path)
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError("cannot write %s: its directory does not exist" % path)
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError("%s and %s name the same file" % (seen[real], name))
        seen[real] = name


def cmd_train(args):
    config = training.TrainConfig(
        epochs=args.epochs, batch_size=args.batch, lr=args.lr, seed=args.seed,
        num_stages=args.K, channels=args.channels, mode=args.mode,
        tie_adjoint=args.tie_adjoint, threads=args.threads,
    )
    config.check()
    log_path = args.log if args.log else args.out + ".csv"
    _check_paths([("--out", args.out), ("--log", log_path)],
                 [_manifest("--data", args.data), _manifest("--val-data", args.val_data)])
    manifest = _read_dir(args.data)
    config.num_masks = manifest.num_masks
    dataset = datakit.build_dataset(manifest, base_dir=args.data)
    val = None
    if args.val_data:
        val = datakit.build_dataset(_read_dir(args.val_data), base_dir=args.val_data)
    net, history, state = training.train_full(
        dataset, config, val_dataset=val, log_path=log_path
    )
    training.checkpoint_save(net, state, args.out)
    final = history[-1] if history else float("nan")
    print("trained %d epochs, final loss %s -> %s"
          % (args.epochs, float_text(final), args.out))
    return EXIT_OK


def cmd_eval(args):
    _check_paths([("--csv", args.csv)], [("--ckpt", args.ckpt), _manifest("--data", args.data)])
    net, _ = training.checkpoint_load(args.ckpt)
    manifest = _read_dir(args.data)
    if manifest.count == 0:
        raise FormatError("data directory is empty")
    want = (net.height, net.width, net.num_masks)
    have = (manifest.height, manifest.width, manifest.num_masks)
    if want != have:
        raise ShapeError("checkpoint expects %dx%d with %d masks, data is %dx%d with %d masks"
                         % (want + have))
    metrics.check_ssim_shape((manifest.height, manifest.width))
    dataset = datakit.build_dataset(manifest, base_dir=args.data)
    images, ys, masks = datakit.stack_dataset(dataset)
    x = images if args.bypass else network.net_forward(ys, masks, net)[0]
    ps, ss = metrics.scores(x, images)
    rows = [(rec.image or ("synth-%d" % i), rec.alpha, p, s)
            for i, (rec, p, s) in enumerate(zip(manifest.records, ps, ss))]
    for name, alpha, p, s in rows:
        print("%s alpha=%g psnr=%s ssim=%s" % (name, alpha, float_text(p), float_text(s)))
    print("mean psnr=%s ssim=%s" % (float_text(np.mean(ps)), float_text(np.mean(ss))))
    if args.csv:  # csv quotes a name holding "," or '"'
        text = io.StringIO()
        out = csv.writer(text, lineterminator="\n")
        out.writerow(("name", "alpha", "psnr", "ssim"))
        out.writerows((name, "%g" % alpha, float_text(p), float_text(s))
                      for name, alpha, p, s in rows)
        datakit.atomic_write(args.csv, text.getvalue().encode("utf-8"))
    return EXIT_OK


def cmd_reconstruct(args):
    if not 0 <= args.alpha < np.inf:
        raise ValueError("alpha must be finite and nonnegative, got %r" % args.alpha)
    _check_paths([("--out", args.out)], [("--ckpt", args.ckpt), ("--input", args.input)])
    net, _ = training.checkpoint_load(args.ckpt)
    img = datakit.load_pgm(args.input)
    if img.shape != (net.height, net.width):
        raise ShapeError("checkpoint expects %dx%d, input image is %dx%d"
                         % ((net.height, net.width) + img.shape))
    # the image is measured as sample 0 of a held-out set generated with --seed
    mask_seed = datakit.sample_mask_seed(args.seed, 0, held_out=True)
    masks = cdp.masks_from_seed(mask_seed, net.num_masks, net.height, net.width)
    y = cdp.measure(img, masks, args.alpha, derive_rng(args.seed, STREAM_NOISE, 0))
    _, ys, ms = datakit.stack_dataset([(img, y)])  # a batch of one
    x = np.clip(network.net_forward(ys, ms, net)[0][0], 0.0, 1.0)
    datakit.save_pgm(x, args.out)
    print("reconstructed %s -> %s, psnr=%s"
          % (args.input, args.out, float_text(metrics.psnr(x, img))))
    return EXIT_OK


def cmd_selfcheck(args):
    rows, ok = selfcheck.run_selfcheck(
        quick=args.quick, inject_fault=args.inject_fault
    )
    for name, measured, threshold, passed in rows:
        print("%s %-18s measured=%.3e threshold=%.3e"
              % ("ok  " if passed else "FAIL", name, measured, threshold))
    print("selfcheck %s" % ("passed" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser():
    p = argparse.ArgumentParser(
        prog="unrollpr",
        description="Unrolled phase retrieval from coded diffraction patterns",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize a dataset directory")
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--size", required=True, help="HxW, powers of two")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--alphas", default="9,27,81")
    g.add_argument("--test-masks", action="store_true",
                   help="draw mask seeds from the held-out stream domain")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on a dataset directory")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=int, required=True)
    t.add_argument("--K", type=int, default=7, help="number of unrolled stages")
    t.add_argument("--channels", type=int, default=32)
    t.add_argument("--batch", type=int, default=10)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--mode", choices=("structured", "dense", "fixed"),
                   default="structured")
    t.add_argument("--tie-adjoint", action="store_true")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--val-data", default=None)
    t.add_argument("--log", default=None, help="CSV log path (default OUT.csv)")
    t.add_argument("--threads", type=int, default=1,
                   help="gradient chunks per batch, computed at once: the extra "
                        "ones in worker processes (at most one per usable CPU)")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--csv", default=None)
    e.add_argument("--bypass", action="store_true",
                   help="score ground truth against itself (plumbing check)")
    e.set_defaults(fn=cmd_eval)

    r = sub.add_parser("reconstruct", help="measure and reconstruct one image")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--input", required=True)
    r.add_argument("--alpha", type=float, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_reconstruct)

    s = sub.add_parser("selfcheck", help="run the built-in diagnostic suites")
    s.add_argument("--quick", action="store_true")
    s.add_argument("--inject-fault", default=None, choices=("adjoint",),
                   help=argparse.SUPPRESS)
    s.set_defaults(fn=cmd_selfcheck)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_IO
    except ShapeError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_SHAPE
    except (ValueError, FloatingPointError) as e:  # bad input, or training diverged
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
