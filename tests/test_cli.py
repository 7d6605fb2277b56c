"""Command-line behavior: flows, output contracts, exit codes."""

import csv
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import unrollpr
from unrollpr import datakit, network, training
from unrollpr.cli import main
from unrollpr.field import DATASET_CAP, STREAM_INIT, derive_rng
from unrollpr.network import init_net


def _gen(tmp_path, name="data", count=4, size="8x8", seed=3, extra=()):
    out = tmp_path / name
    rc = main(["gen-data", "--out", str(out), "--count", str(count),
               "--size", size, "--seed", str(seed), *extra])
    assert rc == 0
    return out


def _set_manifest(data, key, value):
    """Rewrite ``key=value`` in a dataset's manifest; returns its line number."""
    path = data / datakit.MANIFEST_NAME
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith(key + "="))
    lines[at] = "%s=%s" % (key, value)
    path.write_text("\n".join(lines) + "\n")
    return at + 1


def _forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError("%s called before the input was checked" % name)

    monkeypatch.setattr(module, name, forbidden)


def _train(tmp_path, data, name="model.ckpt", epochs=1, extra=()):
    ckpt = tmp_path / name
    rc = main(["train", "--data", str(data), "--out", str(ckpt),
               "--epochs", str(epochs), "--K", "1", "--channels", "1",
               "--batch", "2", *extra])
    assert rc == 0
    return ckpt


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_writes_dataset(tmp_path, capsys):
    out = _gen(tmp_path, count=3, size="16x16")
    msg = capsys.readouterr().out
    assert "3 samples" in msg and "16x16" in msg
    files = sorted(p.name for p in out.iterdir())
    assert files == ["img_0000.pgm", "img_0001.pgm", "img_0002.pgm",
                     "manifest.txt"]


def test_gen_data_zero_count(tmp_path):
    out = _gen(tmp_path, count=0)
    assert sorted(p.name for p in out.iterdir()) == ["manifest.txt"]


def test_gen_data_idempotent_bytes(tmp_path):
    a = _gen(tmp_path, "a", count=3, seed=9)
    b = _gen(tmp_path, "b", count=3, seed=9)
    for f in sorted(x.name for x in a.iterdir()):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_gen_data_rejects_non_power_of_two(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "x"), "--count", "1",
               "--size", "100x100", "--seed", "1"])
    assert rc == 2
    assert "power of two" in capsys.readouterr().err


def test_gen_data_rejects_malformed_size(tmp_path):
    rc = main(["gen-data", "--out", str(tmp_path / "x"), "--count", "1",
               "--size", "32", "--seed", "1"])
    assert rc == 2


@pytest.mark.parametrize("size", ["65536x65536", "8x8192", "0x8"])
def test_gen_data_rejects_sizes_beyond_the_cap(tmp_path, capsys, monkeypatch, size):
    _forbid(monkeypatch, datakit, "synth_image")
    out = tmp_path / "x"
    rc = main(["gen-data", "--out", str(out), "--count", "1",
               "--size", size, "--seed", "1"])
    assert rc == 2
    assert "outside [1, 4096]" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_rejects_a_set_beyond_the_dataset_cap(tmp_path, capsys, monkeypatch):
    # each size is valid; 5 x 4 masks x 1024 x 1024 values are not
    _forbid(monkeypatch, datakit, "synth_image")
    out = tmp_path / "x"
    rc = main(["gen-data", "--out", str(out), "--count", "5", "--size", "1024x1024",
               "--seed", "1"])
    assert rc == 2
    assert "over the cap of %d" % DATASET_CAP in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_writes_a_set_at_the_dataset_cap_and_no_larger(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(datakit, "DATASET_CAP", 2 * datakit.DEFAULT_NUM_MASKS * 8 * 8)
    at, over = tmp_path / "at", tmp_path / "over"
    assert main(["gen-data", "--out", str(at), "--count", "2", "--size", "8x8",
                 "--seed", "1"]) == 0
    assert datakit.load_dataset(str(at))[0].count == 2  # and readable
    assert main(["gen-data", "--out", str(over), "--count", "3", "--size", "8x8",
                 "--seed", "1"]) == 2
    assert "over the cap" in capsys.readouterr().err
    assert not over.exists()


@pytest.mark.parametrize("alphas", ["nan", "inf", "9,nan"])
def test_gen_data_rejects_non_finite_noise_levels(tmp_path, capsys, alphas):
    out = tmp_path / "x"
    rc = main(["gen-data", "--out", str(out), "--count", "2", "--size", "8x8",
               "--seed", "1", "--alphas", alphas])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train

@pytest.mark.parametrize("key,value", [
    ("height", "65536"), ("width", "8192"), ("height", "12"), ("masks", "65"), ("masks", "0"),
    ("count", "-3"),
])
def test_train_rejects_manifest_sizes_beyond_the_cap(tmp_path, capsys, monkeypatch,
                                                     key, value):
    data = _gen(tmp_path, seed=8)
    line = _set_manifest(data, key, value)
    _forbid(monkeypatch, datakit, "build_dataset")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m"),
               "--epochs", "1"])
    assert rc == 3
    assert "(line %d)" % line in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "-1"])
def test_train_rejects_manifest_noise_level(tmp_path, capsys, monkeypatch, alpha):
    data = _gen(tmp_path, seed=8)
    line = _set_manifest(data, "sample.1.alpha", alpha)
    _forbid(monkeypatch, datakit, "build_dataset")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m"),
               "--epochs", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "bad alpha %r" % alpha in err and "(line %d)" % line in err


@pytest.mark.parametrize("flag,value,err", [
    ("--K", "65", "K=65 outside [1, 64]"), ("--channels", "1025", "c=1025 outside [1, 1024]"),
])
def test_train_rejects_flags_beyond_the_cap(tmp_path, capsys, monkeypatch, flag, value, err):
    data = _gen(tmp_path, seed=8)
    _forbid(monkeypatch, datakit, "read_manifest")
    _forbid(monkeypatch, datakit, "build_dataset")
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["train", "--data", str(data), "--out", str(out / "m.ckpt"), "--epochs", "1",
               "--K", "1", "--channels", "1", flag, value])
    assert rc == 2
    assert err in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_rejects_non_finite_learning_rate(tmp_path, capsys, monkeypatch, lr):
    data = _gen(tmp_path, seed=8)
    _forbid(monkeypatch, datakit, "read_manifest")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m"), "--epochs", "1",
               "--lr", lr])
    assert rc == 2
    assert "invalid" in capsys.readouterr().err


def test_train_rejects_datasets_beyond_the_size_bound(tmp_path, capsys, monkeypatch):
    # nine lines, each field inside its own cap: 64 masks of 4096x4096 would be 8 GiB
    data = tmp_path / "data"
    data.mkdir()
    (data / datakit.MANIFEST_NAME).write_text(
        "version=1\nheight=4096\nwidth=4096\ncount=1\nseed=1\nmasks=64\n"
        "sample.0.synth_seed=1\nsample.0.alpha=27\nsample.0.mask_seed=1\n")
    _forbid(monkeypatch, datakit, "build_dataset")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m"), "--epochs", "1"])
    assert rc == 3
    assert "over the cap" in capsys.readouterr().err


def test_train_zero_epochs_saves_initialization(tmp_path):
    data = _gen(tmp_path, seed=4)
    ckpt = _train(tmp_path, data, epochs=0, extra=("--seed", "11"))
    net, state = training.checkpoint_load(str(ckpt))
    ref = init_net(8, 8, num_stages=1, channels=1, num_masks=4,
                   mode="structured", rng=derive_rng(11, STREAM_INIT))
    for (n1, a1), (n2, a2) in zip(net.tensors(), ref.tensors()):
        assert n1 == n2
        assert np.array_equal(a1, a2)
    assert state.step == 0


def test_train_writes_default_csv_log(tmp_path):
    data = _gen(tmp_path, seed=5)
    ckpt = _train(tmp_path, data, epochs=2)
    log = ckpt.with_name(ckpt.name + ".csv")
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_psnr,val_ssim,seconds"
    assert len(lines) == 3


def test_train_honors_log_flag(tmp_path):
    data = _gen(tmp_path, seed=5)
    log = tmp_path / "elsewhere.csv"
    _train(tmp_path, data, epochs=1, extra=("--log", str(log)))
    assert log.exists()


def test_train_mode_changes_checkpoint(tmp_path):
    data = _gen(tmp_path, seed=6)
    a = _train(tmp_path, data, "fixed.ckpt", extra=("--mode", "fixed"))
    b = _train(tmp_path, data, "struct.ckpt", extra=("--mode", "structured"))
    assert a.read_bytes() != b.read_bytes()
    na, _ = training.checkpoint_load(str(a))
    assert na.mode == "fixed"


def test_train_deterministic_across_runs(tmp_path):
    data = _gen(tmp_path, seed=7)
    a = _train(tmp_path, data, "r1.ckpt", epochs=2, extra=("--seed", "3"))
    b = _train(tmp_path, data, "r2.ckpt", epochs=2, extra=("--seed", "3"))
    assert a.read_bytes() == b.read_bytes()


def test_train_rejects_bad_flags(tmp_path, capsys):
    data = _gen(tmp_path, seed=8)
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m"),
               "--epochs", "-1"])
    assert rc == 2
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("flag,path,why", [
    ("--out", "nodir/x", "its directory does not exist"),
    ("--log", "nodir/x", "its directory does not exist"),
    ("--out", "data", "it is a directory"),
    ("--log", "data", "it is a directory"),
])
def test_train_checks_output_paths_before_reading_data(tmp_path, capsys, monkeypatch,
                                                       flag, path, why):
    data = _gen(tmp_path, seed=8)
    _forbid(monkeypatch, datakit, "read_manifest")
    _forbid(monkeypatch, datakit, "build_dataset")
    paths = {"--out": str(tmp_path / "m.ckpt"), "--log": str(tmp_path / "l.csv")}
    paths[flag] = str(tmp_path / path)
    rc = main(["train", "--data", str(data), "--epochs", "1", "--K", "1", "--channels", "1",
               "--out", paths["--out"], "--log", paths["--log"]])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cannot write %s: %s" % (paths[flag], why)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def test_train_missing_data_dir(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "absent"),
               "--out", str(tmp_path / "m"), "--epochs", "1"])
    assert rc == 3


def test_train_with_validation_fills_csv(tmp_path):
    data = _gen(tmp_path, "tr", seed=9, size="16x16")
    val = _gen(tmp_path, "va", count=2, seed=10, size="16x16",
               extra=("--test-masks",))
    ckpt = tmp_path / "m.ckpt"
    rc = main(["train", "--data", str(data), "--out", str(ckpt),
               "--epochs", "1", "--K", "1", "--channels", "1", "--batch", "2",
               "--val-data", str(val)])
    assert rc == 0
    row = (tmp_path / "m.ckpt.csv").read_text().splitlines()[1].split(",")
    assert row[3] != "" and row[4] != ""


def test_train_divergence_exits_cleanly(tmp_path, capsys):
    data = _gen(tmp_path, seed=18)
    ckpt = tmp_path / "m.ckpt"
    rc = main(["train", "--data", str(data), "--out", str(ckpt), "--epochs", "2",
               "--K", "1", "--channels", "1", "--batch", "2", "--lr", "1e30"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        "error: training diverged at epoch 1 step 2: loss inf"]
    assert not ckpt.exists() and not (tmp_path / "m.ckpt.csv").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_train_divergence_prints_one_line(tmp_path, threads):
    # at --threads 2 the worker is forked before training starts, so it runs
    # its chunks under no numpy error state inherited from the parent
    data = _gen(tmp_path, seed=18)
    code = ("import sys\n"
            "from unrollpr import cli, training\n"
            "training._usable_cpus = lambda: 2\n"
            "training._map(divmod, [(7, 2)] * %d, %d)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n" % (threads, threads))
    proc = subprocess.run(
        [sys.executable, "-c", code, "train", "--data", str(data),
         "--out", str(tmp_path / "m.ckpt"), "--epochs", "2", "--K", "1", "--channels", "1",
         "--batch", "2", "--lr", "1e30", "--threads", str(threads)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: training diverged at epoch 1 step 2: loss inf"]


def test_train_rejects_validation_images_below_the_ssim_window(tmp_path, capsys,
                                                               monkeypatch):
    data = _gen(tmp_path, "tr", seed=19, size="16x16")
    val = _gen(tmp_path, "va", count=2, seed=20, size="8x8")
    _forbid(monkeypatch, network, "init_net")
    ckpt = tmp_path / "m.ckpt"
    rc = main(["train", "--data", str(data), "--out", str(ckpt), "--epochs", "1",
               "--K", "1", "--channels", "1", "--val-data", str(val)])
    assert rc == 2
    assert "at least 11x11, got (8, 8)" in capsys.readouterr().err
    assert not ckpt.exists() and not (tmp_path / "m.ckpt.csv").exists()


# ---------------------------------------------------------------------------
# eval

def test_eval_bypass_reports_perfect_scores(tmp_path, capsys):
    data = _gen(tmp_path, count=3, size="16x16", seed=12)
    ckpt = _train(tmp_path, data, epochs=0)
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--bypass",
               "--csv", str(tmp_path / "e.csv")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4
    for line in out[:-1]:
        assert "psnr=inf" in line and "ssim=1.0" in line
    assert out[-1] == "mean psnr=inf ssim=1.0"
    assert (tmp_path / "e.csv").read_text().splitlines()[1:] == [
        "img_%04d.pgm,%s,inf,1.0" % (i, a) for i, a in enumerate((9, 27, 81))]


def test_eval_mean_matches_rows(tmp_path, capsys):
    data = _gen(tmp_path, count=3, size="16x16", seed=13)
    ckpt = _train(tmp_path, data, epochs=1)
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    ps = [float(ln.split("psnr=")[1].split()[0]) for ln in lines[:-1]]
    mean = float(lines[-1].split("psnr=")[1].split()[0])
    assert abs(mean - np.mean(ps)) <= 1e-12


def test_eval_csv_matches_stdout(tmp_path, capsys):
    data = _gen(tmp_path, count=2, size="16x16", seed=14)
    ckpt = _train(tmp_path, data, epochs=1)
    csv = tmp_path / "scores.csv"
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data),
               "--csv", str(csv)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    rows = csv.read_text().splitlines()
    assert rows[0] == "name,alpha,psnr,ssim"
    assert len(rows) == 3
    for text_line, csv_line in zip(out[:-1], rows[1:]):
        cells = csv_line.split(",")
        assert cells[0] in text_line
        assert ("psnr=" + cells[2]) in text_line
        assert ("ssim=" + cells[3]) in text_line


def test_eval_csv_quotes_a_name_with_a_comma_or_quote(tmp_path):
    data = _gen(tmp_path, count=2, size="16x16", seed=14)
    name = 'a,"b".pgm'
    (data / "img_0000.pgm").rename(data / name)
    _set_manifest(data, "sample.0.image", name)
    ckpt = _train(tmp_path, data, epochs=0)
    out = tmp_path / "scores.csv"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--csv", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert [row[0] for row in rows] == ["name", name, "img_0001.pgm"]
    assert all(len(row) == 4 for row in rows)
    assert out.read_text().splitlines()[2].startswith("img_0001.pgm,27,")


def test_eval_empty_dataset(tmp_path, capsys):
    data = _gen(tmp_path, "full", count=2, size="16x16", seed=15)
    empty = _gen(tmp_path, "none", count=0, size="16x16", seed=15)
    ckpt = _train(tmp_path, data, epochs=0)
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(empty)])
    assert rc == 3
    assert "empty" in capsys.readouterr().err


def test_eval_shape_mismatch_names_both_shapes(tmp_path, capsys):
    small = _gen(tmp_path, "small", size="8x8", seed=16)
    big = _gen(tmp_path, "big", size="16x16", seed=16)
    ckpt = _train(tmp_path, small, epochs=0)
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(big)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "8x8" in err and "16x16" in err


def test_eval_checks_shapes_before_building_the_dataset(tmp_path, capsys, monkeypatch):
    small = _gen(tmp_path, "small", size="8x8", seed=16)
    big = _gen(tmp_path, "big", size="16x16", seed=16)
    ckpt = _train(tmp_path, small, epochs=0)

    def no_build(*args, **kwargs):
        raise AssertionError("dataset built before the shape check")

    monkeypatch.setattr(datakit, "build_dataset", no_build)
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(big)])
    assert rc == 4
    assert "16x16" in capsys.readouterr().err


def test_eval_rejects_images_below_the_ssim_window_before_building(tmp_path, capsys,
                                                                  monkeypatch):
    data = _gen(tmp_path, size="8x8", seed=21)
    ckpt = _train(tmp_path, data, epochs=0)
    _forbid(monkeypatch, datakit, "build_dataset")
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
    assert rc == 2
    assert "at least 11x11, got (8, 8)" in capsys.readouterr().err


def test_eval_missing_checkpoint(tmp_path):
    data = _gen(tmp_path, size="16x16", seed=17)
    rc = main(["eval", "--ckpt", str(tmp_path / "none.ckpt"),
               "--data", str(data)])
    assert rc == 3


def test_eval_checks_the_csv_directory_before_any_forward(tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path, count=2, size="16x16", seed=12)
    ckpt = _train(tmp_path, data, epochs=0)
    _forbid(monkeypatch, datakit, "build_dataset")
    _forbid(monkeypatch, network, "net_forward")
    csv_path = str(tmp_path / "nodir" / "e.csv")
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--csv", csv_path])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: cannot write %s: its directory does not exist" % csv_path]


# ---------------------------------------------------------------------------
# reconstruct

def test_reconstruct_checks_the_output_directory_before_any_forward(tmp_path, capsys,
                                                                     monkeypatch):
    data = _gen(tmp_path, size="16x16", seed=18)
    ckpt = _train(tmp_path, data, epochs=0)
    _forbid(monkeypatch, network, "net_forward")
    _forbid(monkeypatch, datakit, "load_pgm")
    out = str(tmp_path / "nodir" / "r.pgm")
    capsys.readouterr()
    rc = main(["reconstruct", "--ckpt", str(ckpt), "--input", str(data / "img_0000.pgm"),
               "--alpha", "27", "--seed", "1", "--out", out])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: cannot write %s: its directory does not exist" % out]


def test_reconstruct_deterministic(tmp_path, capsys):
    data = _gen(tmp_path, size="16x16", seed=18)
    ckpt = _train(tmp_path, data, epochs=1)
    args = ["reconstruct", "--ckpt", str(ckpt),
            "--input", str(data / "img_0000.pgm"),
            "--alpha", "27", "--seed", "99"]
    assert main(args + ["--out", str(tmp_path / "r1.pgm")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2.pgm")]) == 0
    assert (tmp_path / "r1.pgm").read_bytes() == (tmp_path / "r2.pgm").read_bytes()
    assert "psnr=" in capsys.readouterr().out


def test_reconstruct_seed_changes_output(tmp_path):
    data = _gen(tmp_path, size="16x16", seed=19)
    ckpt = _train(tmp_path, data, epochs=1)
    base = ["reconstruct", "--ckpt", str(ckpt),
            "--input", str(data / "img_0000.pgm"), "--alpha", "27"]
    main(base + ["--seed", "1", "--out", str(tmp_path / "a.pgm")])
    main(base + ["--seed", "2", "--out", str(tmp_path / "b.pgm")])
    assert (tmp_path / "a.pgm").read_bytes() != (tmp_path / "b.pgm").read_bytes()


def test_reconstruct_negative_alpha(tmp_path, capsys):
    data = _gen(tmp_path, size="16x16", seed=20)
    ckpt = _train(tmp_path, data, epochs=0)
    rc = main(["reconstruct", "--ckpt", str(ckpt),
               "--input", str(data / "img_0000.pgm"),
               "--alpha", "-1", "--seed", "1",
               "--out", str(tmp_path / "r.pgm")])
    assert rc == 2
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_reconstruct_non_finite_alpha(tmp_path, capsys, monkeypatch, alpha):
    data = _gen(tmp_path, size="16x16", seed=20)
    ckpt = _train(tmp_path, data, epochs=0)
    _forbid(monkeypatch, training, "checkpoint_load")
    rc = main(["reconstruct", "--ckpt", str(ckpt),
               "--input", str(data / "img_0000.pgm"),
               "--alpha", alpha, "--seed", "1",
               "--out", str(tmp_path / "r.pgm")])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "r.pgm").exists()


def test_reconstruct_missing_checkpoint(tmp_path):
    data = _gen(tmp_path, size="16x16", seed=21)
    rc = main(["reconstruct", "--ckpt", str(tmp_path / "none.ckpt"),
               "--input", str(data / "img_0000.pgm"),
               "--alpha", "27", "--seed", "1",
               "--out", str(tmp_path / "r.pgm")])
    assert rc == 3


def test_reconstruct_shape_mismatch(tmp_path, capsys):
    data = _gen(tmp_path, "d8", size="8x8", seed=22)
    other = _gen(tmp_path, "d16", size="16x16", seed=22)
    ckpt = _train(tmp_path, data, epochs=0)
    rc = main(["reconstruct", "--ckpt", str(ckpt),
               "--input", str(other / "img_0000.pgm"),
               "--alpha", "27", "--seed", "1",
               "--out", str(tmp_path / "r.pgm")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "8x8" in err and "16x16" in err


# exit code and the whole stderr of each rejected input
REJECTED = {
    "eval-shape": (4, "error: checkpoint expects 8x8 with 4 masks, data is 16x16 with 4 masks"),
    "eval-empty": (3, "error: data directory is empty"),
    "reconstruct-shape": (4, "error: checkpoint expects 8x8, input image is 16x16"),
    "reconstruct-alpha": (2, "error: alpha must be finite and nonnegative, got -1.0"),
    "train-log-is-out": (2, "error: --out and --log name the same file"),
    "train-out-is-manifest": (2, "error: the --data manifest and --out name the same file"),
    "train-log-is-val-manifest": (2, "error: the --val-data manifest and --log name the same file"),
    "eval-csv-is-ckpt": (2, "error: --ckpt and --csv name the same file"),
    "reconstruct-out-is-ckpt": (2, "error: --ckpt and --out name the same file"),
    "reconstruct-out-is-input": (2, "error: --input and --out name the same file"),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_a_rejected_input_prints_one_error_line(tmp_path, capsys, case):
    d8 = _gen(tmp_path, "d8", size="8x8", seed=23)
    d16 = _gen(tmp_path, "d16", size="16x16", seed=23)
    empty = _gen(tmp_path, "none", count=0, size="8x8", seed=23)
    ckpt = str(_train(tmp_path, d8, epochs=0))
    recon = ["reconstruct", "--ckpt", ckpt, "--seed", "1", "--out", str(tmp_path / "r.pgm")]
    argv = {
        "eval-shape": ["eval", "--ckpt", ckpt, "--data", str(d16)],
        "eval-empty": ["eval", "--ckpt", ckpt, "--data", str(empty)],
        "reconstruct-shape": recon + ["--input", str(d16 / "img_0000.pgm"), "--alpha", "27"],
        "reconstruct-alpha": recon + ["--input", str(d8 / "img_0000.pgm"), "--alpha", "-1"],
        # an absent data directory would exit 3: the paths are checked first
        "train-log-is-out": ["train", "--data", str(tmp_path / "absent"), "--epochs", "1",
                             "--out", str(tmp_path / "m.ckpt"),
                             "--log", str(tmp_path) + "/./m.ckpt"],
        # an output is compared with the inputs by the file it names
        "train-out-is-manifest": ["train", "--data", str(d8), "--epochs", "1",
                                  "--out", str(d8 / ".." / "d8" / "manifest.txt")],
        "train-log-is-val-manifest": ["train", "--data", str(d8), "--epochs", "1",
                                      "--out", str(tmp_path / "m.ckpt"), "--val-data", str(d16),
                                      "--log", str(d16 / "manifest.txt")],
        "eval-csv-is-ckpt": ["eval", "--ckpt", ckpt, "--data", str(d8), "--csv", ckpt],
        "reconstruct-out-is-ckpt": ["reconstruct", "--ckpt", ckpt, "--seed", "1", "--out", ckpt,
                                    "--input", str(d8 / "img_0000.pgm"), "--alpha", "27"],
        "reconstruct-out-is-input": recon[:-1] + [str(d8 / "img_0001.pgm"), "--alpha", "27",
                                                  "--input", str(d8 / "img_0001.pgm")],
    }[case]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    code, line = REJECTED[case]
    assert main(argv) == code
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "r.pgm").exists()
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_an_image_unlike_its_manifest_exits_3(tmp_path, capsys):
    # a malformed data set is an I/O error, whichever field is wrong
    d16 = _gen(tmp_path, "d16", size="16x16", seed=24)
    d32 = _gen(tmp_path, "d32", count=2, size="32x32", seed=24)
    ckpt = str(_train(tmp_path, d16, epochs=0))
    (d16 / "img_0001.pgm").write_bytes((d32 / "img_0001.pgm").read_bytes())
    capsys.readouterr()
    for argv in (["eval", "--ckpt", ckpt, "--data", str(d16)],
                 ["train", "--data", str(d16), "--out", str(tmp_path / "m2.ckpt"),
                  "--epochs", "1", "--K", "1", "--channels", "1"]):
        assert main(argv) == 3
        assert capsys.readouterr().err == \
            "error: sample 1: image is (32, 32), manifest says 16x16\n"
    assert not (tmp_path / "m2.ckpt").exists()


# ---------------------------------------------------------------------------
# selfcheck

def test_selfcheck_quick_passes(tmp_path, capsys):
    rc = main(["selfcheck", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "selfcheck passed" in out
    assert "FAIL" not in out


def test_selfcheck_detects_injected_adjoint_fault(capsys):
    rc = main(["selfcheck", "--quick", "--inject-fault", "adjoint"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "selfcheck FAILED" in out
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert fails and any("adjoint" in ln for ln in fails)


# ---------------------------------------------------------------------------
# process-level behavior

def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "unrollpr.cli"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_module_entry_point_unknown_command():
    proc = subprocess.run(
        [sys.executable, "-m", "unrollpr.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_module_entry_point_selfcheck_quick():
    proc = subprocess.run(
        [sys.executable, "-m", "unrollpr.cli", "selfcheck", "--quick"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "selfcheck passed" in proc.stdout


def test_public_names_resolve_and_the_readme_import_runs():
    star = {}
    exec("from unrollpr import *", star)  # AttributeError on a stale __all__ entry
    assert set(unrollpr.__all__) <= set(star)
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library", 1)[1]
    line = re.search(r"^from unrollpr import \([^)]*\)", example, re.M).group(0)
    names = {}
    exec(line, names)
    documented = re.findall(r"\w+", line.split("(", 1)[1])
    assert documented and set(documented) <= set(names) & set(unrollpr.__all__)
    # the whole block runs, on a two-image set of the shape it measures
    block = re.search(r"^```python\n(.*?)^```", example, re.M | re.S).group(1)
    records = [datakit.SampleRecord(alpha=27.0, mask_seed=7, synth_seed=s) for s in (1, 2)]
    dataset = datakit.build_dataset(datakit.DatasetManifest(32, 32, 5, 4, records))
    scope = {"img": dataset[0][0], "dataset": dataset}
    exec(block, scope)
    assert len(scope["history"]) == 30 and scope["state"].step == 31


def _record_forward_sizes(monkeypatch):
    """Images in each block that an eval forward runs through all stages."""
    sizes = []
    real = network._run_stages

    def wrapped(x, y, ms, params, caches=None):
        sizes.append(len(x))
        return real(x, y, ms, params, caches)

    monkeypatch.setattr(network, "_run_stages", wrapped)
    return sizes


def test_eval_runs_in_bounded_chunks_with_whole_set_output(tmp_path, capsys, monkeypatch):
    block, n = 5, 13
    image_bytes = 16 * 16 * (16 * 4 + 8 * 1)  # 16x16, J=4, c=1
    monkeypatch.setattr(network, "_BLOCK_BYTES", block * image_bytes)
    data = _gen(tmp_path, count=n, size="16x16", seed=16)
    ckpt = _train(tmp_path, data, epochs=0)
    sizes = _record_forward_sizes(monkeypatch)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--csv", str(tmp_path / "chunked.csv")]) == 0
    chunked = capsys.readouterr().out
    assert sizes == [block, block, 3]
    sizes.clear()
    monkeypatch.setattr(network, "_BLOCK_BYTES", n * image_bytes)
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--csv", str(tmp_path / "whole.csv")]) == 0
    assert sizes == [n]
    assert capsys.readouterr().out == chunked
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
