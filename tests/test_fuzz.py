"""Deterministic mutation fuzz of the files the command line reads.

One child process, its address space capped, runs every mutant of a
manifest, a PGM, a version 2 checkpoint and the version 1 fixture through
``cli.main``: ``train`` for data mutants, ``eval`` for checkpoint mutants.
Each must exit 0, 2, 3 or 4 without raising or printing a traceback.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import re
import shutil
import struct
import subprocess
import sys

import pytest

import unrollpr
from unrollpr import datakit
from unrollpr.cli import main
from unrollpr.training import fnv1a64

SRC = os.path.dirname(os.path.dirname(os.path.abspath(unrollpr.__file__)))
V1_FIXTURE = pathlib.Path(__file__).parent / "data" / "ckpt_v1_tiny.ckpt"
SEEDS = range(400)
AS_LIMIT = 2 << 30
CLEAN_EXITS = (0, 2, 3, 4)
TARGETS = ("manifest", "pgm", "v2", "v1")
# values a field edit writes into a manifest line, a PGM header field or,
# as a u32, a checkpoint header field
HOSTILE = ("0", "-1", "1", "3", "64", "65", "1025", "4096", "4097", "12000", "65536",
           "4294967295", "99999999999999999999", "nan", "inf", "1e9", "x", "")
HOSTILE_FLOATS = (math.inf, -math.inf, math.nan, -1.0, 1e300, 0.5, 2.0 ** 64)


def _run(argv):
    """``cli.main`` in this process: (exit code, or the exception it raised; output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = main(argv)
        except Exception as e:  # reported by the parent, naming the mutant
            rc = "raised %s: %s" % (type(e).__name__, e)
    return rc, out.getvalue()


def _resign(data, version):
    """Replace a checkpoint's trailing digest with the one its body hashes to."""
    if version == 1:
        body = data[:-8]
        return body + struct.pack("<Q", fnv1a64(bytes(body)))
    body = data[:-32]
    return body + hashlib.sha256(body).digest()


def _field_edit(rng, target, data):
    value = rng.choice(HOSTILE)
    if target == "manifest":
        lines = data.decode("utf-8").splitlines()
        at = rng.randrange(len(lines))
        lines[at] = "%s=%s" % (lines[at].split("=", 1)[0], value)
        return bytearray(("\n".join(lines) + "\n").encode("utf-8"))
    if target == "pgm":
        head = re.match(rb"(P5)\s+(\S+)\s+(\S+)\s+(\S+)\s", data)
        if head is None:  # an earlier op broke the header
            return data
        tokens = list(head.groups())
        tokens[rng.randint(1, 3)] = value.encode("ascii")
        return bytearray(b" ".join(tokens) + b"\n" + data[head.end():])
    version, trailer = (1, 8) if target == "v1" else (2, 32)
    if rng.random() < 0.5:  # a header field: version, K, c, J, h, w, mode, flags
        at = 4 + 4 * rng.randrange(8)
        n = int(value) if value.isdigit() else rng.randrange(2 ** 32)
        data[at:at + 4] = struct.pack("<I", n % 2 ** 32)
        return data
    # a float in the body, with the digest made to match: past the integrity check
    at = 36 + 8 * rng.randrange((len(data) - 36 - trailer) // 8)
    data[at:at + 8] = struct.pack("<d", rng.choice(HOSTILE_FLOATS))
    return bytearray(_resign(data, version))


def _mutate(rng, target, original):
    data = bytearray(original)
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("flip", "truncate", "insert", "field"))
        if op == "flip" and data:
            data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        elif op == "truncate":
            del data[rng.randrange(len(data) + 1):]
        elif op == "insert":
            at = rng.randrange(len(data) + 1)
            data[at:at] = rng.randbytes(rng.randint(1, 8))
        else:
            try:
                data = _field_edit(rng, target, data)
            except ValueError:  # an earlier op broke the layout
                pass
    return bytes(data)


def _child(work, v1_path):
    """Build the inputs, run every mutant and the fixed cases, print a report."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))
    work = pathlib.Path(work)
    data, data8, mut, out = (work / n for n in ("data", "data8", "mut", "out"))
    for d, size in ((data, "16x16"), (data8, "8x8")):
        rc, text = _run(["gen-data", "--out", str(d), "--count", "3", "--size", size,
                         "--seed", "1"])
        assert rc == 0, text
    # the version 1 fixture has two masks
    manifest8 = data8 / datakit.MANIFEST_NAME
    manifest8.write_text(manifest8.read_text().replace("masks=4", "masks=2"))
    v2_path = work / "v2.ckpt"
    rc, text = _run(["train", "--data", str(data), "--out", str(v2_path), "--epochs", "1",
                     "--K", "1", "--channels", "1", "--batch", "2"])
    assert rc == 0, text
    originals = {
        "manifest": (data / datakit.MANIFEST_NAME).read_bytes(),
        "pgm": (data / "img_0000.pgm").read_bytes(),
        "v2": v2_path.read_bytes(),
        "v1": pathlib.Path(v1_path).read_bytes(),
    }
    train = ["train", "--data", str(mut), "--out", str(out / "m.ckpt"), "--epochs", "1",
             "--K", "1", "--channels", "1", "--batch", "2"]

    def run_data(name, content):
        shutil.rmtree(mut, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(data, mut)
        out.mkdir()
        (mut / name).write_bytes(content)
        return _run(train)

    outcomes, bad = {}, []
    for seed in SEEDS:
        rng = random.Random(seed)
        target = TARGETS[seed % len(TARGETS)]
        content = _mutate(rng, target, originals[target])
        if target == "manifest":
            rc, text = run_data(datakit.MANIFEST_NAME, content)
        elif target == "pgm":
            rc, text = run_data("img_0000.pgm", content)
        else:
            ckpt = work / "mutant.ckpt"
            ckpt.write_bytes(content)
            rc, text = _run(["eval", "--ckpt", str(ckpt),
                             "--data", str(data if target == "v2" else data8)])
        outcomes[str(rc)] = outcomes.get(str(rc), 0) + 1
        if rc not in CLEAN_EXITS or "Traceback" in text:
            bad.append("%s mutant %d: %s %s" % (target, seed, rc, text[-300:]))

    # hand-made inputs, each with the one outcome it must have
    header = b"P5\n12000 12000\n255\n"
    shutil.rmtree(mut, ignore_errors=True)
    shutil.copytree(data, mut)
    with open(mut / "img_0000.pgm", "wb") as f:
        f.write(header)
        f.truncate(len(header) + 12000 * 12000)  # sparse: no disk blocks behind it
    fixed = {"pgm 12000x12000": _run(train)}
    shutil.rmtree(mut)
    mut.mkdir()
    (mut / datakit.MANIFEST_NAME).write_text(
        "version=1\nheight=4096\nwidth=4096\ncount=1\nseed=1\nmasks=64\n"
        "sample.0.synth_seed=1\nsample.0.alpha=27\nsample.0.mask_seed=1\n")
    fixed["manifest 64 masks of 4096x4096"] = _run(train)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    fixed["train --K 65"] = _run(["train", "--data", str(data), "--out", str(out / "m.ckpt"),
                                  "--epochs", "1", "--K", "65", "--channels", "1"])
    fixed["train --K 65"] += (sorted(os.listdir(out)),)
    print(json.dumps({"outcomes": outcomes, "bad": bad, "fixed": fixed}))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_mutants_exit_cleanly_under_a_memory_cap(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, str(tmp_path), str(V1_FIXTURE)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["bad"] == []
    assert sum(report["outcomes"].values()) == len(SEEDS)
    assert set(report["outcomes"]) >= {"0", "3"}  # some mutants still train or evaluate
    rc, text = report["fixed"]["pgm 12000x12000"]
    assert rc == 3 and "bad dimensions 12000x12000" in text, text
    rc, text = report["fixed"]["manifest 64 masks of 4096x4096"]
    assert rc == 3 and "over the cap" in text, text
    rc, text, written = report["fixed"]["train --K 65"]
    assert rc == 2 and "K=65 outside [1, 64]" in text, text
    assert written == []


if __name__ == "__main__":
    _child(*sys.argv[1:])
