"""Memory the forward pass holds and the heap policy set on import."""

import ctypes
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import unrollpr
from unrollpr import cdp, network
from unrollpr.field import SeededRng

SRC = os.path.dirname(os.path.dirname(os.path.abspath(unrollpr.__file__)))


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)


# ---------------------------------------------------------------------------
# forward tape

def _held_bytes(obj):
    """Bytes of the distinct base buffers reachable through dicts, lists and
    tuples: each array counts once, however many views point into it."""
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
    return sum(owners.values())


def _tape(batch, mode="structured", h=32):
    net = network.init_net(h, h, num_stages=1, channels=8, num_masks=4, mode=mode,
                           rng=SeededRng(1))
    y = SeededRng(2).uniform(batch * 4 * h * h).reshape(batch, 4, h, h)
    masks = np.stack([cdp.masks_from_seed(20 + i, 4, h, h).masks
                      for i in range(batch)])
    return network.net_forward(y, masks, net, record=True)[1]


@pytest.mark.parametrize("mode,h,bound", [
    ("fixed", 32, 525440),
    ("structured", 32, 656512),
    ("dense", 8, 46720),
], ids=["fixed", "structured", "dense"])
def test_stage_tape_bytes_per_image(mode, h, bound):
    # one c=8, J=4 stage; the difference of two batch sizes leaves the
    # per-image bytes (parameters are shared and cancel)
    def held(batch):
        tape = _tape(batch, mode, h)
        return _held_bytes([tape.stage_caches, tape.x0, tape.output])

    per_image = held(2) - held(1)
    # structured 32x32: measurements, masks and their conjugate, x0 and
    # output (176 KiB) plus the stage caches (465 KiB): |z|, phase, W^H
    # resid, FFT of the input, resid, the prox input, and three padded-row
    # conv outputs (the two ReLU outputs and the codes, shrunk in place);
    # the unshrunk codes are not kept.  Fixed mode keeps neither the FFT of
    # the input nor resid; dense keeps the flattened modulated input and
    # resid in their place.
    assert per_image <= bound


def test_operator_caches_keep_their_keys():
    c_sgd, _ = _tape(1).stage_caches[0]
    assert c_sgd["op"]["mode"] == "structured" and c_sgd["adj"]["mode"] == "structured"
    c_sgd, _ = _tape(1, mode="dense", h=8).stage_caches[0]
    assert c_sgd["op"]["mode"] == "dense" and c_sgd["op"]["uf"].shape[-1] == 64
    assert c_sgd["adj"]["mode"] == "dense" and c_sgd["adj"]["zf"].shape[-1] == 64


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
def test_unrecorded_forward_holds_no_tape():
    # a desk-shaped 200-image forward: recorded, its tape is ~700 MB
    def peak_growth(record):
        proc = _run(
            "import resource\n"
            "import numpy as np\n"
            "from unrollpr import cdp, network\n"
            "from unrollpr.field import SeededRng\n"
            "net = network.init_net(32, 32, num_stages=7, channels=8, num_masks=4,\n"
            "                       mode='structured', rng=SeededRng(1))\n"
            "y = SeededRng(2).uniform(200 * 4 * 1024).reshape(200, 4, 32, 32)\n"
            "masks = np.stack([cdp.masks_from_seed(20 + i % 10, 4, 32, 32).masks\n"
            "                  for i in range(200)])\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "x, tape = network.net_forward(y, masks, net, record=" + repr(record) + ")\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    recorded = peak_growth(True)
    assert peak_growth(False) < recorded / 4


# ---------------------------------------------------------------------------
# heap policy

class _NoMallopt:
    """A loaded libc without the symbol, as on macOS."""


def _raising(exc):
    def cdll(name):
        raise exc
    return cdll


@pytest.mark.parametrize("cdll", [
    lambda name: _NoMallopt(),
    _raising(OSError("no libc")),
    _raising(TypeError("CDLL(None) unsupported")),  # as on Windows
])
def test_keep_freed_memory_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert unrollpr._keep_freed_memory() is None


def test_import_without_mallopt():
    proc = _run(
        "import ctypes\n"
        "class NoMallopt: pass\n"
        "ctypes.CDLL = lambda *a, **k: NoMallopt()\n"
        "import unrollpr\n"
        "print(unrollpr.__version__)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == unrollpr.__version__


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="mallopt thresholds are a glibc feature",
)
def test_repeated_forward_reuses_freed_memory():
    # a desk-sized 10-image forward allocates ~40 MB of tape; once the first
    # call's tape is freed, the second call is served from the heap
    proc = _run(
        "import resource\n"
        "import numpy as np\n"
        "from unrollpr import cdp, network\n"
        "from unrollpr.field import SeededRng\n"
        "net = network.init_net(32, 32, num_stages=7, channels=8, num_masks=4,\n"
        "                       mode='structured', rng=SeededRng(1))\n"
        "y = SeededRng(2).uniform(10 * 4 * 1024).reshape(10, 4, 32, 32)\n"
        "masks = np.stack([cdp.masks_from_seed(20 + i, 4, 32, 32).masks\n"
        "                  for i in range(10)])\n"
        "x, tape = network.net_forward(y, masks, net, record=True)\n"
        "del x, tape\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "x, tape = network.net_forward(y, masks, net, record=True)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 300
