"""Dataset synthesis, PGM image I/O, manifests, and measurement generation.

A dataset on disk is a manifest plus a directory of 8-bit binary PGM
images; measurements are always regenerated from the recorded seeds, never
stored, so the manifest fully determines every byte of the built dataset.
Manifest lines are UTF-8 ``key=value`` pairs:

    version=1
    height=32
    width=32
    count=2
    seed=123
    masks=4
    sample.0.image=img_0000.pgm     (or sample.0.synth_seed=...)
    sample.0.alpha=27
    sample.0.mask_seed=8812437

Held-out sets draw their mask seeds from a separate stream domain than
training sets, so the two never share a mask distribution.
"""

import os
import secrets
from dataclasses import dataclass

import numpy as np

from .cdp import masks_from_seed, measure
from .errors import FormatError, UnsupportedFormatError, UnsupportedVersionError
from .field import (
    STREAM_MASKS_TEST,
    STREAM_MASKS_TRAIN,
    STREAM_NOISE,
    STREAM_SYNTH,
    SeededRng,
    check_spatial_pow2,
    derive_rng,
)

MANIFEST_NAME = "manifest.txt"
MANIFEST_VERSION = 1
DEFAULT_NUM_MASKS = 4
DEFAULT_ALPHAS = (9, 27, 81)
_SEED_RANGE = 2 ** 62


def synth_image(rng, h, w):
    """Random piecewise-smooth test image: Gaussian blobs plus rectangles.

    3 to 8 blobs and 0 to 3 axis-aligned rectangles, additive, clipped to
    [0,1].  Fully determined by the rng key.
    """
    check_spatial_pow2((h, w))
    img = np.zeros((h, w))
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    scale = min(h, w)
    n_blobs = int(rng.integers(3, 9))
    for _ in range(n_blobs):
        u = rng.uniform(4)
        cy, cx = u[0] * h, u[1] * w
        sig = (0.06 + 0.14 * u[2]) * scale
        amp = 0.2 + 0.5 * u[3]
        img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sig ** 2))
    n_rects = int(rng.integers(0, 4))
    for _ in range(n_rects):
        u = rng.uniform(5)
        y0 = int(u[0] * h)
        x0 = int(u[1] * w)
        dy = 1 + int(u[2] * 0.4 * h)
        dx = 1 + int(u[3] * 0.4 * w)
        amp = 0.1 + 0.4 * u[4]
        img[y0:y0 + dy, x0:x0 + dx] += amp
    return np.clip(img, 0.0, 1.0)


# ---------------------------------------------------------------------------
# PGM I/O (binary P5, maxval 255 only)

def atomic_write(path, data):
    """Write ``data`` (bytes, or an iterable of byte buffers written in
    order) via temp file + rename; no partial output on error.  The file
    gets mode 0666 less the umask, as ``open(path, "wb")`` would give."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, ".tmp-%s~" % secrets.token_hex(8))
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in data:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_pgm(image, path):
    """Quantize a [0,1] image to 8 bits and write binary PGM."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be 2D, got shape %r" % (img.shape,))
    q = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = q.shape
    header = ("P5\n%d %d\n255\n" % (w, h)).encode("ascii")
    atomic_write(path, header + q.tobytes())


class _PgmScanner:
    """Tokenizer for the PGM header: whitespace-separated, # comments."""

    def __init__(self, data):
        self.data = data
        self.pos = 0
        self.line = 1

    def _advance(self):
        while self.pos < len(self.data):
            b = self.data[self.pos]
            if b == 0x23:  # '#': comment to end of line
                while self.pos < len(self.data) and self.data[self.pos] != 0x0A:
                    self.pos += 1
            elif b in (0x20, 0x09, 0x0D, 0x0A):
                if b == 0x0A:
                    self.line += 1
                self.pos += 1
            else:
                return

    def token(self, what):
        self._advance()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] not in (
            0x20, 0x09, 0x0D, 0x0A, 0x23,
        ):
            self.pos += 1
        if self.pos == start:
            raise FormatError(
                "missing %s in PGM header (line %d)" % (what, self.line),
                offset=start,
            )
        return self.data[start:self.pos]

    def int_token(self, what):
        tok = self.token(what)
        try:
            return int(tok)
        except ValueError:
            raise FormatError(
                "bad %s %r in PGM header (line %d)" % (what, tok, self.line),
                offset=self.pos,
            ) from None


def load_pgm(path):
    """Read a binary PGM into a [0,1] float image."""
    with open(path, "rb") as f:
        data = f.read()
    sc = _PgmScanner(data)
    magic = sc.token("magic")
    if magic == b"P2":
        raise UnsupportedFormatError("ASCII PGM (P2) not supported, need binary P5")
    if magic != b"P5":
        raise FormatError("not a PGM file, magic %r" % magic, offset=0)
    w = sc.int_token("width")
    h = sc.int_token("height")
    maxval = sc.int_token("maxval")
    if w <= 0 or h <= 0:
        raise FormatError("bad dimensions %dx%d (line %d)" % (w, h, sc.line))
    if maxval != 255:
        raise UnsupportedFormatError("maxval %d not supported, need 255" % maxval)
    # exactly one whitespace byte separates header from raster
    if sc.pos >= len(data) or data[sc.pos] not in (0x20, 0x09, 0x0D, 0x0A):
        raise FormatError("missing raster separator", offset=sc.pos)
    start = sc.pos + 1
    need = h * w
    if len(data) - start < need:
        raise FormatError(
            "raster truncated: need %d bytes, have %d" % (need, len(data) - start),
            offset=len(data),
        )
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=start)
    return raw.reshape(h, w).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# manifests

@dataclass
class SampleRecord:
    """One dataset entry: where the image comes from, and its measurement key."""

    alpha: float
    mask_seed: int
    image: str = None  # relative path to a PGM, or
    synth_seed: int = None  # seed for on-the-fly synthesis


@dataclass
class DatasetManifest:
    height: int
    width: int
    seed: int
    num_masks: int = DEFAULT_NUM_MASKS
    records: list = None

    @property
    def count(self):
        return len(self.records)


def write_manifest(manifest, path):
    lines = [
        "version=%d" % MANIFEST_VERSION,
        "height=%d" % manifest.height,
        "width=%d" % manifest.width,
        "count=%d" % manifest.count,
        "seed=%d" % manifest.seed,
        "masks=%d" % manifest.num_masks,
    ]
    for i, rec in enumerate(manifest.records):
        if rec.image is not None:
            lines.append("sample.%d.image=%s" % (i, rec.image))
        else:
            lines.append("sample.%d.synth_seed=%d" % (i, rec.synth_seed))
        lines.append("sample.%d.alpha=%s" % (i, ("%g" % rec.alpha)))
        lines.append("sample.%d.mask_seed=%d" % (i, rec.mask_seed))
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _parse_int(value, key, line_no):
    try:
        return int(value)
    except ValueError:
        raise FormatError("bad integer for %s (line %d)" % (key, line_no)) from None


def read_manifest(path):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    head = {}
    samples = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError("expected key=value (line %d)" % line_no)
        key, value = line.split("=", 1)
        key = key.strip()
        if key.startswith("sample."):
            parts = key.split(".")
            if len(parts) != 3:
                raise FormatError("bad sample key %r (line %d)" % (key, line_no))
            idx = _parse_int(parts[1], key, line_no)
            field_name = parts[2]
            if field_name not in ("image", "synth_seed", "alpha", "mask_seed"):
                raise FormatError("unknown sample field %r (line %d)" % (key, line_no))
            samples.setdefault(idx, {})[field_name] = (value, line_no)
        elif key in ("version", "height", "width", "count", "seed", "masks"):
            head[key] = (value, line_no)
        else:
            raise FormatError("unknown key %r (line %d)" % (key, line_no))
    for need in ("version", "height", "width", "count", "seed", "masks"):
        if need not in head:
            raise FormatError("manifest missing %s" % need)
    version = _parse_int(head["version"][0], "version", head["version"][1])
    if version != MANIFEST_VERSION:
        raise UnsupportedVersionError("manifest version %d unsupported" % version)
    count = _parse_int(head["count"][0], "count", head["count"][1])
    manifest = DatasetManifest(
        height=_parse_int(head["height"][0], "height", head["height"][1]),
        width=_parse_int(head["width"][0], "width", head["width"][1]),
        seed=_parse_int(head["seed"][0], "seed", head["seed"][1]),
        num_masks=_parse_int(head["masks"][0], "masks", head["masks"][1]),
        records=[],
    )
    for i in range(count):
        if i not in samples:
            raise FormatError("manifest missing sample.%d.* records" % i)
        rec = samples[i]
        if "alpha" not in rec or "mask_seed" not in rec:
            raise FormatError("sample %d missing alpha or mask_seed" % i)
        try:
            alpha = float(rec["alpha"][0])
        except ValueError:
            raise FormatError(
                "bad alpha (line %d)" % rec["alpha"][1]
            ) from None
        image = rec["image"][0] if "image" in rec else None
        synth_seed = (
            _parse_int(rec["synth_seed"][0], "synth_seed", rec["synth_seed"][1])
            if "synth_seed" in rec else None
        )
        if (image is None) == (synth_seed is None):
            raise FormatError("sample %d needs exactly one of image or synth_seed" % i)
        manifest.records.append(
            SampleRecord(
                alpha=alpha,
                mask_seed=_parse_int(rec["mask_seed"][0], "mask_seed", rec["mask_seed"][1]),
                image=image,
                synth_seed=synth_seed,
            )
        )
    extra = set(samples) - set(range(count))
    if extra:
        raise FormatError("sample index %d out of range (count=%d)" % (min(extra), count))
    return manifest


# ---------------------------------------------------------------------------
# dataset building

def build_dataset(manifest, base_dir="."):
    """Materialize (image, measurement) pairs, deterministically.

    Measurements come from the fixed physical operator with the recorded
    per-sample masks and noise levels.
    """
    h, w = manifest.height, manifest.width
    out = []
    mask_cache = {}
    for i, rec in enumerate(manifest.records):
        if rec.image is not None:
            path = os.path.join(base_dir, rec.image)
            try:
                img = load_pgm(path)
            except OSError as e:
                raise FileNotFoundError(
                    "sample %d: cannot read image %s (%s)" % (i, path, e)
                ) from e
        else:
            img = synth_image(SeededRng(rec.synth_seed), h, w)
        if img.shape != (h, w):
            raise ValueError(
                "sample %d: image is %r, manifest says %dx%d" % (i, img.shape, h, w)
            )
        if rec.mask_seed not in mask_cache:
            mask_cache[rec.mask_seed] = masks_from_seed(rec.mask_seed, manifest.num_masks, h, w)
        noise_rng = derive_rng(manifest.seed, STREAM_NOISE, i)
        out.append((img, measure(img, mask_cache[rec.mask_seed], rec.alpha, noise_rng)))
    return out


def generate_dataset(out_dir, count, h, w, seed, alphas=DEFAULT_ALPHAS,
                     test_masks=False):
    """Write ``count`` synthetic PGMs plus a manifest; returns manifest path.

    Noise levels cycle through ``alphas`` so the ratio is exact.  With
    ``test_masks`` the per-sample mask seeds come from the held-out stream
    domain instead of the training one.
    """
    check_spatial_pow2((h, w))
    if count < 0:
        raise ValueError("count must be nonnegative")
    for a in alphas:
        if a < 0:
            raise ValueError("noise level must be nonnegative, got %r" % (a,))
    os.makedirs(out_dir, exist_ok=True)
    domain = STREAM_MASKS_TEST if test_masks else STREAM_MASKS_TRAIN
    records = []
    for i in range(count):
        img = synth_image(derive_rng(seed, STREAM_SYNTH, i), h, w)
        name = "img_%04d.pgm" % i
        save_pgm(img, os.path.join(out_dir, name))
        mask_seed = int(derive_rng(seed, domain, i).integers(0, _SEED_RANGE))
        records.append(
            SampleRecord(
                alpha=float(alphas[i % len(alphas)]), mask_seed=mask_seed, image=name
            )
        )
    manifest = DatasetManifest(height=h, width=w, seed=seed, records=records)
    path = os.path.join(out_dir, MANIFEST_NAME)
    write_manifest(manifest, path)
    return path


def load_dataset(data_dir):
    """Read the manifest in ``data_dir`` and build the dataset."""
    manifest = read_manifest(os.path.join(data_dir, MANIFEST_NAME))
    return manifest, build_dataset(manifest, base_dir=data_dir)
