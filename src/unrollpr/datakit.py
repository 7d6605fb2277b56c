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
import re
import secrets
from dataclasses import dataclass

import numpy as np

from .cdp import masks_from_seed, measure
from .errors import FormatError, UnsupportedFormatError, UnsupportedVersionError
from .field import (
    DATASET_CAP,
    FIELD_CAPS,
    STREAM_MASKS_TEST,
    STREAM_MASKS_TRAIN,
    STREAM_NOISE,
    STREAM_SYNTH,
    SeededRng,
    cap_error,
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
    gets mode 0666 less the umask, as ``open(path, "wb")`` would give.  An
    OSError in creating the temp file names ``path``."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, ".tmp-%s~" % secrets.token_hex(8))
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:
        raise type(e)(e.errno, e.strerror, path) from None
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


# a PGM header (magic, width, height, maxval) must end within this many
# bytes; the raster is read only once its size has passed the checks
PGM_HEADER_BUDGET = 4096
# whitespace and # comments, then one header token (empty when missing)
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\n]*)*([^ \t\r\n#]*)")


def _pgm_token(head, pos, size, what):
    """The header token after ``pos``: (token, end offset, line number)."""
    m = _PGM_TOKEN.match(head, pos)
    end = m.end()
    if end == len(head) < size:
        raise FormatError(
            "PGM header does not end within %d bytes" % PGM_HEADER_BUDGET, offset=end
        )
    line = head.count(b"\n", 0, end) + 1
    if not m.group(1):
        raise FormatError("missing %s in PGM header (line %d)" % (what, line), offset=end)
    return m.group(1), end, line


def load_pgm(path):
    """Read a binary PGM into a [0,1] float image.

    Width and height may be any size up to their ``FIELD_CAPS``; the raster
    is read only after the header has been checked against the file size.
    """
    with open(path, "rb") as f:
        head = f.read(PGM_HEADER_BUDGET)
        size = os.fstat(f.fileno()).st_size
        magic, pos, _ = _pgm_token(head, 0, size, "magic")
        if magic == b"P2":
            raise UnsupportedFormatError("ASCII PGM (P2) not supported, need binary P5")
        if magic != b"P5":
            raise FormatError("not a PGM file, magic %r" % magic, offset=0)
        fields = []
        for what in ("width", "height", "maxval"):
            tok, pos, line = _pgm_token(head, pos, size, what)
            try:
                fields.append(int(tok))
            except ValueError:
                raise FormatError(
                    "bad %s %r in PGM header (line %d)" % (what, tok, line), offset=pos
                ) from None
        w, h, maxval = fields
        if not (1 <= w <= FIELD_CAPS["w"] and 1 <= h <= FIELD_CAPS["h"]):
            raise FormatError("bad dimensions %dx%d, need width in [1, %d] and height "
                              "in [1, %d] (line %d)"
                              % (w, h, FIELD_CAPS["w"], FIELD_CAPS["h"], line))
        if maxval != 255:
            raise UnsupportedFormatError("maxval %d not supported, need 255" % maxval)
        # exactly one whitespace byte separates header from raster
        if pos == len(head) or head[pos] not in b" \t\r\n":
            raise FormatError("missing raster separator", offset=pos)
        start = pos + 1
        need = h * w
        if size - start < need:
            raise FormatError("raster truncated: need %d bytes, have %d"
                              % (need, size - start), offset=size)
        f.seek(start)
        raster = np.frombuffer(f.read(need), dtype=np.uint8, count=need)
    return raster.reshape(h, w).astype(np.float64) / 255.0


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


# manifest header keys -> the FIELD_CAPS entry each value is checked against
_HEAD_CAPS = {"version": None, "height": "h", "width": "w", "count": None, "seed": None,
              "masks": "J"}
# the fields of a sample.<index>.<field> key, named as in SampleRecord
_SAMPLE_FIELDS = ("image", "synth_seed", "alpha", "mask_seed")


def _parse_int(value, key, line_no, cap=None):
    try:
        n = int(value)
    except ValueError:
        raise FormatError("bad integer for %s (line %d)" % (key, line_no)) from None
    err = cap and cap_error(cap, n)
    if err:
        raise FormatError("%s %s (line %d)" % (key, err, line_no))
    return n


def _parse_alpha(value, line_no):
    try:
        alpha = float(value)
    except ValueError:
        alpha = np.nan
    if 0 <= alpha < np.inf:
        return alpha
    raise FormatError(
        "bad alpha %r, need a finite nonnegative number (line %d)" % (value, line_no))


def _check_dataset_cap(count, masks, h, w, error):
    """Raise ``error`` if a set of this shape holds more than DATASET_CAP values."""
    values = count * masks * h * w
    if values > DATASET_CAP:
        raise error("count x masks x height x width is %d, over the cap of %d"
                    % (values, DATASET_CAP))


def read_manifest(path):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    head = {}
    samples = {}
    lines = {}  # head key or (sample index, field) -> the line that set it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError("expected key=value (line %d)" % line_no)
        key, value = line.split("=", 1)
        key = key.strip()
        slot = key
        if key.startswith("sample."):
            parts = key.split(".")
            if len(parts) != 3:
                raise FormatError("bad sample key %r (line %d)" % (key, line_no))
            slot = (_parse_int(parts[1], key, line_no), parts[2])  # sample.01.x is sample.1.x
        if slot in lines:
            raise FormatError("repeated key %r (lines %d and %d)" % (key, lines[slot], line_no))
        lines[slot] = line_no
        if isinstance(slot, tuple):
            idx, field_name = slot
            if field_name not in _SAMPLE_FIELDS:
                raise FormatError("unknown sample field %r (line %d)" % (key, line_no))
            if field_name == "alpha":
                value = _parse_alpha(value, line_no)
            elif field_name != "image":
                value = _parse_int(value, field_name, line_no)
            samples.setdefault(idx, {})[field_name] = value
        elif key in _HEAD_CAPS:
            head[key] = _parse_int(value, key, line_no, _HEAD_CAPS[key])
            if key == "version" and head[key] != MANIFEST_VERSION:
                raise UnsupportedVersionError("manifest version %d unsupported" % head[key])
            if key == "count" and head[key] < 0:
                raise FormatError("count %d is negative (line %d)" % (head[key], line_no))
        else:
            raise FormatError("unknown key %r (line %d)" % (key, line_no))
    for need in _HEAD_CAPS:
        if need not in head:
            raise FormatError("manifest missing %s" % need)
    count = head["count"]
    _check_dataset_cap(count, head["masks"], head["height"], head["width"], FormatError)
    records = []
    for i in range(count):
        rec = samples.get(i)
        if rec is None:
            raise FormatError("manifest missing sample.%d.* records" % i)
        if "alpha" not in rec or "mask_seed" not in rec:
            raise FormatError("sample %d missing alpha or mask_seed" % i)
        if ("image" in rec) == ("synth_seed" in rec):
            raise FormatError("sample %d needs exactly one of image or synth_seed" % i)
        records.append(SampleRecord(**rec))
    extra = set(samples) - set(range(count))
    if extra:
        raise FormatError("sample index %d out of range (count=%d)" % (min(extra), count))
    return DatasetManifest(head["height"], head["width"], head["seed"], head["masks"], records)


# ---------------------------------------------------------------------------
# dataset building

def build_dataset(manifest, base_dir="."):
    """Materialize (image, measurement) pairs, deterministically.

    Measurements come from the fixed physical operator with the recorded
    per-sample masks and noise levels, and carry those masks; samples that
    share a mask seed share one mask array.
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


def stack_dataset(dataset):
    """(image, measurement) pairs -> stacked images (n, h, w), measurement
    values (n, J, h, w) and the masks they were taken through (n, J, h, w)."""
    for i, (_, mv) in enumerate(dataset):
        if mv.masks is None:
            raise ValueError("sample %d has no masks; measure it with cdp.measure" % i)
    images = np.stack([np.asarray(img, dtype=np.float64) for img, _ in dataset])
    ys = np.stack([np.asarray(mv.values, dtype=np.float64) for _, mv in dataset])
    return images, ys, np.stack([mv.masks for _, mv in dataset])


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
        if not 0 <= a < np.inf:
            raise ValueError("noise level must be finite and nonnegative, got %r" % (a,))
    _check_dataset_cap(count, DEFAULT_NUM_MASKS, h, w, ValueError)  # as every reader does
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
