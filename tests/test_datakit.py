"""Synthetic images, PGM round-trips, manifests, and dataset assembly."""

import io

import numpy as np
import pytest

from unrollpr import datakit
from unrollpr.cli import main
from unrollpr.datakit import (
    MANIFEST_NAME,
    PGM_HEADER_BUDGET,
    DatasetManifest,
    SampleRecord,
    build_dataset,
    generate_dataset,
    load_dataset,
    load_pgm,
    read_manifest,
    save_pgm,
    synth_image,
    write_manifest,
)
from unrollpr.errors import FormatError, UnsupportedFormatError, UnsupportedVersionError
from unrollpr.field import DATASET_CAP, SeededRng


# ---------------------------------------------------------------------------
# synthesis

def test_synth_image_range_and_dtype():
    img = synth_image(SeededRng(0), 32, 32)
    assert img.shape == (32, 32)
    assert img.dtype == np.float64
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_synth_image_deterministic():
    a = synth_image(SeededRng(123), 16, 16)
    b = synth_image(SeededRng(123), 16, 16)
    assert np.array_equal(a, b)


def test_synth_image_varies_with_seed():
    a = synth_image(SeededRng(1), 16, 16)
    b = synth_image(SeededRng(2), 16, 16)
    assert not np.array_equal(a, b)


def test_synth_image_population_statistics():
    means = [synth_image(SeededRng(s), 16, 16).mean() for s in range(200)]
    m = float(np.mean(means))
    assert 0.05 <= m <= 0.7  # neither empty nor saturated on average
    assert float(np.std(means)) > 0.01  # real variety between draws


# ---------------------------------------------------------------------------
# PGM I/O

def test_pgm_roundtrip_8bit_exact(tmp_path):
    # quantize first so a write/read cycle is lossless
    img = np.rint(synth_image(SeededRng(3), 16, 16) * 255.0) / 255.0
    p = tmp_path / "img.pgm"
    save_pgm(img, str(p))
    back = load_pgm(str(p))
    assert np.array_equal(back, img)
    save_pgm(back, str(tmp_path / "img2.pgm"))
    assert p.read_bytes() == (tmp_path / "img2.pgm").read_bytes()


def test_pgm_header_layout(tmp_path):
    p = tmp_path / "a.pgm"
    save_pgm(np.zeros((4, 6)), str(p))
    data = p.read_bytes()
    assert data.startswith(b"P5\n6 4\n255\n")
    assert len(data) == len(b"P5\n6 4\n255\n") + 24


def test_pgm_extreme_values(tmp_path):
    p = tmp_path / "b.pgm"
    save_pgm(np.ones((4, 4)), str(p))
    assert np.array_equal(load_pgm(str(p)), np.ones((4, 4)))
    save_pgm(np.zeros((4, 4)), str(p))
    assert np.array_equal(load_pgm(str(p)), np.zeros((4, 4)))


def test_pgm_saving_clips_out_of_range(tmp_path):
    p = tmp_path / "c.pgm"
    save_pgm(np.array([[-0.5, 1.5]]), str(p))
    img = load_pgm(str(p))
    assert np.array_equal(img, np.array([[0.0, 1.0]]))


def test_atomic_write_into_a_missing_directory_names_the_target(tmp_path):
    path = str(tmp_path / "nodir" / "x.pgm")
    with pytest.raises(FileNotFoundError) as info:
        datakit.atomic_write(path, b"x")
    assert info.value.filename == path and ".tmp-" not in str(info.value)
    assert str(info.value).endswith(repr(path))


def test_pgm_comments_and_whitespace_tolerated(tmp_path):
    p = tmp_path / "d.pgm"
    raster = bytes([0, 128, 255, 64])
    p.write_bytes(b"P5 # comment\n# another\n 2 \t2\n255\n" + raster)
    img = load_pgm(str(p))
    assert img.shape == (2, 2)
    assert abs(img[0, 1] - 128 / 255) <= 1e-12


def test_pgm_ascii_variant_unsupported(tmp_path):
    p = tmp_path / "e.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(UnsupportedFormatError):
        load_pgm(str(p))


def test_pgm_wrong_magic_rejected(tmp_path):
    p = tmp_path / "f.pgm"
    p.write_bytes(b"XX\n2 2\n255\n----")
    with pytest.raises(FormatError):
        load_pgm(str(p))


def test_pgm_nonstandard_maxval_unsupported(tmp_path):
    p = tmp_path / "g.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(UnsupportedFormatError):
        load_pgm(str(p))


def test_pgm_truncated_raster_rejected(tmp_path):
    p = tmp_path / "h.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(FormatError):
        load_pgm(str(p))


def test_pgm_garbage_dimensions_rejected(tmp_path):
    p = tmp_path / "i.pgm"
    p.write_bytes(b"P5\nxx 4\n255\n" + bytes(16))
    with pytest.raises(FormatError):
        load_pgm(str(p))


@pytest.mark.parametrize("header,raster", [
    (b"P5\n4097 1\n255\n", 4097),
    (b"P5\n1 4097\n255\n", 4097),
    (b"P5\n12000 12000\n255\n", 16),
    (b"P5\n0 4\n255\n", 16),
])
def test_pgm_dimensions_beyond_the_cap_rejected(tmp_path, header, raster):
    p = tmp_path / "j.pgm"
    p.write_bytes(header + bytes(raster))
    with pytest.raises(FormatError, match="bad dimensions"):
        load_pgm(str(p))


def test_pgm_header_must_end_within_the_budget(tmp_path):
    # a comment pads the header so the raster starts exactly at the budget
    tail = b"\n2 2\n255\n"
    pad = PGM_HEADER_BUDGET - len(b"P5#") - len(tail)
    p = tmp_path / "k.pgm"
    p.write_bytes(b"P5#" + b"c" * pad + tail + bytes([0, 1, 2, 3]))
    assert load_pgm(str(p)).shape == (2, 2)
    p.write_bytes(b"P5#" + b"c" * (pad + 1) + tail + bytes([0, 1, 2, 3]))
    with pytest.raises(FormatError, match="does not end within %d bytes" % PGM_HEADER_BUDGET):
        load_pgm(str(p))


def _count_reads(monkeypatch):
    """Record the size of every read load_pgm makes."""
    reads = []

    class Counted(io.BufferedReader):
        def read(self, n=-1):
            reads.append(n)
            return super().read(n)

    monkeypatch.setattr(datakit, "open", lambda path, mode: Counted(io.FileIO(path)),
                        raising=False)
    return reads


def test_pgm_reads_the_header_budget_then_exactly_the_raster(tmp_path, monkeypatch):
    img = np.rint(synth_image(SeededRng(4), 64, 64) * 255.0) / 255.0
    p = tmp_path / "l.pgm"
    save_pgm(img, str(p))
    reads = _count_reads(monkeypatch)
    assert np.array_equal(load_pgm(str(p)), img)
    assert reads == [PGM_HEADER_BUDGET, 64 * 64]


def test_pgm_size_checks_come_before_the_raster_is_read(tmp_path, monkeypatch):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n4096 4096\n255\n" + bytes(PGM_HEADER_BUDGET))
    reads = _count_reads(monkeypatch)
    with pytest.raises(FormatError, match="raster truncated"):
        load_pgm(str(p))
    assert reads == [PGM_HEADER_BUDGET]


# ---------------------------------------------------------------------------
# manifest

def _sample_manifest():
    return DatasetManifest(
        height=16, width=16, seed=42,
        records=[
            SampleRecord(alpha=9.0, mask_seed=101, image="a.pgm"),
            SampleRecord(alpha=27.0, mask_seed=102, synth_seed=7),
        ],
    )


def test_manifest_roundtrip(tmp_path):
    p = tmp_path / MANIFEST_NAME
    m = _sample_manifest()
    write_manifest(m, str(p))
    back = read_manifest(str(p))
    assert (back.height, back.width, back.seed, back.num_masks) == (16, 16, 42, 4)
    assert back.records == m.records


def test_manifest_unknown_key_rejected(tmp_path):
    p = tmp_path / "m.txt"
    write_manifest(_sample_manifest(), str(p))
    p.write_text(p.read_text() + "mystery=1\n")
    with pytest.raises(FormatError) as info:
        read_manifest(str(p))
    assert "mystery" in str(info.value)


def test_manifest_bad_version(tmp_path):
    p = tmp_path / "m.txt"
    write_manifest(_sample_manifest(), str(p))
    p.write_text(p.read_text().replace("version=1", "version=9", 1))
    with pytest.raises(UnsupportedVersionError):
        read_manifest(str(p))


def test_manifest_missing_sample_rejected(tmp_path):
    p = tmp_path / "m.txt"
    write_manifest(_sample_manifest(), str(p))
    kept = [ln for ln in p.read_text().splitlines() if not ln.startswith("sample.1")]
    p.write_text("\n".join(kept) + "\n")
    with pytest.raises(FormatError):
        read_manifest(str(p))


def test_manifest_conflicting_source_rejected(tmp_path):
    p = tmp_path / "m.txt"
    write_manifest(_sample_manifest(), str(p))
    p.write_text(p.read_text() + "sample.0.synth_seed=5\n")
    with pytest.raises(FormatError):
        read_manifest(str(p))


def _sized_manifest(path, count, masks, size):
    lines = ["version=1", "height=%d" % size, "width=%d" % size, "count=%d" % count,
             "seed=1", "masks=%d" % masks]
    for i in range(count):
        lines += ["sample.%d.synth_seed=%d" % (i, i), "sample.%d.alpha=27" % i,
                  "sample.%d.mask_seed=%d" % (i, i)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("count,masks,size,ok", [
    (1, 64, 4096, False),  # 2**30 values, every field within its own cap
    (2, 1, 4096, False),
    (1, 1, 4096, True),  # 2**24 values, the largest set allowed
    (200, 4, 32, True),
])
def test_manifest_dataset_size_bound(tmp_path, count, masks, size, ok):
    p = tmp_path / "m.txt"
    _sized_manifest(p, count, masks, size)
    if ok:
        assert read_manifest(str(p)).count == count
    else:
        with pytest.raises(FormatError, match="over the cap of %d" % DATASET_CAP):
            read_manifest(str(p))


def test_manifest_negative_count_rejected(tmp_path):
    p = tmp_path / "m.txt"
    _sized_manifest(p, -3, 4, 16)  # no sample records: not an empty set
    with pytest.raises(FormatError, match=r"count -3 is negative \(line 4\)"):
        read_manifest(str(p))


@pytest.mark.parametrize("first,extra", [
    ("seed", "seed=99"),
    ("sample.0.alpha", "sample.0.alpha=81"),
    ("sample.1.alpha", "sample.01.alpha=81"),  # the same index, written another way
])
def test_manifest_repeated_key_names_both_lines(tmp_path, capsys, first, extra):
    rc = main(["gen-data", "--out", str(tmp_path), "--count", "2", "--size", "8x8",
               "--seed", "4"])
    assert rc == 0
    p = tmp_path / MANIFEST_NAME
    lines = p.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines, 1) if ln.startswith(first + "="))
    p.write_text("\n".join(lines + [extra]) + "\n")
    key = extra.split("=")[0]
    with pytest.raises(FormatError, match=r"^repeated key '%s' \(lines %d and %d\)$"
                       % (key.replace(".", r"\."), at, len(lines) + 1)):
        read_manifest(str(p))
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m"),
               "--epochs", "1"])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("error: repeated key") and err.count("\n") == 1


def test_manifest_of_undecodable_bytes_exits_3(tmp_path, capsys):
    # a checkpoint written over a manifest, say: not UTF-8 from line 3 on
    rc = main(["gen-data", "--out", str(tmp_path), "--count", "2", "--size", "8x8",
               "--seed", "4"])
    assert rc == 0
    p = tmp_path / MANIFEST_NAME
    p.write_bytes(b"version=1\nheight=8\nwidth=\xff8\n")
    with pytest.raises(FormatError, match=r"^manifest is not UTF-8 text \(line 3\)$"):
        read_manifest(str(p))
    capsys.readouterr()
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m"),
               "--epochs", "1"])
    assert rc == 3
    assert capsys.readouterr().err == "error: manifest is not UTF-8 text (line 3)\n"


def test_manifest_error_names_line_number(tmp_path):
    p = tmp_path / "m.txt"
    write_manifest(_sample_manifest(), str(p))
    lines = p.read_text().splitlines()
    lines[1] = "height=abc"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as info:
        read_manifest(str(p))
    assert "line 2" in str(info.value)


# ---------------------------------------------------------------------------
# dataset assembly

def test_build_dataset_zero_noise_is_exact_magnitude():
    from unrollpr.cdp import masks_from_seed, measure
    from unrollpr.field import derive_rng, STREAM_NOISE

    m = DatasetManifest(
        height=8, width=8, seed=5,
        records=[SampleRecord(alpha=0.0, mask_seed=11, synth_seed=3)],
    )
    [(img, mv)] = build_dataset(m)
    assert mv.alpha == 0.0
    assert mv.mask_seed == 11
    ref = measure(img, masks_from_seed(11, 4, 8, 8), 0.0,
                  derive_rng(5, STREAM_NOISE, 0))
    assert np.array_equal(mv.values, ref.values)


def test_build_dataset_rebuild_identical():
    m = DatasetManifest(
        height=8, width=8, seed=6,
        records=[SampleRecord(alpha=27.0, mask_seed=21, synth_seed=i)
                 for i in range(4)],
    )
    a = build_dataset(m)
    b = build_dataset(m)
    for (ia, va), (ib, vb) in zip(a, b):
        assert np.array_equal(ia, ib)
        assert np.array_equal(va.values, vb.values)


def test_build_dataset_measurements_nonnegative_finite():
    m = DatasetManifest(
        height=8, width=8, seed=7,
        records=[SampleRecord(alpha=81.0, mask_seed=31 + i, synth_seed=i)
                 for i in range(6)],
    )
    for _, mv in build_dataset(m):
        assert np.all(mv.values >= 0.0)
        assert np.all(np.isfinite(mv.values))
        assert mv.values.shape == (4, 8, 8)


def test_build_dataset_missing_file_names_record(tmp_path):
    m = DatasetManifest(
        height=8, width=8, seed=8,
        records=[SampleRecord(alpha=9.0, mask_seed=1, image="absent.pgm")],
    )
    with pytest.raises(FileNotFoundError) as info:
        build_dataset(m, base_dir=str(tmp_path))
    assert "sample 0" in str(info.value)


def test_build_dataset_shape_mismatch_names_record(tmp_path):
    save_pgm(np.zeros((4, 4)), str(tmp_path / "small.pgm"))
    m = DatasetManifest(
        height=8, width=8, seed=9,
        records=[SampleRecord(alpha=9.0, mask_seed=1, image="small.pgm")],
    )
    with pytest.raises(ValueError) as info:
        build_dataset(m, base_dir=str(tmp_path))
    assert "sample 0" in str(info.value)


# ---------------------------------------------------------------------------
# generation

def test_generate_dataset_roundtrip(tmp_path):
    out = tmp_path / "ds"
    path = generate_dataset(str(out), 6, 16, 16, seed=77)
    assert path.endswith(MANIFEST_NAME)
    manifest, data = load_dataset(str(out))
    assert manifest.count == 6
    assert len(data) == 6
    for img, mv in data:
        assert img.shape == (16, 16)
        assert mv.values.shape == (4, 16, 16)


def test_generate_dataset_alpha_cycle(tmp_path):
    generate_dataset(str(tmp_path / "ds"), 9, 16, 16, seed=1,
                     alphas=(9.0, 27.0, 81.0))
    manifest, _ = load_dataset(str(tmp_path / "ds"))
    alphas = [r.alpha for r in manifest.records]
    assert alphas == [9.0, 27.0, 81.0] * 3
    for a in (9.0, 27.0, 81.0):
        assert alphas.count(a) == 3


def test_generate_dataset_rejects_no_noise_levels_before_writing(tmp_path):
    out = tmp_path / "ds"
    with pytest.raises(ValueError, match="at least one noise level"):
        generate_dataset(str(out), 2, 8, 8, seed=1, alphas=())
    assert not out.exists()


def test_generate_dataset_deterministic_bytes(tmp_path):
    for name in ("x", "y"):
        generate_dataset(str(tmp_path / name), 4, 16, 16, seed=3)
    for f in sorted((tmp_path / "x").iterdir()):
        assert f.read_bytes() == (tmp_path / "y" / f.name).read_bytes()


def test_generate_dataset_heldout_masks_differ(tmp_path):
    generate_dataset(str(tmp_path / "tr"), 3, 16, 16, seed=5)
    generate_dataset(str(tmp_path / "te"), 3, 16, 16, seed=5, test_masks=True)
    mtr, _ = load_dataset(str(tmp_path / "tr"))
    mte, _ = load_dataset(str(tmp_path / "te"))
    tr = {r.mask_seed for r in mtr.records}
    te = {r.mask_seed for r in mte.records}
    assert not tr & te


def test_generate_dataset_rejects_non_power_of_two(tmp_path):
    with pytest.raises(ValueError):
        generate_dataset(str(tmp_path / "bad"), 2, 24, 24, seed=1)


def test_generate_dataset_zero_count(tmp_path):
    generate_dataset(str(tmp_path / "empty"), 0, 16, 16, seed=1)
    manifest, data = load_dataset(str(tmp_path / "empty"))
    assert manifest.count == 0
    assert data == []
