"""Dataset containers, IDX/image-dir loading, synthetic shapes, transforms."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ecgan.data as D
from ecgan import pgm
from ecgan.data import (
    Dataset,
    augment_images,
    batches,
    denormalize,
    load_idx,
    load_image_dir,
    normalize,
    subsample,
    synth_shapes,
    write_idx,
)
from ecgan.errors import DataError, FormatError, SpecError
from ecgan.tensor import Rng


def small_ds(n=10, k=2, size=4, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.random((n, 1, size, size)).astype(np.float32)
    labels = np.arange(n) % k
    return Dataset(images, labels, num_classes=k, name="small")


# -- Dataset contract --------------------------------------------------------


def test_dataset_casts_and_exposes_geometry():
    ds = Dataset(np.zeros((3, 2, 5, 5)), [0, 1, 0], num_classes=2)
    assert ds.images.dtype == np.float32
    assert ds.labels.dtype == np.int64
    assert (len(ds), ds.channels, ds.image_size) == (3, 2, 5)


@pytest.mark.parametrize(
    "images,labels,k,match",
    [
        (np.zeros((2, 5, 5)), [0, 1], 2, r"\[N,C,H,W\]"),
        (np.zeros((2, 1, 5, 5)), [0], 2, "labels"),
        (np.zeros((2, 1, 5, 5)), [0, 3], 2, "outside"),
        (np.zeros((2, 1, 5, 5)), [0, -1], 2, "outside"),
        (np.full((2, 1, 5, 5), 1.5), [0, 1], 2, r"outside \[0,1\]"),
        (np.full((2, 1, 5, 5), -0.5), [0, 1], 2, r"outside \[0,1\]"),
    ],
)
def test_dataset_rejects_malformed(images, labels, k, match):
    with pytest.raises(DataError, match=match):
        Dataset(images, labels, num_classes=k)


def test_dataset_empty_rejected():
    with pytest.raises(DataError, match="empty"):
        Dataset(np.zeros((0, 1, 4, 4)), [], num_classes=2)


def test_subset_selects_and_renames():
    ds = small_ds(6)
    sub = ds.subset([5, 1], name="picked")
    assert len(sub) == 2
    np.testing.assert_array_equal(sub.labels, ds.labels[[5, 1]])
    np.testing.assert_array_equal(sub.images, ds.images[[5, 1]])
    assert sub.name == "picked"
    assert ds.subset([0]).name == "small"


# -- IDX ---------------------------------------------------------------------


def test_idx_round_trip(tmp_path, rng):
    # Values on the uint8 grid survive the byte round trip exactly.
    images = rng.integers(0, 256, (7, 1, 5, 3)).astype(np.float32) / 255.0
    labels = rng.integers(0, 4, (7,))
    ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx(ip, lp, images, labels)
    ds = load_idx(ip, lp)
    np.testing.assert_array_equal(ds.images, images)
    np.testing.assert_array_equal(ds.labels, labels)
    assert ds.num_classes == int(labels.max()) + 1
    assert ds.name == "img.idx"


def test_idx_num_classes_floor_is_two(tmp_path):
    ip, lp = tmp_path / "i", tmp_path / "l"
    write_idx(ip, lp, np.zeros((2, 1, 2, 2), dtype=np.float32), [0, 0])
    assert load_idx(ip, lp).num_classes == 2


def good_idx_pair(tmp_path, n=4, size=3):
    images = np.linspace(0, 1, n * size * size, dtype=np.float32).reshape(n, 1, size, size)
    ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx(ip, lp, images, np.arange(n) % 2)
    return ip, lp


def test_idx_bad_image_magic(tmp_path):
    ip, lp = good_idx_pair(tmp_path)
    buf = bytearray(ip.read_bytes())
    buf[:4] = struct.pack(">I", 0x00000802)
    ip.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match="bad image magic") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == 0


def test_idx_bad_label_magic(tmp_path):
    ip, lp = good_idx_pair(tmp_path)
    buf = bytearray(lp.read_bytes())
    buf[:4] = struct.pack(">I", 0x00000803)
    lp.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match="bad label magic") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == 0


def test_idx_truncated_pixels(tmp_path):
    ip, lp = good_idx_pair(tmp_path)
    raw = ip.read_bytes()[:-5]
    ip.write_bytes(raw)
    with pytest.raises(FormatError, match="truncated pixel data") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == len(raw)


def test_idx_truncated_header(tmp_path):
    ip, lp = good_idx_pair(tmp_path)
    ip.write_bytes(ip.read_bytes()[:10])
    with pytest.raises(FormatError, match="truncated image header") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == 10


def test_idx_truncated_labels(tmp_path):
    ip, lp = good_idx_pair(tmp_path)
    raw = lp.read_bytes()[:-2]
    lp.write_bytes(raw)
    with pytest.raises(FormatError, match="truncated label data") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == len(raw)


def test_idx_count_mismatch(tmp_path):
    ip, lp = good_idx_pair(tmp_path, n=4)
    with open(lp, "wb") as f:
        f.write(struct.pack(">II", D.IDX_LABEL_MAGIC, 3))
        f.write(bytes([0, 1, 0]))
    with pytest.raises(FormatError, match="count mismatch") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == 4


# -- image-directory loading -------------------------------------------------


def write_manifest(root, rows, header="filename,label"):
    lines = [header] + [f"{f},{l}" for f, l in rows]
    (root / "labels.csv").write_text("\n".join(lines) + "\n")


def test_image_dir_grayscale(tmp_path, rng):
    imgs = [rng.integers(0, 256, (4, 4), dtype=np.uint8) for _ in range(3)]
    for i, img in enumerate(imgs):
        pgm.write_pgm(tmp_path / f"{i}.pgm", img)
    write_manifest(tmp_path, [(f"{i}.pgm", i % 2) for i in range(3)])
    ds = load_image_dir(str(tmp_path), size=4, channels=1)
    assert ds.images.shape == (3, 1, 4, 4)
    np.testing.assert_allclose(ds.images[0, 0], imgs[0] / 255.0, atol=1e-7)
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])
    assert ds.num_classes == 2


def test_image_dir_replicates_gray_to_rgb(tmp_path):
    pgm.write_pgm(tmp_path / "a.pgm", np.full((4, 4), 100, dtype=np.uint8))
    write_manifest(tmp_path, [("a.pgm", 0), ("a.pgm", 1)])
    ds = load_image_dir(str(tmp_path), size=4, channels=3)
    assert ds.images.shape == (2, 3, 4, 4)
    assert np.ptp(ds.images, axis=1).max() == 0  # identical channels


def test_image_dir_averages_rgb_to_gray(tmp_path):
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[..., 0] = 30
    img[..., 1] = 60
    img[..., 2] = 90
    pgm.write_ppm(tmp_path / "c.ppm", img)
    write_manifest(tmp_path, [("c.ppm", 0), ("c.ppm", 1)])
    ds = load_image_dir(str(tmp_path), size=2, channels=1)
    np.testing.assert_allclose(ds.images, 60.0 / 255.0, atol=1e-6)


def test_image_dir_keeps_color(tmp_path):
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[..., 2] = 255
    pgm.write_ppm(tmp_path / "c.ppm", img)
    write_manifest(tmp_path, [("c.ppm", 0), ("c.ppm", 1)])
    ds = load_image_dir(str(tmp_path), size=2, channels=3)
    assert (ds.images[:, 2] == 1.0).all() and (ds.images[:, :2] == 0.0).all()


def test_resize_nearest_picks_center_samples(tmp_path):
    img = (np.arange(64, dtype=np.uint8).reshape(8, 8)) * 3
    pgm.write_pgm(tmp_path / "big.pgm", img)
    write_manifest(tmp_path, [("big.pgm", 0), ("big.pgm", 1)])
    ds = load_image_dir(str(tmp_path), size=4, channels=1)
    # (i + 0.5) * 8/4 -> source rows/cols 1,3,5,7
    expect = img[[1, 3, 5, 7]][:, [1, 3, 5, 7]].astype(np.float32) / 255.0
    np.testing.assert_allclose(ds.images[0, 0], expect, atol=1e-7)


@pytest.mark.parametrize(
    "setup,match",
    [
        (lambda p: None, "missing manifest"),
        (lambda p: write_manifest(p, [], header="file,klass"), "header"),
        (lambda p: (p / "labels.csv").write_text("filename,label\n"), "no data rows"),
        (lambda p: (p / "labels.csv").write_text("filename,label\na.pgm,0,extra\n"), "2 fields"),
        (lambda p: write_manifest(p, [("a.pgm", "cat")]), "unknown label"),
        (lambda p: write_manifest(p, [("a.pgm", -1)]), "negative label"),
        (lambda p: write_manifest(p, [("ghost.pgm", 0)]), "missing file"),
    ],
)
def test_image_dir_rejects_malformed(tmp_path, setup, match):
    pgm.write_pgm(tmp_path / "a.pgm", np.zeros((2, 2), dtype=np.uint8))
    setup(tmp_path)
    with pytest.raises(DataError, match=match):
        load_image_dir(str(tmp_path), size=2)


# -- synthetic shapes --------------------------------------------------------


def test_synth_shapes_geometry_and_balance():
    ds = synth_shapes(5, 3, 16, seed=0)
    assert ds.images.shape == (15, 1, 16, 16)
    assert ds.num_classes == 3
    counts = np.bincount(ds.labels, minlength=3)
    np.testing.assert_array_equal(counts, [5, 5, 5])
    assert 0.0 <= ds.images.min() and ds.images.max() <= 1.0


def test_synth_shapes_deterministic():
    a = synth_shapes(4, 2, 16, seed=7)
    b = synth_shapes(4, 2, 16, seed=7)
    np.testing.assert_array_equal(a.images, b.images)
    c = synth_shapes(4, 2, 16, seed=8)
    assert not np.array_equal(a.images, c.images)


def test_synth_shapes_noise_free_is_two_tone():
    ds = synth_shapes(3, 5, 32, noise_sigma=0.0, seed=1)
    for img in ds.images[:, 0]:
        # Foreground and background plateaus dominate; the soft edge band
        # is a minority of pixels, so values cluster at two levels.
        lo, hi = img.min(), img.max()
        assert hi - lo > 0.4
        frac_mid = ((img > lo + 0.1) & (img < hi - 0.1)).mean()
        assert frac_mid < 0.35


def test_synth_shapes_classes_are_distinguishable():
    ds = synth_shapes(20, 3, 32, noise_sigma=0.0, seed=3)
    means = np.stack([ds.images[ds.labels == k].mean(axis=0)[0] for k in range(3)])
    # Mean images of different classes differ clearly somewhere.
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.abs(means[a] - means[b]).max() > 0.2


def test_synth_shapes_noise_matches_sigma():
    quiet = synth_shapes(10, 2, 32, noise_sigma=0.0, seed=4)
    noisy = synth_shapes(10, 2, 32, noise_sigma=0.1, seed=4)
    # Same seed stream, but noise jitters per-pixel values.
    assert not np.array_equal(quiet.images, noisy.images)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(n_per_class=3, num_classes=1, size=16), "num_classes"),
        (dict(n_per_class=3, num_classes=6, size=16), "num_classes"),
        (dict(n_per_class=3, num_classes=2, size=20), "size"),
        (dict(n_per_class=0, num_classes=2, size=16), "n_per_class"),
    ],
)
def test_synth_shapes_validation(kwargs, match):
    with pytest.raises(SpecError, match=match):
        synth_shapes(**kwargs)


def test_preview_script_writes_the_default_corpus(tmp_path):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "preview.pgm"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "preview_data.py"), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    grid = pgm.read_image(str(out))
    assert grid.shape == (5 * 32, 5 * 32)  # 8 per class x 3 classes, 5 x 5 tiles of 32 px
    np.testing.assert_array_equal(grid, pgm.tile_grid(synth_shapes(8, 3, 32, noise_sigma=0.105, seed=0).images))


# -- transforms --------------------------------------------------------------


def test_normalize_round_trip(rng):
    x = rng.random((2, 1, 3, 3)).astype(np.float32)
    y = normalize(x)
    assert y.min() >= -1.0 and y.max() <= 1.0
    np.testing.assert_allclose(denormalize(y), x, atol=1e-7)
    assert normalize(np.zeros(1))[0] == -1.0 and normalize(np.ones(1))[0] == 1.0


def test_rotate_zero_is_identity(rng):
    img = rng.random((2, 9, 9)).astype(np.float32)
    out = D._rotate_bilinear(img, 0.0)
    np.testing.assert_array_equal(out, img)


def test_rotate_inverse_recovers_smooth_image():
    ys, xs = np.meshgrid(np.linspace(-1, 1, 24), np.linspace(-1, 1, 24), indexing="ij")
    img = np.exp(-(xs**2 + ys**2) / 0.3).astype(np.float32)[None]
    ang = np.deg2rad(20.0)
    back = D._rotate_bilinear(D._rotate_bilinear(img, ang), -ang)
    inner = (slice(None), slice(5, -5), slice(5, -5))
    assert np.abs(back[inner] - img[inner]).max() < 0.1


def test_rotate_keeps_center_fixed():
    img = np.zeros((1, 9, 9), dtype=np.float32)
    img[0, 4, 4] = 1.0
    out = D._rotate_bilinear(img, np.deg2rad(33.0))
    assert out[0, 4, 4] > 0.99


def test_augment_disabled_is_identity():
    ds = small_ds(6, size=8)
    batch = next(iter(batches(ds, 6, Rng(0, "batches"), augment=False)))
    order = Rng(0, "batches").permutation(6)
    np.testing.assert_array_equal(batch.images.data, normalize(ds.images[order]))


def test_augment_deterministic_per_stream(rng):
    x = rng.random((4, 1, 8, 8)).astype(np.float32)
    a = augment_images(x, Rng(5, "aug"))
    b = augment_images(x, Rng(5, "aug"))
    c = augment_images(x, Rng(6, "aug"))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == x.shape and a.dtype == x.dtype


def test_augment_shifts_content():
    # A square centred in the frame: rotating about the centre keeps its
    # centroid's distance from the centre, so only the crop moves it, by at
    # most CROP_PAD pixels per axis.
    x = np.zeros((1, 1, 16, 16), dtype=np.float32)
    x[0, 0, 6:10, 6:10] = 1.0
    ys, xs = np.mgrid[0:16, 0:16] - 7.5
    shifts = []
    for seed in range(8):
        out = augment_images(x, Rng(seed, "aug"))[0, 0]
        shifts.append(np.hypot((out * ys).sum(), (out * xs).sum()) / out.sum())
    assert max(shifts) <= np.hypot(D.CROP_PAD, D.CROP_PAD) + 0.1
    assert max(shifts) > 1.0  # crops actually move the square


# -- subsample ----------------------------------------------------------------


def test_subsample_stratified_counts():
    images = np.zeros((15, 1, 4, 4), dtype=np.float32)
    labels = np.array([0] * 10 + [1] * 5)
    ds = Dataset(images, labels, num_classes=2, name="unbalanced")
    sub = subsample(ds, 40.0, seed=0)
    counts = np.bincount(sub.labels, minlength=2)
    np.testing.assert_array_equal(counts, [4, 2])
    assert sub.name == "unbalanced[40%]"


def test_subsample_deterministic_and_sorted():
    ds = small_ds(20, k=2)
    a = subsample(ds, 50.0, seed=3)
    b = subsample(ds, 50.0, seed=3)
    np.testing.assert_array_equal(a.images, b.images)
    c = subsample(ds, 50.0, seed=4)
    assert not np.array_equal(a.images, c.images)


def test_subsample_full_percent_keeps_everything():
    ds = small_ds(10)
    sub = subsample(ds, 100.0, seed=0)
    np.testing.assert_array_equal(np.sort(sub.images, axis=0), np.sort(ds.images, axis=0))


def test_subsample_validation():
    ds = small_ds(10)
    for bad in (0.0, -5.0, 101.0):
        with pytest.raises(DataError, match="percent"):
            subsample(ds, bad, seed=0)
    with pytest.raises(DataError, match="rounds to 0"):
        subsample(small_ds(10, k=2), 4.0, seed=0)  # 4% of 5 per class


# -- batches -------------------------------------------------------------------


def test_batches_sizes_and_partition():
    # Encode each sample's identity in its pixel value to track coverage.
    images = np.full((10, 1, 2, 2), np.arange(10, dtype=np.float32)[:, None, None, None] / 255.0)
    ds = Dataset(images, np.arange(10) % 2, num_classes=2)
    got = list(batches(ds, 4, Rng(0, "batches")))
    assert [len(b) for b in got] == [4, 4, 2]
    seen = np.concatenate([
        np.round(denormalize(b.images.data[:, 0, 0, 0]) * 255.0) for b in got
    ]).astype(int)
    assert sorted(seen.tolist()) == list(range(10))


def test_batches_are_normalized_tensors():
    ds = small_ds(6)
    batch = next(iter(batches(ds, 6, Rng(0, "batches"))))
    assert batch.images.data.min() >= -1.0 and batch.images.data.max() <= 1.0
    np.testing.assert_allclose(
        denormalize(batch.images.data).sum(), ds.images.sum(), rtol=1e-5
    )


def test_batches_deterministic_by_seed():
    ds = small_ds(12)
    a = [b.images.data for b in batches(ds, 4, Rng(1, "batches"))]
    b = [b.images.data for b in batches(ds, 4, Rng(1, "batches"))]
    c = [b.images.data for b in batches(ds, 4, Rng(2, "batches"))]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_batches_applies_augmentation():
    ds = small_ds(4, size=8)
    plain = next(iter(batches(ds, 4, Rng(0, "batches"))))
    moved = next(iter(batches(ds, 4, Rng(0, "batches"), augment=True)))
    assert not np.array_equal(plain.images.data, moved.images.data)


def test_batches_rejects_bad_size():
    with pytest.raises(DataError, match="batch_size"):
        list(batches(small_ds(4), 0, Rng(0, "batches")))
