"""Dataset loading, normalization, augmentation, subsampling, batching.

Sources: IDX image/label file pairs, directories of PGM/PPM files with a
labels.csv manifest, and a built-in procedurally rendered shapes corpus
for desk-scale experiments. Images are float32 [N,C,H,W] in [0,1] until
`normalize` maps them to [-1,1] for the networks.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import pgm
from .errors import DataError, FormatError, SpecError
from .tensor import Rng, Tensor

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Labeled images: float32 [N,C,H,W] in [0,1], int labels in [0,K)."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = ""

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise DataError(f"images must be [N,C,H,W], got shape {self.images.shape}")
        n = self.images.shape[0]
        if n < 1:
            raise DataError("dataset is empty")
        if self.labels.shape != (n,):
            raise DataError(f"{n} images but {self.labels.shape} labels")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise DataError(
                f"labels outside [0,{self.num_classes}): range "
                f"[{self.labels.min()},{self.labels.max()}]"
            )
        lo, hi = float(self.images.min()), float(self.images.max())
        if lo < 0.0 or hi > 1.0:
            raise DataError(f"image values outside [0,1]: range [{lo},{hi}]")

    def __len__(self):
        return self.images.shape[0]

    @property
    def image_size(self):
        return self.images.shape[2]

    @property
    def channels(self):
        return self.images.shape[1]

    def subset(self, indices, name=None):
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.images[indices], self.labels[indices], self.num_classes,
            name=name if name is not None else self.name,
        )


@dataclass
class Batch:
    """One minibatch: normalized image tensor plus integer labels."""

    images: Tensor
    labels: np.ndarray

    def __len__(self):
        return self.images.shape[0]


# `augment_images`: crop margin in pixels and rotation bound in degrees.
CROP_PAD = 4
ROTATION_DEG = 10.0


# ---------------------------------------------------------------------------
# IDX loading
#
# Malformed inputs are rejected with a byte offset; the recognized classes:
#   1. wrong image-file magic          3. truncated image pixel data
#   2. wrong label-file magic          4. truncated header or label data
#   5. image/label count mismatch


def _read_u32s(buf, count, path, what):
    need = 4 * count
    if len(buf) < need:
        raise FormatError(f"{path}: truncated {what}", offset=len(buf))
    return struct.unpack(f">{count}I", buf[:need])


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair (big-endian, 8-bit pixels)."""
    with open(images_path, "rb") as f:
        ibuf = f.read()
    magic, n, h, w = _read_u32s(ibuf, 4, images_path, "image header")
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(
            f"{images_path}: bad image magic 0x{magic:08x} (want 0x{IDX_IMAGE_MAGIC:08x})",
            offset=0,
        )
    need = 16 + n * h * w
    if len(ibuf) < need:
        raise FormatError(
            f"{images_path}: truncated pixel data ({len(ibuf)} of {need} bytes)",
            offset=len(ibuf),
        )

    with open(labels_path, "rb") as f:
        lbuf = f.read()
    lmagic, ln = _read_u32s(lbuf, 2, labels_path, "label header")
    if lmagic != IDX_LABEL_MAGIC:
        raise FormatError(
            f"{labels_path}: bad label magic 0x{lmagic:08x} (want 0x{IDX_LABEL_MAGIC:08x})",
            offset=0,
        )
    if ln != n:
        raise FormatError(
            f"{labels_path}: {ln} labels for {n} images (count mismatch)", offset=4
        )
    if len(lbuf) < 8 + ln:
        raise FormatError(
            f"{labels_path}: truncated label data ({len(lbuf)} of {8 + ln} bytes)",
            offset=len(lbuf),
        )

    pixels = np.frombuffer(ibuf, dtype=np.uint8, count=n * h * w, offset=16)
    images = pixels.reshape(n, 1, h, w).astype(np.float32) / 255.0
    labels = np.frombuffer(lbuf, dtype=np.uint8, count=n, offset=8).astype(np.int64)
    k = int(labels.max()) + 1 if n else 0
    return Dataset(images, labels, num_classes=max(k, 2), name=os.path.basename(images_path))


def write_idx(images_path, labels_path, images, labels):
    """Inverse of `load_idx`, for fixtures and exports. Values in [0,1]."""
    images = np.asarray(images)
    n, _, h, w = images.shape
    as_bytes = np.clip(np.round(images[:, 0] * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w))
        f.write(as_bytes.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


# ---------------------------------------------------------------------------
# image-directory loading


def _resize_nearest(img, size):
    """img [H,W] or [H,W,3] -> size x size by nearest neighbor."""
    h, w = img.shape[:2]
    rows = np.minimum((np.arange(size) + 0.5) * h / size, h - 1).astype(np.int64)
    cols = np.minimum((np.arange(size) + 0.5) * w / size, w - 1).astype(np.int64)
    return img[rows][:, cols]


def load_image_dir(root, size, channels=1):
    """Load 8-bit PGM/PPM files listed in the `root/labels.csv` manifest
    (`filename,label` rows, filenames relative to `root`).

    Images are resized to size x size by nearest neighbor; grayscale is
    replicated across channels when 3 are requested, color averaged when
    1 is requested.
    """
    manifest = os.path.join(root, "labels.csv")
    if not os.path.exists(manifest):
        raise DataError(f"missing manifest {manifest}")
    rows = []
    with open(manifest, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["filename", "label"]:
            raise DataError(f"{manifest}: header must be 'filename,label', got {header}")
        for i, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataError(f"{manifest} row {i}: expected 2 fields, got {len(row)}")
            rows.append((i, row[0], row[1]))
    if not rows:
        raise DataError(f"{manifest}: no data rows")

    images, labels = [], []
    for line_no, fname, label_text in rows:
        try:
            label = int(label_text)
        except ValueError:
            raise DataError(f"{manifest} row {line_no}: unknown label {label_text!r}") from None
        if label < 0:
            raise DataError(f"{manifest} row {line_no}: negative label {label}")
        path = os.path.join(root, fname)
        if not os.path.exists(path):
            raise DataError(f"{manifest} row {line_no}: missing file {path}")
        img = pgm.read_image(path)
        img = _resize_nearest(img, size).astype(np.float32) / 255.0
        if img.ndim == 2:
            chw = np.repeat(img[None], channels, axis=0)
        elif channels == 3:
            chw = img.transpose(2, 0, 1)
        else:
            chw = img.mean(axis=2, keepdims=False)[None]
        images.append(chw)
        labels.append(label)

    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(
        np.stack(images), labels, num_classes=int(labels.max()) + 1,
        name=os.path.basename(root.rstrip("/")),
    )


# ---------------------------------------------------------------------------
# synthetic shapes

SHAPE_NAMES = ("square", "circle", "cross", "triangle", "stripes")

# Placement model: each class has a home anchor on a circle around the image
# center, and samples scatter around it with clipped Gaussian jitter. No class
# owns the exact center, sample position carries class signal alongside the
# outline, and the gaps between anchors stay sparsely populated.
ANCHOR_RADIUS = 0.32  # anchor distance from image center, in [-1, 1] coords
POSITION_SPREAD = 0.10  # std of Gaussian position jitter around the anchor
POSITION_CLIP = 0.40  # jittered centers are clipped to +/- this
SCALE_RANGE = (0.40, 0.60)  # uniform range of the per-sample size parameter
EDGE_SOFTNESS = 0.25  # outline transition width; keeps pixel densities smooth
FG_RANGE = (0.75, 0.95)  # foreground intensity, drawn per sample
BG_RANGE = (0.05, 0.15)  # background intensity, drawn per sample
NOISE_SIGMA = 0.105  # default pixel noise, of `synth` data specs and configs alike (SOURCES)


def _render_shape(kind, cx, cy, xs, ys, rng, size):
    """Soft-edged mask in [0,1] for one shape instance centered at (cx, cy)."""
    r = float(rng.uniform(*SCALE_RANGE))
    x = xs - cx
    y = ys - cy
    aa = max(EDGE_SOFTNESS, 2.0 / size)

    if kind == "square":
        d = np.maximum(np.abs(x), np.abs(y)) - r * 0.78
    elif kind == "circle":
        d = np.sqrt(x * x + y * y) - r * 0.82
    elif kind == "cross":
        arm = r * 0.3
        bar1 = np.maximum(np.abs(x) - r, np.abs(y) - arm)
        bar2 = np.maximum(np.abs(y) - r, np.abs(x) - arm)
        d = np.minimum(bar1, bar2)
    elif kind == "triangle":
        inradius = r * 0.62
        d = None
        for i in range(3):
            a = -np.pi / 2.0 + i * (2.0 * np.pi / 3.0)
            plane = np.cos(a) * x + np.sin(a) * y - inradius
            d = plane if d is None else np.maximum(d, plane)
    elif kind == "stripes":
        period = float(rng.uniform(0.45, 0.7))
        phase = float(rng.uniform(0.0, 1.0))
        u = np.mod(x / period + phase, 1.0)
        d = (np.abs(u - 0.25) - 0.25) * period
        aa = max(2.0 / size, EDGE_SOFTNESS * 0.4)  # narrower than a half-stripe
    else:
        raise SpecError(f"unknown shape kind {kind!r}")

    return np.clip(0.5 - d / aa, 0.0, 1.0)


def synth_shapes(n_per_class, num_classes, size, noise_sigma=NOISE_SIGMA, seed=0):
    """Procedural shape classes with position and scale jitter.

    Classes are, in order: filled square, circle, cross, triangle,
    stripes. Class k anchors at angle 90 + 360k/K degrees on a circle of
    radius ANCHOR_RADIUS around the image center; each sample jitters
    around its anchor and draws its own size, foreground/background
    intensities, and Gaussian pixel noise. Deterministic per seed.
    Single channel.
    """
    if not 2 <= num_classes <= 5:
        raise SpecError(f"num_classes must be in 2..5, got {num_classes}")
    if size not in (16, 32):
        raise SpecError(f"size must be 16 or 32, got {size}")
    if n_per_class < 1:
        raise SpecError(f"n_per_class must be >= 1, got {n_per_class}")
    rng = Rng(seed, "synth_shapes")
    coords = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    ys, xs = np.meshgrid(coords, coords, indexing="ij")

    images = np.empty((n_per_class * num_classes, 1, size, size), dtype=np.float32)
    labels = np.empty(n_per_class * num_classes, dtype=np.int64)
    i = 0
    for k in range(num_classes):
        kind = SHAPE_NAMES[k]
        ang = np.pi / 2.0 + 2.0 * np.pi * k / num_classes
        ax, ay = ANCHOR_RADIUS * np.cos(ang), ANCHOR_RADIUS * np.sin(ang)
        for _ in range(n_per_class):
            cx = float(np.clip(ax + rng.normal(scale=POSITION_SPREAD), -POSITION_CLIP, POSITION_CLIP))
            cy = float(np.clip(ay + rng.normal(scale=POSITION_SPREAD), -POSITION_CLIP, POSITION_CLIP))
            mask = _render_shape(kind, cx, cy, xs, ys, rng, size)
            bg = float(rng.uniform(*BG_RANGE))
            fg = float(rng.uniform(*FG_RANGE))
            img = bg + (fg - bg) * mask
            if noise_sigma > 0:
                img = img + rng.normal((size, size), scale=noise_sigma)
            images[i, 0] = np.clip(img, 0.0, 1.0)
            labels[i] = k
            i += 1
    return Dataset(images, labels, num_classes, name=f"synth_shapes_k{num_classes}_s{size}")


# ---------------------------------------------------------------------------
# sources

# Per source: the name of its loader in this module, and its data-spec keys
# with their defaults in the loader's positional order. A given value must
# have its key's default's type (`value_type`). Configs take the same keys and
# defaults for their train and test splits (`config.split_specs`).
SOURCES = {
    "synth": ("synth_shapes", {
        "n_per_class": 100, "classes": 3, "size": 32, "noise_sigma": NOISE_SIGMA, "seed": 0,
    }),
    "idx": ("load_idx", {"images": None, "labels": None}),
    "dir": ("load_image_dir", {"root": None, "size": 32, "channels": 1}),
}


def value_type(default):
    """The type a value given for a key must have: its default's; a None
    default marks a required path string."""
    return str if default is None else type(default)


def load_source(source, spec):
    """Dataset from a complete data spec of `SOURCES[source]`. The loader is
    looked up by name at call time, so a wrapper bound to that name on this
    module (as tracers do) is the one that runs."""
    loader, defaults = SOURCES[source]
    return globals()[loader](*(spec[key] for key in defaults))


# ---------------------------------------------------------------------------
# transforms


def normalize(images):
    """[0,1] -> [-1,1]."""
    return images * 2.0 - 1.0


def denormalize(images):
    """[-1,1] -> [0,1]."""
    return (images + 1.0) * 0.5


def _rotate_bilinear(img, angle_rad):
    """Rotate [C,H,W] about its center, bilinear sampling, zero fill."""
    c, h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    ct, st = np.cos(angle_rad), np.sin(angle_rad)
    # inverse map: source coordinates for each output pixel
    sx = ct * (xs - cx) + st * (ys - cy) + cx
    sy = -st * (xs - cx) + ct * (ys - cy) + cy
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = (sx - x0).astype(np.float32)
    fy = (sy - y0).astype(np.float32)

    out = np.zeros_like(img)
    for dy in (0, 1):
        for dx in (0, 1):
            xi = x0 + dx
            yi = y0 + dy
            weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            xi_c = np.clip(xi, 0, w - 1)
            yi_c = np.clip(yi, 0, h - 1)
            out += img[:, yi_c, xi_c] * (weight * valid)[None]
    return out


def augment_images(images, rng):
    """Per image: zero-pad by CROP_PAD and crop at a random offset, then
    rotate by a random angle within +/- ROTATION_DEG.

    Operates on [N,C,H,W] arrays in [0,1] (pre-normalization, so zero
    fill lands at -1 after normalize).
    """
    n, c, h, w = images.shape
    pad = CROP_PAD
    out = np.empty_like(images)
    for i in range(n):
        padded = np.pad(images[i], ((0, 0), (pad, pad), (pad, pad)))
        dy, dx = rng.integers(0, 2 * pad + 1, (2,))
        img = padded[:, dy : dy + h, dx : dx + w]
        angle = float(rng.uniform(-ROTATION_DEG, ROTATION_DEG))
        out[i] = _rotate_bilinear(np.ascontiguousarray(img), np.deg2rad(angle))
    return out


def subsample(dataset, percent, seed):
    """Stratified subset: round(percent/100 * count) per class, no replacement."""
    if not 0 < percent <= 100:
        raise DataError(f"percent must be in (0,100], got {percent}")
    rng = Rng(seed, "subsample")
    kept = []
    for k in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == k)
        if idx.size == 0:
            continue
        count = round(percent / 100.0 * idx.size)
        if count == 0:
            raise DataError(f"class {k}: {percent}% of {idx.size} samples rounds to 0")
        order = rng.permutation(idx.size)
        kept.append(idx[order[:count]])
    indices = np.sort(np.concatenate(kept))
    return dataset.subset(indices, name=f"{dataset.name}[{percent:g}%]")


def batches(dataset, batch_size, rng, augment=False):
    """One epoch of batches in a seeded shuffle order, normalized.

    The final short batch is kept. With `augment`, `augment_images` runs
    on each batch before normalization, drawing from `rng` after the
    shuffle.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    order = rng.permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start : start + batch_size]
        images = dataset.images[idx]
        if augment:
            images = augment_images(images, rng)
        yield Batch(Tensor(normalize(images)), dataset.labels[idx])
