"""Binary PGM/PPM round trips, header grammar, and grid tiling."""

import numpy as np
import pytest

from ecgan import pgm
from ecgan.errors import FormatError


def test_pgm_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, (7, 5), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    pgm.write_image(path, img)
    np.testing.assert_array_equal(pgm.read_image(path), img)


def test_ppm_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, (4, 6, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    pgm.write_image(path, img)
    back = pgm.read_image(path)
    assert back.shape == (4, 6, 3)
    np.testing.assert_array_equal(back, img)


def test_header_comments_and_whitespace(tmp_path):
    # Comments may appear between any header tokens.
    raw = b"P5\n# made by hand\n3 # width\n2\n# almost there\n255\n" + bytes(6)
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = pgm.read_image(path)
    assert img.shape == (2, 3)
    assert img.sum() == 0


def test_single_whitespace_after_maxval(tmp_path):
    # The byte right after maxval is consumed even when it is not a newline;
    # pixel data follows immediately.
    raw = b"P5 2 1 255 " + bytes([9, 200])
    path = tmp_path / "ws.pgm"
    path.write_bytes(raw)
    np.testing.assert_array_equal(pgm.read_image(path), [[9, 200]])


@pytest.mark.parametrize(
    "raw,match",
    [
        (b"P3\n1 1\n255\n0", "not a binary"),
        (b"P5\n1 1\n", "truncated header"),
        (b"P5\n1 one\n255\n0", "non-numeric"),
        (b"P5\n0 4\n255\n", "bad dimensions"),
        (b"P5\n1 1\n65535\n\x00\x00", "only 8-bit"),
        (b"P5\n2 2\n255\n\x00\x00", "truncated"),
        (b"P5\n1 1\n255", "missing pixel data"),
    ],
)
def test_malformed_rejected(tmp_path, raw, match):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=match):
        pgm.read_image(path)


def test_error_offsets_point_into_file(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"XX rubbish")
    with pytest.raises(FormatError) as exc:
        pgm.read_image(path)
    assert exc.value.offset == 0

    truncated = b"P5\n4 4\n255\n" + bytes(3)
    path.write_bytes(truncated)
    with pytest.raises(FormatError) as exc:
        pgm.read_image(path)
    assert exc.value.offset == len(truncated)


@pytest.mark.parametrize("shape", [(2, 2, 2), (4,)], ids=["2x2x2", "4"])
def test_write_image_rejects_other_shapes(tmp_path, shape):
    path = tmp_path / "never.pgm"
    with pytest.raises(FormatError, match=r"\[H,W\] or \[H,W,3\]"):
        pgm.write_image(path, np.zeros(shape, dtype=np.uint8))
    assert not path.exists()


@pytest.mark.parametrize("shape,header", [((2, 3), b"P5\n3 2\n255\n"), ((2, 3, 3), b"P6\n3 2\n255\n")])
def test_write_image_bytes(tmp_path, shape, header):
    image = np.arange(np.prod(shape), dtype=np.uint8).reshape(shape)
    path = tmp_path / "img"
    pgm.write_image(path, image)
    assert path.read_bytes() == header + bytes(range(image.size))


def test_tile_grid_layout():
    # 5 images -> 3 columns x 2 rows, last cell black.
    imgs = np.stack([np.full((1, 2, 2), (i + 1) / 10.0, dtype=np.float32) for i in range(5)])
    grid = pgm.tile_grid(imgs)
    assert grid.shape == (4, 6)
    expect = np.round(np.array([0.1, 0.2, 0.3, 0.4, 0.5]) * 255).astype(np.uint8)
    for i in range(5):
        r, c = divmod(i, 3)
        cell = grid[2 * r : 2 * r + 2, 2 * c : 2 * c + 2]
        assert (cell == expect[i]).all()
    assert (grid[2:4, 4:6] == 0).all()


def test_tile_grid_color():
    imgs = np.zeros((2, 3, 2, 2), dtype=np.float32)
    imgs[0, 0] = 1.0  # first image pure red
    grid = pgm.tile_grid(imgs)
    assert grid.shape == (2, 4, 3)
    assert (grid[:, :2, 0] == 255).all() and (grid[:, :2, 1:] == 0).all()


def test_write_grid_picks_format(tmp_path, rng):
    gray = rng.random((3, 1, 4, 4)).astype(np.float32)
    color = rng.random((3, 3, 4, 4)).astype(np.float32)
    p5 = tmp_path / "g.pgm"
    p6 = tmp_path / "g.ppm"
    pgm.write_grid(p5, gray)
    pgm.write_grid(p6, color)
    assert p5.read_bytes()[:2] == b"P5"
    assert p6.read_bytes()[:2] == b"P6"
    # Both must parse back under the same grammar.
    assert pgm.read_image(p5).ndim == 2
    assert pgm.read_image(p6).ndim == 3


def test_grid_round_trips_quantized_values(tmp_path):
    imgs = (np.arange(16, dtype=np.float32).reshape(4, 1, 2, 2)) / 15.0
    path = tmp_path / "grid.pgm"
    pgm.write_grid(path, imgs)
    back = pgm.read_image(path)
    np.testing.assert_array_equal(back, pgm.tile_grid(imgs))
