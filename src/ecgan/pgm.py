"""Binary PGM (P5) and PPM (P6) files, 8-bit only, plus grid tiling.
`read_image` and `write_image` hold [H,W] images in P5 and [H,W,3] in P6.

The header grammar is the classic netpbm one: magic, whitespace-separated
width/height/maxval with '#' comments allowed between tokens, a single
whitespace byte, then raw samples. Maxval must be 255.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def _read_header(buf, path):
    magic = bytes(buf[:2])
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: not a binary PGM/PPM (magic {magic!r})", offset=0)
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise FormatError(f"{path}: truncated header", offset=pos)
        token = buf[start:pos]
        if not token.isdigit():
            raise FormatError(f"{path}: non-numeric header field {token!r}", offset=start)
        fields.append(int(token))
    if pos >= len(buf):
        raise FormatError(f"{path}: missing pixel data", offset=pos)
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}", offset=2)
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit files supported (maxval {maxval})", offset=2)
    return magic, width, height, pos


def read_image(path):
    """Read a P5 or P6 file into uint8 [H,W] or [H,W,3]."""
    with open(path, "rb") as f:
        buf = f.read()
    magic, width, height, pos = _read_header(buf, path)
    nch = 1 if magic == b"P5" else 3
    need = width * height * nch
    data = buf[pos : pos + need]
    if len(data) < need:
        raise FormatError(
            f"{path}: pixel data truncated ({len(data)} of {need} bytes)", offset=pos + len(data)
        )
    arr = np.frombuffer(data, dtype=np.uint8)
    return arr.reshape(height, width) if nch == 1 else arr.reshape(height, width, 3)


def write_image(path, image):
    """Write uint8 [H,W] as binary P5, or [H,W,3] as binary P6."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim not in (2, 3) or image.shape[2:] not in ((), (3,)):
        raise FormatError(f"write_image needs [H,W] or [H,W,3], got shape {image.shape}")
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (b"P5" if image.ndim == 2 else b"P6", image.shape[1], image.shape[0]))
        f.write(image.tobytes())


def tile_grid(images):
    """Tile [N,C,H,W] images in [0,1] into one uint8 [gH,gW] or [gH,gW,3].

    The grid is square-ish: ceil(sqrt(N)) columns; empty cells are black.
    """
    n, c, h, w = images.shape
    cols = int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    grid = np.zeros((rows * h, cols * w, c), dtype=np.uint8)
    as_bytes = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    for i in range(n):
        r, col = divmod(i, cols)
        grid[r * h : (r + 1) * h, col * w : (col + 1) * w] = as_bytes[i].transpose(1, 2, 0)
    return grid[:, :, 0] if c == 1 else grid


def write_grid(path, images):
    """Write a tiled grid; P5 for 1-channel input, P6 for 3-channel."""
    write_image(path, tile_grid(images))
