"""Single-file binary checkpoints of trained networks.

Layout: 8-byte magic "ECGANCK1", a little-endian u64 header length, a
UTF-8 JSON header that gives each key once per object, then raw record
payloads in header order. The header carries the format version, each
component's network spec and mode, and a manifest of (name, shape, dtype)
for every record. Float records are little-endian float32; round-trips
are bit-exact.

Format 2 holds networks only: one "<component>/<parameter>" record per
parameter and running statistic. Version-1 files still load with the same
code. Their "optimizers" field and "opt:<component>/<m|v>/<parameter>"
Adam moments are read past: `build` takes only a component's own records,
and no command resumes training.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import struct

import numpy as np

from .errors import ContractError, FormatError, unique_keys
from .networks import NetworkSpec, build_network
from .tensor import Rng

MAGIC = b"ECGANCK1"
FORMAT_VERSION = 2

_RECORD_DTYPE = np.dtype("<f4")


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open `<path>.tmp` for writing and move it onto `path` when the block
    ends without error. A crash or error mid-write never leaves a partial
    file at `path`: it holds the old complete file or the new one."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path, networks, meta=None):
    """Write named networks (dict role_key -> Network).

    `meta` is a small JSON-serializable dict (run id, final metrics,
    config). The file appears at `path` only once complete (`atomic_open`).
    """
    records = []  # (record_name, contiguous little-endian array)
    components = {}
    for key, net in networks.items():
        components[key] = {
            "spec": dataclasses.asdict(net.spec),
            "mode": net.mode,
        }
        for pname, tensor in net.parameters():
            name, arr = f"{key}/{pname}", np.ascontiguousarray(tensor.data)
            if arr.dtype != np.float32:
                raise ContractError(f"record {name!r} has unsupported dtype {arr.dtype}")
            records.append((name, arr.astype(_RECORD_DTYPE, copy=False)))

    header = {
        "format_version": FORMAT_VERSION,
        "components": components,
        "meta": meta or {},
        "records": [
            {"name": n, "shape": list(a.shape), "dtype": a.dtype.str} for n, a in records
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for _, arr in records:
            f.write(arr.tobytes())


class Checkpoint:
    """Parsed checkpoint: header fields plus record arrays by name."""

    def __init__(self, header, arrays):
        self.header = header
        self.arrays = arrays

    @property
    def components(self):
        return self.header["components"]

    @property
    def meta(self):
        return self.header["meta"]

    def roles(self):
        return {key: info["spec"]["role"] for key, info in self.components.items()}

    def component_for_role(self, *roles):
        """The key of a component of the first of `roles` the checkpoint holds."""
        held = self.roles()
        matches = [key for role in roles for key, held_role in held.items() if held_role == role]
        if not matches:
            raise ContractError(f"checkpoint holds no {' or '.join(roles)} (roles: {sorted(held.values())})")
        return matches[0]

    def build(self, key):
        """Reconstruct one network with its saved parameters."""
        net = build_network(NetworkSpec(**self.components[key]["spec"]), Rng(0, f"restore/{key}"))
        prefix = f"{key}/"
        state = {
            n[len(prefix):]: a for n, a in self.arrays.items() if n.startswith(prefix)
        }
        net.load_state(state)
        net.mode = self.components[key]["mode"]
        return net


# JSON type of each NetworkSpec field in a header; every other field is an int.
_SPEC_TYPES = {"role": str, "conditional": bool}


def _check_header(header):
    """Raise KeyError, TypeError or ValueError if a field that loading or
    `Checkpoint` reads is missing or of the wrong kind or value."""
    for field in ("components", "meta"):
        if not isinstance(header[field], dict):
            raise TypeError(f"{field!r} is not an object")
    for key, info in header["components"].items():
        fields = info["spec"]
        if not isinstance(fields, dict):
            raise TypeError(f"component {key!r} has a spec that is not an object")
        for name, value in fields.items():
            if type(value) is not _SPEC_TYPES.get(name, int):
                raise TypeError(f"component {key!r} has spec field {name!r} = {value!r}")
        NetworkSpec(**fields)
        if info["mode"] not in ("train", "eval"):
            raise ValueError(f"component {key!r} has mode {info['mode']!r}")
    for rec in header["records"]:
        name, shape = rec["name"], rec["shape"]
        if not isinstance(name, str) or not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape
        ):
            raise TypeError(f"record {name!r} has shape {shape!r}")


def load_checkpoint(path):
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:8] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint (magic {buf[:8]!r})", offset=0)
    if len(buf) < 16:
        raise FormatError(f"{path}: truncated header length", offset=len(buf))
    (hlen,) = struct.unpack("<Q", buf[8:16])
    if len(buf) < 16 + hlen:
        raise FormatError(f"{path}: truncated header", offset=len(buf))
    hook = functools.partial(unique_keys, error=FormatError)
    try:
        header = json.loads(buf[16 : 16 + hlen].decode("utf-8"), object_pairs_hook=hook)
    except (UnicodeDecodeError, json.JSONDecodeError, FormatError) as e:
        raise FormatError(f"{path}: bad header ({e})", offset=16) from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is a JSON {type(header).__name__}, not an object", offset=16)
    if header.get("format_version") not in (1, FORMAT_VERSION):  # 1 adds unused Adam moments
        raise FormatError(
            f"{path}: unsupported format version {header.get('format_version')}", offset=16
        )
    try:
        _check_header(header)
    except KeyError as e:
        raise FormatError(f"{path}: malformed header (no field {e})", offset=16) from None
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: malformed header ({e})", offset=16) from None

    arrays = {}
    pos = 16 + hlen
    for rec in header["records"]:
        if rec.get("dtype") != _RECORD_DTYPE.str:
            raise FormatError(f"{path}: record {rec['name']!r} has dtype {rec.get('dtype')}", offset=pos)
        count = math.prod(rec["shape"])  # a Python int: a huge shape cannot wrap around
        nbytes = count * _RECORD_DTYPE.itemsize
        if len(buf) < pos + nbytes:
            raise FormatError(f"{path}: truncated record {rec['name']!r}", offset=len(buf))
        arr = np.frombuffer(buf, dtype=_RECORD_DTYPE, count=count, offset=pos).reshape(rec["shape"])
        arrays[rec["name"]] = arr.copy()
        pos += nbytes
    if pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - pos} trailing bytes", offset=pos)
    return Checkpoint(header, arrays)
