"""Single-file binary checkpoints for networks and optimizer state.

Layout: 8-byte magic "ECGANCK1", a little-endian u64 header length, a
UTF-8 JSON header, then raw record payloads in header order. The header
carries the format version, each component's network spec, and a
manifest of (name, shape, dtype) for every record. Float records are
little-endian float32; round-trips are bit-exact.

Record names are "<component>/<parameter>" for networks and
"opt:<component>/<m|v>/<parameter>" for optimizer moments.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import struct

import numpy as np

from .errors import ContractError, FormatError
from .networks import NetworkSpec, build_network
from .tensor import Rng

MAGIC = b"ECGANCK1"
FORMAT_VERSION = 1

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


def save_checkpoint(path, networks, optimizers=None, meta=None):
    """Write named networks (dict role_key -> Network) and optional optimizers.

    `optimizers` maps the same keys to Adam instances; `meta` is a small
    JSON-serializable dict (hyperparameters, epoch counters, ...). The file
    appears at `path` only once complete (`atomic_open`).
    """
    optimizers = optimizers or {}
    records = []  # (record_name, contiguous little-endian array)

    def put(name, array):
        arr = np.ascontiguousarray(array)
        if arr.dtype != np.float32:
            raise ContractError(f"record {name!r} has unsupported dtype {arr.dtype}")
        records.append((name, arr.astype(_RECORD_DTYPE, copy=False)))

    components = {}
    for key, net in networks.items():
        components[key] = {
            "spec": dataclasses.asdict(net.spec),
            "mode": net.mode,
        }
        for pname, tensor in net.parameters():
            put(f"{key}/{pname}", tensor.data)

    opt_meta = {}
    for key, opt in optimizers.items():
        if key not in networks:
            raise ContractError(f"optimizer {key!r} has no matching network")
        opt_meta[key] = {
            "lr": opt.lr,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "eps": opt.eps,
            "step_count": opt.step_count,
        }
        for sname, arr in opt.state().items():
            put(f"opt:{key}/{sname}", arr)

    header = {
        "format_version": FORMAT_VERSION,
        "components": components,
        "optimizers": opt_meta,
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

    def spec(self, key):
        return NetworkSpec(**self.components[key]["spec"])

    def roles(self):
        return {key: info["spec"]["role"] for key, info in self.components.items()}

    def component_for_role(self, role):
        matches = [k for k, r in self.roles().items() if r == role]
        if not matches:
            raise ContractError(f"checkpoint holds no {role} (roles: {sorted(self.roles().values())})")
        return matches[0]

    def build(self, key):
        """Reconstruct one network with its saved parameters."""
        net = build_network(self.spec(key), Rng(0, f"restore/{key}"))
        prefix = f"{key}/"
        state = {
            n[len(prefix):]: a for n, a in self.arrays.items() if n.startswith(prefix)
        }
        net.load_state(state)
        net.mode = self.components[key]["mode"]
        return net

    def optimizer_state(self, key):
        """(moment arrays keyed m/<name> and v/<name>, metadata dict)."""
        if key not in self.header["optimizers"]:
            raise ContractError(f"checkpoint holds no optimizer state for {key!r}")
        prefix = f"opt:{key}/"
        state = {
            n[len(prefix):]: a for n, a in self.arrays.items() if n.startswith(prefix)
        }
        return state, self.header["optimizers"][key]


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
    try:
        header = json.loads(buf[16 : 16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: bad header ({e})", offset=16) from None
    if header.get("format_version") != FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported format version {header.get('format_version')}", offset=16
        )

    arrays = {}
    pos = 16 + hlen
    for rec in header["records"]:
        if rec["dtype"] != _RECORD_DTYPE.str:
            raise FormatError(f"{path}: record {rec['name']!r} has dtype {rec['dtype']}", offset=pos)
        count = int(np.prod(rec["shape"], dtype=np.int64)) if rec["shape"] else 1
        nbytes = count * _RECORD_DTYPE.itemsize
        if len(buf) < pos + nbytes:
            raise FormatError(f"{path}: truncated record {rec['name']!r}", offset=len(buf))
        arr = np.frombuffer(buf, dtype=_RECORD_DTYPE, count=count, offset=pos).reshape(rec["shape"])
        arrays[rec["name"]] = arr.copy()
        pos += nbytes
    if pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - pos} trailing bytes", offset=pos)
    return Checkpoint(header, arrays)
