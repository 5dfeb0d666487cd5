"""Checkpoint format: bit-exact round trips and malformed-file rejection."""

import struct

import numpy as np
import pytest

import ecgan.checkpoint as C
from ecgan.errors import ContractError, FormatError
from ecgan.networks import (
    NetworkSpec,
    build_network,
    latent,
)
from ecgan.optim import Adam
from ecgan.tensor import Rng, no_grad


def tiny_nets(seed=0):
    common = dict(image_size=16, channels=1, num_classes=3, base_width=8)
    gen = build_network(NetworkSpec(role="generator", **common), Rng(seed, "init/g"))
    cls = build_network(NetworkSpec(role="classifier", depth=1, **common), Rng(seed, "init/c"))
    return {"generator": gen, "classifier": cls}


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "run.ckpt"
    C.save_checkpoint(path, tiny_nets(seed=0))
    old = path.read_bytes()

    def disk_full(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr(C.struct, "pack", disk_full)  # after the magic is written
    with pytest.raises(OSError, match="no space"):
        C.save_checkpoint(path, tiny_nets(seed=1))
    assert path.read_bytes() == old
    with pytest.raises(OSError, match="no space"):
        C.save_checkpoint(tmp_path / "new.ckpt", tiny_nets(seed=1))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]


def test_round_trip_bit_exact(tmp_path):
    nets = tiny_nets()
    path = tmp_path / "run.ckpt"
    C.save_checkpoint(path, nets, meta={"epoch": 3})
    ck = C.load_checkpoint(path)
    assert ck.meta == {"epoch": 3}
    for key, net in nets.items():
        rebuilt = ck.build(key)
        assert rebuilt.spec == net.spec
        for (name, p), (name2, q) in zip(net.parameters(), rebuilt.parameters()):
            assert name == name2
            assert p.data.dtype == q.data.dtype
            np.testing.assert_array_equal(p.data, q.data)


def test_round_trip_preserves_running_stats(tmp_path):
    nets = tiny_nets()
    gen = nets["generator"]
    with no_grad():
        gen.forward(latent(4, Rng(1, "latent")).values)  # move BN running stats
    path = tmp_path / "run.ckpt"
    C.save_checkpoint(path, nets)
    rebuilt = C.load_checkpoint(path).build("generator")
    state = dict(gen.parameters())
    for name, q in rebuilt.parameters():
        np.testing.assert_array_equal(q.data, state[name].data)


def test_round_trip_optimizer_state(tmp_path):
    nets = tiny_nets()
    cls = nets["classifier"]
    opt = Adam(cls.trainable_parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    for _ in range(3):
        for _, p in opt.params:
            p.grad = rng.normal(size=p.data.shape).astype(p.data.dtype)
        opt.step()
    path = tmp_path / "run.ckpt"
    C.save_checkpoint(path, nets, optimizers={"classifier": opt})

    ck = C.load_checkpoint(path)
    state, meta = ck.optimizer_state("classifier")
    assert meta["step_count"] == 3
    assert meta["lr"] == 1e-3
    rebuilt = ck.build("classifier")
    opt2 = Adam(rebuilt.trainable_parameters(), meta["lr"], betas=(meta["beta1"], meta["beta2"]))
    opt2.load_state(state, meta["step_count"])
    for name in opt.m:
        np.testing.assert_array_equal(opt.m[name], opt2.m[name])
        np.testing.assert_array_equal(opt.v[name], opt2.v[name])

    # Same gradient after restore -> identical next step on both copies.
    grads = {n: rng.normal(size=p.data.shape).astype(p.data.dtype) for n, p in opt.params}
    for n, p in opt.params:
        p.grad = grads[n]
    for n, p in opt2.params:
        p.grad = grads[n].copy()
    opt.step()
    opt2.step()
    for (n, p), (_, q) in zip(opt.params, opt2.params):
        np.testing.assert_array_equal(p.data, q.data)


def test_rebuilt_network_forward_identical(tmp_path):
    nets = tiny_nets()
    path = tmp_path / "run.ckpt"
    C.save_checkpoint(path, nets)
    rebuilt = C.load_checkpoint(path).build("generator")
    lv = latent(3, Rng(2, "latent"))
    with no_grad():
        a = nets["generator"].forward(lv.values, update_stats=False)
        b = rebuilt.forward(lv.values, update_stats=False)
    np.testing.assert_array_equal(a.data, b.data)


def test_mode_saved_and_restored(tmp_path):
    nets = tiny_nets()
    nets["generator"].mode = "eval"
    path = tmp_path / "run.ckpt"
    C.save_checkpoint(path, nets)
    ck = C.load_checkpoint(path)
    assert ck.build("generator").mode == "eval"
    assert ck.build("classifier").mode == "train"


def test_roles_and_component_lookup(tmp_path):
    nets = tiny_nets()
    path = tmp_path / "run.ckpt"
    C.save_checkpoint(path, nets)
    ck = C.load_checkpoint(path)
    assert ck.roles() == {"generator": "generator", "classifier": "classifier"}
    assert ck.component_for_role("generator") == "generator"
    with pytest.raises(ContractError, match="no discriminator"):
        ck.component_for_role("discriminator")


def test_optimizer_without_network_rejected(tmp_path):
    nets = tiny_nets()
    opt = Adam(nets["classifier"].trainable_parameters(), 1e-3)
    with pytest.raises(ContractError, match="no matching network"):
        C.save_checkpoint(tmp_path / "x.ckpt", {"generator": nets["generator"]},
                          optimizers={"classifier": opt})


def test_missing_optimizer_state_rejected(tmp_path):
    path = tmp_path / "run.ckpt"
    C.save_checkpoint(path, tiny_nets())
    with pytest.raises(ContractError, match="no optimizer state"):
        C.load_checkpoint(path).optimizer_state("classifier")


# -- malformed files ----------------------------------------------------------


def good_bytes(tmp_path):
    path = tmp_path / "good.ckpt"
    C.save_checkpoint(path, tiny_nets())
    return path, bytearray(path.read_bytes())


def test_bad_magic(tmp_path):
    path, buf = good_bytes(tmp_path)
    buf[:8] = b"NOTACKPT"
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match="not a checkpoint") as exc:
        C.load_checkpoint(path)
    assert exc.value.offset == 0


def test_truncated_header_length(tmp_path):
    path, buf = good_bytes(tmp_path)
    path.write_bytes(bytes(buf[:12]))
    with pytest.raises(FormatError, match="truncated header length") as exc:
        C.load_checkpoint(path)
    assert exc.value.offset == 12


def test_truncated_header(tmp_path):
    path, buf = good_bytes(tmp_path)
    path.write_bytes(bytes(buf[:20]))
    with pytest.raises(FormatError, match="truncated header") as exc:
        C.load_checkpoint(path)
    assert exc.value.offset == 20


def test_corrupt_header_json(tmp_path):
    path, buf = good_bytes(tmp_path)
    buf[16] = 0xFF  # first header byte: breaks UTF-8/JSON
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match="bad header") as exc:
        C.load_checkpoint(path)
    assert exc.value.offset == 16


def test_unsupported_version(tmp_path):
    path, _ = good_bytes(tmp_path)
    ck = C.load_checkpoint(path)
    header = dict(ck.header)
    header["format_version"] = 99
    import json
    blob = json.dumps(header, sort_keys=True).encode()
    body = path.read_bytes()
    (hlen,) = struct.unpack("<Q", body[8:16])
    path.write_bytes(C.MAGIC + struct.pack("<Q", len(blob)) + blob + body[16 + hlen:])
    with pytest.raises(FormatError, match="unsupported format version"):
        C.load_checkpoint(path)


def test_truncated_record(tmp_path):
    path, buf = good_bytes(tmp_path)
    path.write_bytes(bytes(buf[:-7]))
    with pytest.raises(FormatError, match="truncated record") as exc:
        C.load_checkpoint(path)
    assert exc.value.offset == len(buf) - 7


def test_trailing_bytes(tmp_path):
    path, buf = good_bytes(tmp_path)
    path.write_bytes(bytes(buf) + b"\x00\x00\x00")
    with pytest.raises(FormatError, match="3 trailing bytes"):
        C.load_checkpoint(path)
