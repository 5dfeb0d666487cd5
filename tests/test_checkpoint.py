"""Checkpoint format: bit-exact round trips and malformed-file rejection."""

import json
import struct

import numpy as np
import pytest

import ecgan.checkpoint as C
import ecgan.cli as cli
from ecgan.errors import ContractError, FormatError
from ecgan.networks import (
    NetworkSpec,
    build_network,
    latent,
)
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


def test_component_for_role_takes_the_first_role_held(tmp_path):
    path = tmp_path / "run.ckpt"
    C.save_checkpoint(path, tiny_nets())
    ck = C.load_checkpoint(path)
    assert ck.component_for_role("classifier", "shared_discriminator") == "classifier"
    assert ck.component_for_role("shared_discriminator", "generator", "classifier") == "generator"
    C.save_checkpoint(path, {"generator": tiny_nets()["generator"]})
    ck = C.load_checkpoint(path)
    with pytest.raises(ContractError, match=r"no classifier or shared_discriminator \(roles: \['generator'\]\)"):
        ck.component_for_role("classifier", "shared_discriminator")


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


def rewrite_header(path, edit):
    """Replace the header of the checkpoint at `path` by `edit(header)`."""
    body = path.read_bytes()
    (hlen,) = struct.unpack("<Q", body[8:16])
    header = edit(json.loads(body[16 : 16 + hlen]))
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(C.MAGIC + struct.pack("<Q", len(blob)) + blob + body[16 + hlen:])


def test_repeated_header_key(tmp_path, capsys):
    # json keeps the last value of a repeated key, so this file loaded as a
    # classifier in train mode, with no error.
    path, buf = good_bytes(tmp_path)
    (hlen,) = struct.unpack("<Q", buf[8:16])
    header = buf[16 : 16 + hlen].decode()
    assert header.startswith('{"components": {"classifier": {"mode": "train", ')
    blob = header.replace('"mode": "train"', '"mode": "eval", "mode": "train"', 1).encode()
    path.write_bytes(C.MAGIC + struct.pack("<Q", len(blob)) + blob + buf[16 + hlen:])
    with pytest.raises(FormatError, match="repeated key 'mode'") as exc:
        C.load_checkpoint(path)
    assert exc.value.offset == 16
    assert cli.main(["eval", str(path), "--data", "synth:n_per_class=2,classes=3,size=16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "repeated key 'mode'" in err


def test_unsupported_version(tmp_path):
    path, _ = good_bytes(tmp_path)
    rewrite_header(path, lambda h: {**h, "format_version": 99})
    with pytest.raises(FormatError, match="unsupported format version"):
        C.load_checkpoint(path)


def test_version_1_file_loads_without_its_adam_moments(tmp_path):
    # Version 1 also stored each network's Adam moments as opt: records.
    path, _ = good_bytes(tmp_path)
    name, p = tiny_nets()["classifier"].trainable_parameters()[0]
    moment = np.full(p.data.shape, 7.0, dtype="<f4")

    def to_version_1(h):
        h["format_version"] = 1
        h["optimizers"] = {"classifier": {
            "lr": 2e-4, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step_count": 1,
        }}
        h["records"].append({"name": f"opt:classifier/m/{name}", "shape": list(moment.shape), "dtype": "<f4"})
        return h

    rewrite_header(path, to_version_1)
    with open(path, "ab") as f:
        f.write(moment.tobytes())
    ck = C.load_checkpoint(path)
    assert ck.header["format_version"] == 1
    for key, net in tiny_nets().items():
        rebuilt = ck.build(key)
        assert [n for n, _ in rebuilt.parameters()] == [n for n, _ in net.parameters()]
        for (_, p), (_, q) in zip(net.parameters(), rebuilt.parameters()):
            assert p.data.dtype == q.data.dtype and p.data.tobytes() == q.data.tobytes()


def test_new_file_is_version_2_with_networks_only(tmp_path):
    path, _ = good_bytes(tmp_path)
    ck = C.load_checkpoint(path)
    assert ck.header["format_version"] == C.FORMAT_VERSION == 2
    assert "optimizers" not in ck.header
    assert sorted(ck.arrays) == sorted(
        f"{key}/{name}" for key, net in tiny_nets().items() for name, _ in net.parameters()
    )


def _drop_first_record_dtype(h):
    del h["records"][0]["dtype"]
    return h


def _set_first_record_shape(shape):
    def edit(h):
        h["records"][0]["shape"] = shape
        return h

    return edit


def _set_classifier_spec(field, value):
    def edit(h):
        h["components"]["classifier"]["spec"][field] = value
        return h

    return edit


@pytest.mark.parametrize("edit, match", [
    (_drop_first_record_dtype, "has dtype None"),
    (lambda h: {k: v for k, v in h.items() if k != "records"}, "no field 'records'"),
    (lambda h: [h], "header is a JSON list"),
    (_set_classifier_spec("depth", "1"), "spec field 'depth' = '1'"),
    (_set_classifier_spec("depth", 1.5), "spec field 'depth' = 1.5"),
    (_set_classifier_spec("depth", 0), "depth must be >= 1"),
    (_set_classifier_spec("width", 8), "unexpected keyword argument 'width'"),
    (_set_first_record_shape([2**40, 2**40]), "truncated record"),
    (_set_first_record_shape([4, -1]), "has shape \\[4, -1\\]"),
], ids=["record-without-dtype", "no-records", "list-header", "string-depth",
        "float-depth", "zero-depth", "unknown-spec-field", "huge-shape", "negative-dim"])
def test_malformed_header_is_format_error(tmp_path, edit, match):
    path, _ = good_bytes(tmp_path)
    rewrite_header(path, edit)
    with pytest.raises(FormatError, match=match) as exc:
        C.load_checkpoint(path)
    assert exc.value.offset is not None


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
