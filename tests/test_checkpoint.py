"""Checkpoint format: bit-exact round trips and malformed-file rejection."""

import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ecgan.checkpoint as C
import ecgan.cli as cli
from ecgan.errors import ContractError, FormatError
from ecgan.networks import (
    ROLES,
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
    assert ck.header["meta"] == {"epoch": 3}
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


def test_repeated_record(tmp_path, capsys):
    # With its payload appended, a second copy of a record loaded as 63
    # records and 62 arrays: the later copy won.
    path, buf = good_bytes(tmp_path)
    stem = "classifier/stem.conv.w"
    ck = C.load_checkpoint(path)
    (hlen,) = struct.unpack("<Q", buf[8:16])
    payload = len(buf) - 16 - hlen

    def repeat_stem(h):
        h["records"].append(next(r for r in h["records"] if r["name"] == stem))
        return h

    rewrite_header(path, repeat_stem)
    with open(path, "ab") as f:
        f.write(ck.arrays[stem].tobytes())
    (hlen,) = struct.unpack("<Q", path.read_bytes()[8:16])
    with pytest.raises(FormatError, match=f"repeated record '{stem}'") as exc:
        C.load_checkpoint(path)
    assert exc.value.offset == 16 + hlen + payload  # where the second copy's payload starts
    assert cli.main(["eval", str(path), "--data", "synth:n_per_class=2,classes=3,size=16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"repeated record '{stem}'" in err


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


def _drop_classifier_spec(field):
    def edit(h):
        del h["components"]["classifier"]["spec"][field]
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
    (_drop_classifier_spec("base_width"), "missing 1 required positional argument: 'base_width'"),
    (_set_first_record_shape([2**40, 2**40]), "truncated record"),
    (_set_first_record_shape([4, -1]), "has shape \\[4, -1\\]"),
    # An empty record numpy cannot shape: a ValueError traceback.
    (_set_first_record_shape([0, 2**63]), "has shape \\[0, 9223372036854775808\\] \\(Maximum allowed dimension"),
], ids=["record-without-dtype", "no-records", "list-header", "string-depth",
        "float-depth", "zero-depth", "unknown-spec-field", "missing-spec-field", "huge-shape",
        "negative-dim", "empty-but-unshapeable"])
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


EVAL_DATA = "synth:n_per_class=2,classes=3,size=16"


def one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_deeply_nested_header_is_format_error(tmp_path, capsys):
    # The JSON decoder's RecursionError escaped as a traceback with exit 1.
    path = tmp_path / "nested.ckpt"
    blob = b"[" * 100_000 + b"]" * 100_000
    path.write_bytes(C.MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(FormatError, match="bad header") as exc:
        C.load_checkpoint(path)
    assert exc.value.offset == 16
    assert cli.main(["eval", str(path), "--data", EVAL_DATA]) == 2
    assert one_error_line(capsys.readouterr().err)


def test_huge_spec_fails_at_the_first_mismatched_record(tmp_path, capsys):
    # The network was drawn from the spec before its records were read, so
    # this asked numpy for 4.55 PiB (a (64, 10**13) fc weight at width 8).
    path, _ = good_bytes(tmp_path)
    rewrite_header(path, _set_classifier_spec("num_classes", 10**13))
    assert cli.main(["eval", str(path), "--data", EVAL_DATA]) == 2
    assert capsys.readouterr().err == "error: parameter 'fc.w': saved shape (64, 3) != (64, 10000000000000)\n"


SPEC_INTS = ("image_size", "channels", "num_classes", "base_width", "depth")
ODD_INTS = st.sampled_from([-(2**63), -1, 0, 1, 2, 3, 8, 16, 64, 2**31, 2**63, 10**13, 10**30])


@st.composite
def header_edits(draw):
    """Up to three edits of a saved generator + classifier header, each
    (component, field, value): a spec int set huge, zero or negative, the
    spec's role or `conditional`, the component's mode, or the shape of one
    of its records (the field is then the record's index)."""
    edits = []
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["classifier", "generator"]))
        field = draw(st.sampled_from([*SPEC_INTS, "role", "conditional", "mode", "record"]))
        if field == "role":
            value = draw(st.sampled_from([*ROLES, "painter"]))
        elif field == "conditional":
            value = draw(st.booleans())
        elif field == "mode":
            value = draw(st.sampled_from(["train", "eval", "test"]))
        elif field == "record":
            field = draw(st.integers(0, 100))
            value = draw(st.lists(ODD_INTS, max_size=4))
        else:
            value = draw(ODD_INTS)
        edits.append((key, field, value))
    return edits


def _apply(header, edits):
    for key, field, value in edits:
        component = header["components"][key]
        if field == "mode":
            component["mode"] = value
        elif isinstance(field, int):
            records = [r for r in header["records"] if r["name"].startswith(f"{key}/")]
            records[field % len(records)]["shape"] = value
        else:
            component["spec"][field] = value
    return header


@pytest.fixture(scope="module")
def saved_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("saved") / "good.ckpt"
    C.save_checkpoint(path, tiny_nets())
    return path.read_bytes()


def assert_eval_and_generate_outcomes(path, generate_flags=("--n", "2")):
    """`eval` and `generate` of the checkpoint at `path` each exit 0, 1 or
    2, and print nothing on stderr or, when nonzero, one `error:` line."""
    for argv in (["eval", str(path), "--data", EVAL_DATA],
                 ["generate", str(path), *generate_flags, "--out", str(path.parent / "g.pgm")]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv[0], code)
        assert err.getvalue() == "" if code == 0 else one_error_line(err.getvalue()), (argv[0], err.getvalue())


# `generate`'s --class and --seed: absent, in range, out of range, or past
# what a C long or numpy holds. --n stays small: a run allocates it.
GENERATE_COUNTS = [-1, 0, 1, 2, 3]
GENERATE_CLASSES = [None, -1, 0, 1, 2, 3, 2**31, 2**63, 2**64, 10**23]
GENERATE_SEEDS = [None, -1, 0, 7, 2**53, 2**53 + 1, 2**63, 10**23]


@st.composite
def generate_flags(draw):
    """`generate`'s --n, --class and --seed flags, the last two optional."""
    flags = ["--n", str(draw(st.sampled_from(GENERATE_COUNTS)))]
    for flag, values in (("--class", GENERATE_CLASSES), ("--seed", GENERATE_SEEDS)):
        value = draw(st.sampled_from(values))
        if value is not None:
            flags += [flag, str(value)]
    return flags


@given(header_edits(), st.booleans(), generate_flags())
def test_mutated_header_gives_an_exit_code_and_at_most_one_error_line(saved_bytes, edits, conditional, flags):
    # A conditional generator takes --class; the saved one is unconditional.
    edits = [("generator", "conditional", True)] * conditional + edits
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.ckpt"
        path.write_bytes(saved_bytes)
        rewrite_header(path, lambda h: _apply(h, edits))
        assert_eval_and_generate_outcomes(path, flags)


def record_spans(buf):
    """Per record name in checkpoint bytes `buf`: its payload's byte offset
    and float count."""
    (hlen,) = struct.unpack("<Q", buf[8:16])
    spans, offset = {}, 16 + hlen
    for rec in json.loads(buf[16 : 16 + hlen])["records"]:
        spans[rec["name"]] = (offset, math.prod(rec["shape"]))
        offset += 4 * spans[rec["name"]][1]
    return spans


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("record, command", [("classifier/fc.w", "eval"), ("generator/proj.w", "generate")])
def test_a_non_finite_record_is_refused(tmp_path, capsys, value, record, command):
    # A NaN fc.w made `eval` print accuracy=0.3333 and exit 0; a NaN proj.w
    # ended `generate` in "arithmetic left the finite floats" with exit 1.
    path, buf = good_bytes(tmp_path)
    offset, _ = record_spans(buf)[record]
    buf[offset + 12 : offset + 16] = np.float32(value).tobytes()  # its fourth float
    path.write_bytes(bytes(buf))
    message = f"{path}: record {record!r} holds a non-finite value (byte offset {offset})"
    with pytest.raises(FormatError) as exc:
        C.load_checkpoint(path)
    assert (str(exc.value), exc.value.offset) == (message, offset)
    out = tmp_path / "g.pgm"
    argv = ["eval", str(path), "--data", EVAL_DATA] if command == "eval" else [
        "generate", str(path), "--n", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


F32_MAX = float(np.finfo(np.float32).max)
ODD_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, F32_MAX, -F32_MAX, 1e30, -1e30, 1e-45, 0.0])


@st.composite
def byte_edits(draw, buf):
    """One to three edits of checkpoint bytes `buf`, each ("float", i,
    value), which writes float32 `value` at byte i, the start of a float of
    a record's payload, or ("cut", n), which keeps the first n bytes."""
    spans = sorted(record_spans(buf).values())
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)) == 0:
            edits.append(("cut", draw(st.integers(0, len(buf)))))
        else:
            offset, count = draw(st.sampled_from(spans))
            edits.append(("float", offset + 4 * draw(st.integers(0, count - 1)), draw(ODD_FLOATS)))
    return edits


@given(st.data())
def test_mutated_bytes_give_an_exit_code_and_at_most_one_error_line(saved_bytes, data):
    buf = bytearray(saved_bytes)
    for kind, at, *value in data.draw(byte_edits(saved_bytes)):
        if kind == "cut":
            del buf[at:]
        elif at + 4 <= len(buf):
            buf[at : at + 4] = np.float32(value[0]).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.ckpt"
        path.write_bytes(bytes(buf))
        assert_eval_and_generate_outcomes(path)
