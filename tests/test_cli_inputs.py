"""Malformed configs and data specs: whatever a field holds, the CLI exits 0,
1 or 2, and a nonzero exit prints exactly one `error:` line and no traceback.

Each example mutates one field of a tiny valid input: drops it, gives it a
wrong type, an empty value, a negative value, zero, NaN or +-1e400 (which
JSON and `float` read as infinite), or repeats its key. Fields that size the
work take only small or refused values, or values past numpy's index range,
which numpy refuses to shape. They are never dropped, since their defaults
are larger: a possible but huge allocation can end in the kernel's OOM
killer rather than in a MemoryError. The fields that a run loops over
(`epochs`, `depth`) take no value past numpy's range either.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ecgan.cli as cli
from ecgan import pgm
from ecgan.checkpoint import save_checkpoint
from ecgan.networks import NetworkSpec, build_network
from ecgan.tensor import Rng

CONFIG = {
    "dataset": {
        "source": "synth", "train_per_class": 2, "test_per_class": 2, "classes": 2, "size": 16,
        "noise_sigma": 0.1, "data_seed": 0,
    },
    "variant": "ecgan",
    "hyperparams": {
        "lambda": 0.1, "threshold": 0.7, "lr_g": 2e-4, "lr_d": 2e-4, "lr_c": 2e-4, "weight_decay": 1e-3,
        "batch_size": 4, "epochs": 1, "base_width": 8, "depth": 1,
    },
    "dataset_percent": [100],
    "lambdas": [0.1],
    "augment": False,
    "decay": True,
    "seeds": [0],
    "output_dir": "out",
}

SPEC = {"n_per_class": "2", "classes": "2", "size": "16", "noise_sigma": "0.1", "seed": "0"}

# Config and data-spec fields whose value sizes the work.
SIZING = {"train_per_class", "test_per_class", "n_per_class", "classes", "size", "epochs", "depth", "base_width"}
# Sizing fields whose value a run loops over.
LOOPED = {"epochs", "depth"}

INF = float("inf")
REFUSED_NUMBERS = [-1, 0, math.nan, INF, -INF, -0.5]
SMALL = [1, 2, 3, 0.5]
LARGE = [2**53, 2**53 + 1, 2**63, 2**64, 1e300, 10**400]
# Past numpy's index range: numpy refuses to shape an array of this many
# elements, so no run allocates anything for them.
BEYOND_NUMPY = [2**63, 2**64, 10**23]
WRONG_TYPES = ["x", [1], {"a": 1}, None, True]
EMPTY = ["", [], {}]


def config_paths(doc, prefix=()):
    """The path of every leaf field of `doc`, list entries included."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from config_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)
            if isinstance(value, list):
                yield prefix + (key, 0)


def values_for(field):
    if field in LOOPED:
        numbers = SMALL
    elif field in SIZING:
        numbers = SMALL + BEYOND_NUMPY
    else:
        numbers = SMALL + LARGE
    return st.sampled_from(REFUSED_NUMBERS + numbers + WRONG_TYPES + EMPTY)


@st.composite
def config_texts(draw):
    """JSON text of `CONFIG` with one field mutated."""
    doc = json.loads(json.dumps(CONFIG))
    path = draw(st.sampled_from(list(config_paths(CONFIG))))
    *parents, key = path
    parent = doc
    for name in parents:
        parent = parent[name]
    field = key if isinstance(key, str) else parents[-1]
    kinds = ["set", "repeat"] + ([] if field in SIZING else ["drop"])
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "set":
        parent[key] = draw(values_for(field))
    elif isinstance(key, int):
        parent.append(parent[key])
    else:
        parent["__repeat__"] = draw(st.one_of(st.just(parent[key]), values_for(field)))
    text = json.dumps(doc).replace('"__repeat__"', json.dumps(key))
    return text.replace("-Infinity", "-1e400").replace("Infinity", "1e400")


def spec_value_text(value):
    if isinstance(value, float) and math.isinf(value):
        return "1e400" if value > 0 else "-1e400"
    return value if isinstance(value, str) else json.dumps(value)


@st.composite
def spec_texts(draw):
    """A synth data spec with one field mutated, or an unknown source."""
    fields = dict(SPEC)
    key = draw(st.sampled_from([*SPEC, "source"]))
    if key == "source":
        source = draw(st.sampled_from(["", "idx", "dir", "http", "synth:"]))
        return f"{source}:" + ",".join(f"{k}={v}" for k, v in fields.items())
    kinds = ["set", "empty", "repeat"] + ([] if key in SIZING else ["drop"])
    kind = draw(st.sampled_from(kinds))
    text = ",".join(f"{k}={v}" for k, v in fields.items() if not (kind == "drop" and k == key))
    if kind == "set":
        value = spec_value_text(draw(values_for(key)))
        text = text.replace(f"{key}={fields[key]}", f"{key}={value}")
    elif kind == "empty":
        text = text.replace(f"{key}={fields[key]}", f"{key}=")
    elif kind == "repeat":
        text += f",{key}={spec_value_text(draw(st.sampled_from([fields[key], *SMALL])))}"
    return "synth:" + text


def run_cli(argv):
    """(exit code, stderr) of `cli.main(argv)`, with the warnings it would
    print there."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    return code, err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )


def assert_one_outcome(code, err):
    assert code in (0, 1, 2), code
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err


@given(config_texts())
def test_a_mutated_config_gives_an_exit_code_and_one_error_line(text):
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("cfg.json", "w") as f:
            f.write(text)
        assert_one_outcome(*run_cli(["train", "cfg.json"]))


@pytest.fixture(scope="module")
def classifier_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "c.ckpt"
    spec = NetworkSpec(role="classifier", image_size=16, channels=1, num_classes=2, base_width=8)
    save_checkpoint(path, {"classifier": build_network(spec, Rng(0, "init/classifier"))})
    return str(path)


@given(spec_texts())
def test_a_mutated_data_spec_gives_an_exit_code_and_one_error_line(classifier_checkpoint, text):
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        assert_one_outcome(*run_cli(["eval", classifier_checkpoint, "--data", text]))


def test_the_unmutated_inputs_run():
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("cfg.json", "w") as f:
            json.dump(CONFIG, f)
        assert run_cli(["train", "cfg.json"]) == (0, "")
        assert os.path.exists(os.path.join("out", "run.json"))


def assert_one_usage_error(code, err, start):
    assert code == 2 and err.startswith(f"error: {start}") and err.count("\n") == 1, (code, err)


@pytest.mark.parametrize("value", BEYOND_NUMPY)
@pytest.mark.parametrize("field", ["train_per_class", "test_per_class", "base_width"])
def test_a_config_size_past_numpy_is_one_usage_error(field, value):
    # numpy's ValueError for the shape ended `train` in a traceback.
    doc = json.loads(json.dumps(CONFIG))
    (doc["hyperparams"] if field == "base_width" else doc["dataset"])[field] = value
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("cfg.json", "w") as f:
            json.dump(doc, f)
        code, err = run_cli(["train", "cfg.json"])
    start = "parameter 'proj.w' of shape (100, " if field == "base_width" else f"n_per_class {value} is too large ("
    assert_one_usage_error(code, err, start)


@pytest.mark.parametrize("value", [2**63 - 1, *BEYOND_NUMPY])
def test_a_data_spec_size_past_numpy_is_one_usage_error(classifier_checkpoint, tmp_path, value):
    # numpy's ValueError for the shape ended `eval` in a traceback; a `dir`
    # size of 2**63 - 1 made `np.arange` return no index, and so empty images.
    pgm.write_image(tmp_path / "a.pgm", np.zeros((4, 4)))
    (tmp_path / "labels.csv").write_text("filename,label\na.pgm,0\n")
    for spec, start in ((f"synth:n_per_class={value}", f"n_per_class {value} is too large ("),
                        (f"dir:root={tmp_path},size={value}", f"size {value} is too large (")):
        assert_one_usage_error(*run_cli(["eval", classifier_checkpoint, "--data", spec]), start)


@pytest.fixture(scope="module")
def generator_checkpoints(tmp_path_factory):
    """Paths of an unconditional and a conditional 2-class generator checkpoint."""
    paths = []
    for conditional in (False, True):
        path = tmp_path_factory.mktemp("ckpt") / "g.ckpt"
        spec = NetworkSpec(role="generator", image_size=16, channels=1, num_classes=2, base_width=8,
                           conditional=conditional)
        save_checkpoint(path, {"generator": build_network(spec, Rng(0, "init/generator"))})
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("conditional", [False, True])
@pytest.mark.parametrize("value", [2**63 - 1, *BEYOND_NUMPY])
def test_a_generate_count_past_numpy_is_one_usage_error(generator_checkpoints, tmp_path, conditional, value):
    # numpy's ValueError for the latent's shape ended in a traceback, and so
    # did a conditional generator's 2**63 - 1 or 2**63 labels, which
    # `np.arange` made empty: the empty grid divided by zero.
    out = tmp_path / "g.pgm"
    argv = ["generate", generator_checkpoints[conditional], "--n", str(value), "--out", str(out)]
    assert_one_usage_error(*run_cli(argv), f"--n {value} is too large (")
    if conditional:
        assert_one_usage_error(*run_cli(argv + ["--class", "1"]), f"--n {value} is too large (")
    assert not out.exists()


@pytest.mark.parametrize("value", [-1, 2, *BEYOND_NUMPY])
def test_generate_refuses_a_class_outside_the_generator(generator_checkpoints, tmp_path, value):
    # A class past numpy's int64 ended in an OverflowError traceback.
    out = tmp_path / "g.pgm"
    argv = ["generate", generator_checkpoints[True], "--n", "4", "--class", str(value), "--out", str(out)]
    assert run_cli(argv) == (2, f"error: --class must be in [0,2), got {value}\n")
    assert not out.exists()
