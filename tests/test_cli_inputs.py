"""Malformed configs and data specs: whatever a field holds, the CLI exits 0,
1 or 2, and a nonzero exit prints exactly one `error:` line and no traceback.

Each example mutates one field of a tiny valid input: drops it, gives it a
wrong type, an empty value, a negative value, zero, NaN or +-1e400 (which
JSON and `float` read as infinite), or repeats its key. Fields that size the
work take only small or refused values, and are never dropped, since their
defaults are larger: a possible but huge allocation can end in the kernel's
OOM killer rather than in a MemoryError.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ecgan.cli as cli
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

INF = float("inf")
REFUSED_NUMBERS = [-1, 0, math.nan, INF, -INF, -0.5]
SMALL = [1, 2, 3, 0.5]
LARGE = [2**53, 2**53 + 1, 2**63, 2**64, 1e300, 10**400]
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
    small = SMALL if field in SIZING else SMALL + LARGE
    return st.sampled_from(REFUSED_NUMBERS + small + WRONG_TYPES + EMPTY)


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
