"""Experiment configuration: a closed JSON schema checked against its defaults.

Unknown keys anywhere in the document are rejected by name, so typos in
hyperparameter names fail loudly; a key may appear once per object; and
a given value must have its default's type: an int passes for a float,
and a required path (default None) is a string. The defaults are those
of `ExperimentConfig`, `training.HyperParams` and `data.SOURCES`, the
published settings: lambda 0.1, threshold 0.7, learning rates 2e-4,
weight decay 1e-3 on.
Augmentation (pad-4 crop, 10-degree rotation) is an optional strategy
and defaults off; decay is part of the core recipe and defaults on.

The "hyperparams.lambda" key maps to `HyperParams.lam` (Python keyword).
`resolved()` returns the fully-explicit document written to run.json;
feeding that file back in reproduces the run.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

from .data import SOURCES, value_type
from .errors import ConfigError, unique_keys
from .tensor import MAX_FLOAT, MAX_SEED
from .training import VARIANTS, HyperParams

# A dataset block holds the data specs (`data.SOURCES`) of both splits. A
# required path has a `test_` twin for the test split, and synth sizes the
# splits apart and calls its seed `data_seed`; other keys are shared.
_SPLIT_KEYS = {"n_per_class": ("train_per_class", "test_per_class"), "seed": ("data_seed", "data_seed")}


def _split_keys(key, default):
    """(train, test) dataset-block keys of a data-spec key."""
    if key in _SPLIT_KEYS:
        return _SPLIT_KEYS[key]
    return (key, "test_" + key) if default is None else (key, key)


def split_specs(dataset):
    """(train, test) data specs of a validated dataset block."""
    _, defaults = SOURCES[dataset["source"]]
    names = {key: _split_keys(key, default) for key, default in defaults.items()}
    return tuple({key: dataset[names[key][split]] for key in defaults} for split in (0, 1))


# Per source, each dataset-block key and its default; None marks a required path.
_DATASET_KEYS = {
    source: {"source": source, **{_split_keys(key, d)[split]: d for split in (0, 1) for key, d in defaults.items()}}
    for source, (_, defaults) in SOURCES.items()
}

# The keys of a config's "hyperparams" object, with their defaults.
_HP_KEYS = {
    "lambda" if f.name == "lam" else f.name: f.default
    for f in fields(HyperParams) if f.name not in ("seed", "augment")
}


def _check_keys(obj, defaults, where):
    """Reject keys `defaults` lacks and values without their default's type
    (`data.value_type`); an int passes for a float, a bool only for a bool."""
    for key in obj:
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key, value in obj.items():
        kind = value_type(defaults[key])
        allowed = (int, float) if kind is float else kind
        if not isinstance(value, allowed) or isinstance(value, bool) and kind is not bool:
            raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")


@dataclass
class ExperimentConfig:
    dataset: dict = field(default_factory=lambda: dict(_DATASET_KEYS["synth"]))
    variant: str = "ecgan"
    hyperparams: dict = field(default_factory=dict)
    dataset_percent: list = field(default_factory=lambda: [100])
    lambdas: list = field(default_factory=lambda: [0.1])
    augment: bool = False
    decay: bool = True
    seeds: list = field(default_factory=lambda: [0])
    output_dir: str = "ecgan-runs"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        source = self.dataset.get("source")
        if source not in _DATASET_KEYS:
            raise ConfigError(f"dataset.source must be one of {tuple(_DATASET_KEYS)}, got {source!r}")
        _check_keys(self.dataset, _DATASET_KEYS[source], "dataset")
        self.dataset = {**_DATASET_KEYS[source], **self.dataset}
        for key, value in self.dataset.items():
            if value is None:
                raise ConfigError(f"dataset.{key} is required for {source} source")
        _check_keys(self.hyperparams, _HP_KEYS, "hyperparams")
        for key in ("dataset_percent", "lambdas", "seeds"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must be non-empty")
        for p in self.dataset_percent:
            if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0 < p <= 100:
                raise ConfigError(f"dataset_percent entries must be in (0,100], got {p!r}")
        for v in self.lambdas:
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 <= v <= MAX_FLOAT:
                raise ConfigError(f"lambdas entries must be finite in float32 and >= 0, got {v!r}")
        for s in self.seeds:
            if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s <= MAX_SEED:
                raise ConfigError(f"seeds entries must be integers in [0, 2**53], got {s!r}")
        # Run ids and summary labels print percents and lambdas with :g, seeds whole.
        for key, label in (("dataset_percent", "{:g}"), ("lambdas", "{:g}"), ("seeds", "{}")):
            labels = [label.format(x) for x in getattr(self, key)]
            if len(set(labels)) != len(labels):
                raise ConfigError(f"{key} has duplicate entries: {getattr(self, key)} print as {labels}")

    def hyper(self, seed, lam=None, augment=None, decay=None):
        """Materialize HyperParams for one run cell."""
        hp_kwargs = {"lam" if key == "lambda" else key: value for key, value in self.hyperparams.items()}
        if lam is not None:
            hp_kwargs["lam"] = lam
        aug_on = self.augment if augment is None else augment
        decay_on = self.decay if decay is None else decay
        hp = HyperParams(seed=seed, augment=aug_on, **hp_kwargs)
        if not decay_on:
            hp.weight_decay = 0.0
        return hp

    def resolved(self):
        """Fully-explicit config document (valid input for another run)."""
        hp = self.hyper(seed=self.seeds[0], decay=True)
        hyperparams = {key: getattr(hp, "lam" if key == "lambda" else key) for key in _HP_KEYS}
        return {**asdict(self), "hyperparams": hyperparams}


# The keys of a config file, with their defaults.
_TOP_KEYS = asdict(ExperimentConfig())


def _parse_int(text):
    """A JSON integer; one too large for a float is a ConfigError, as every
    number here is a float setting or a count or seed far below 2**1024."""
    if math.isinf(float(text)):
        raise ConfigError(f"integer of {len(text)} digits is out of range")
    return int(text)


def load_config(path, seed=None):
    """Parse and validate a JSON experiment config; `seed`, when given,
    replaces its seeds."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as f:
        try:
            doc = json.load(
                f, object_pairs_hook=functools.partial(unique_keys, error=ConfigError), parse_int=_parse_int,
            )
        except (json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(doc, _TOP_KEYS, "config")
    if seed is not None:
        doc["seeds"] = [seed]
    try:
        return ExperimentConfig(**doc)
    except TypeError as e:
        raise ConfigError(f"{path}: {e}") from None
