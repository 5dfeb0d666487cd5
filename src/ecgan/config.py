"""Experiment configuration: a closed JSON schema with §-free defaults.

Unknown keys anywhere in the document are rejected by name, so typos in
hyperparameter names fail loudly. All defaults are the published
settings: lambda 0.1, threshold 0.7, learning rates 2e-4, weight decay
1e-3 on. Augmentation (pad-4 crop, 10-degree rotation) is an optional
strategy and defaults off; decay is part of the core recipe and
defaults on.

The "hyperparams.lambda" key maps to `HyperParams.lam` (Python keyword).
`resolved()` returns the fully-explicit document written to run.json;
feeding that file back in reproduces the run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .data import NOISE_SIGMA
from .errors import ConfigError
from .training import VARIANTS, HyperParams

_DATASET_KEYS = {
    "synth": {
        "source": str,
        "train_per_class": int,
        "test_per_class": int,
        "classes": int,
        "size": int,
        "noise_sigma": (int, float),
        "data_seed": int,
    },
    "idx": {
        "source": str,
        "images": str,
        "labels": str,
        "test_images": str,
        "test_labels": str,
    },
    "dir": {
        "source": str,
        "root": str,
        "test_root": str,
        "size": int,
        "channels": int,
    },
}

_SYNTH_DEFAULTS = {
    "train_per_class": 100,
    "test_per_class": 100,
    "classes": 3,
    "size": 32,
    "noise_sigma": NOISE_SIGMA,
    "data_seed": 0,
}

_DIR_DEFAULTS = {"size": 32, "channels": 1}

_HP_KEYS = {
    "lambda": (int, float),
    "threshold": (int, float),
    "lr_g": (int, float),
    "lr_d": (int, float),
    "lr_c": (int, float),
    "weight_decay": (int, float),
    "batch_size": int,
    "epochs": int,
    "base_width": int,
    "depth": int,
}

_TOP_KEYS = {
    "dataset": dict,
    "variant": str,
    "hyperparams": dict,
    "dataset_percent": list,
    "lambdas": list,
    "augment": bool,
    "decay": bool,
    "seeds": list,
    "output_dir": str,
}


def _check_keys(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key, value in obj.items():
        if not isinstance(value, allowed[key]) or isinstance(value, bool) and allowed[key] is not bool:
            raise ConfigError(
                f"{where}.{key}: expected {getattr(allowed[key], '__name__', allowed[key])},"
                f" got {type(value).__name__}"
            )


@dataclass
class ExperimentConfig:
    dataset: dict = field(default_factory=lambda: {"source": "synth", **_SYNTH_DEFAULTS})
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
        if source == "synth":
            self.dataset = {**{"source": "synth"}, **_SYNTH_DEFAULTS, **self.dataset}
        elif source == "idx":
            for req in ("images", "labels", "test_images", "test_labels"):
                if req not in self.dataset:
                    raise ConfigError(f"dataset.{req} is required for idx source")
        else:
            for req in ("root", "test_root"):
                if req not in self.dataset:
                    raise ConfigError(f"dataset.{req} is required for dir source")
            self.dataset = {**_DIR_DEFAULTS, **self.dataset}
        _check_keys(self.hyperparams, _HP_KEYS, "hyperparams")
        if not self.dataset_percent:
            raise ConfigError("dataset_percent must be non-empty")
        for p in self.dataset_percent:
            if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0 < p <= 100:
                raise ConfigError(f"dataset_percent entries must be in (0,100], got {p!r}")
        for v in self.lambdas:
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                raise ConfigError(f"lambdas entries must be >= 0, got {v!r}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        for s in self.seeds:
            if not isinstance(s, int) or isinstance(s, bool):
                raise ConfigError(f"seeds entries must be integers, got {s!r}")

    def hyper(self, seed, lam=None, augment=None, decay=None):
        """Materialize HyperParams for one run cell."""
        hp_kwargs = dict(self.hyperparams)
        if "lambda" in hp_kwargs:
            hp_kwargs["lam"] = hp_kwargs.pop("lambda")
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
        return {
            "dataset": dict(self.dataset),
            "variant": self.variant,
            "hyperparams": {key: getattr(hp, "lam" if key == "lambda" else key) for key in _HP_KEYS},
            "dataset_percent": list(self.dataset_percent),
            "lambdas": list(self.lambdas),
            "augment": self.augment,
            "decay": self.decay,
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
        }


def load_config(path):
    """Parse and validate a JSON experiment config."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(doc, _TOP_KEYS, "config")
    try:
        return ExperimentConfig(**doc)
    except TypeError as e:
        raise ConfigError(f"{path}: {e}") from None
