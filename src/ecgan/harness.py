"""Experiment harness: runs config-driven training cells, emits CSV
metrics and checkpoints, aggregates sweeps, and serves the generate/eval
commands.

Every run cell is identified as <variant>_p<percent>_l<lambda>_s<seed>.
metrics.csv collects one row per epoch per cell; sweep_summary.csv holds
mean/stddev of final test accuracy over seeds. Outputs contain no
timestamps, so a rerun of the same config is byte-identical.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from . import pgm
from .checkpoint import load_checkpoint, save_checkpoint
from .config import _SYNTH_DEFAULTS, load_config
from .data import denormalize, load_idx, load_image_dir, subsample, synth_shapes
from .errors import ContractError, DataError
from .networks import balanced_labels, conditional_latent, latent
from .tensor import Rng, no_grad
from .training import evaluate, train

METRIC_FIELDS = [
    "run_id", "variant", "percent", "lambda", "seed", "epoch",
    "loss_d", "loss_g", "loss_c_sup", "loss_c_unsup", "keep_rate",
    "train_acc", "test_acc",
]

SUMMARY_FIELDS = ["axis", "value", "variant", "seeds", "mean_test_acc", "std_test_acc"]


def fmt(x):
    """Fixed 6-decimal float formatting so CSV bytes are reproducible."""
    return f"{x:.6f}"


def load_datasets(dataset_cfg):
    """(train, test) datasets for a config's dataset block."""
    source = dataset_cfg["source"]
    if source == "synth":
        train_ds = synth_shapes(
            dataset_cfg["train_per_class"], dataset_cfg["classes"], dataset_cfg["size"],
            noise_sigma=dataset_cfg["noise_sigma"], seed=dataset_cfg["data_seed"],
        )
        test_ds = synth_shapes(
            dataset_cfg["test_per_class"], dataset_cfg["classes"], dataset_cfg["size"],
            noise_sigma=dataset_cfg["noise_sigma"], seed=dataset_cfg["data_seed"] + 1,
        )
    elif source == "idx":
        train_ds = load_idx(dataset_cfg["images"], dataset_cfg["labels"])
        test_ds = load_idx(dataset_cfg["test_images"], dataset_cfg["test_labels"])
    else:
        train_ds = load_image_dir(
            dataset_cfg["root"], dataset_cfg["size"], channels=dataset_cfg["channels"]
        )
        test_ds = load_image_dir(
            dataset_cfg["test_root"], dataset_cfg["size"], channels=dataset_cfg["channels"]
        )
    if train_ds.num_classes != test_ds.num_classes:
        raise DataError(
            f"train has {train_ds.num_classes} classes but test has {test_ds.num_classes}"
        )
    return train_ds, test_ds


def run_id(variant, percent, lam, seed):
    return f"{variant}_p{percent:g}_l{lam:g}_s{seed}"


class _MetricsWriter:
    """Incremental CSV writer; rows survive a mid-run divergence."""

    def __init__(self, path):
        self.f = open(path, "w", newline="")
        self.writer = csv.writer(self.f)
        self.writer.writerow(METRIC_FIELDS)
        self.f.flush()

    def add(self, cell, epoch_row):
        self.writer.writerow([
            cell["run_id"], cell["variant"], f"{cell['percent']:g}",
            f"{cell['lambda']:g}", cell["seed"], epoch_row["epoch"],
            fmt(epoch_row["loss_d"]), fmt(epoch_row["loss_g"]),
            fmt(epoch_row["loss_c_sup"]), fmt(epoch_row["loss_c_unsup"]),
            fmt(epoch_row["keep_rate"]), fmt(epoch_row["train_acc"]),
            fmt(epoch_row["test_acc"]),
        ])
        self.f.flush()

    def close(self):
        self.f.close()


def run_cell(cfg, train_ds, test_ds, variant, percent, lam, seed,
             writer=None, augment=None, decay=None):
    """Train one (variant, percent, lambda, seed) cell; returns TrainResult."""
    cell_ds = subsample(train_ds, percent, seed) if percent < 100 else train_ds
    hp = cfg.hyper(seed=seed, lam=lam, augment=augment, decay=decay)
    cell = {
        "run_id": run_id(variant, percent, lam, seed),
        "variant": variant, "percent": percent, "lambda": lam, "seed": seed,
    }
    on_epoch = (lambda row: writer.add(cell, row)) if writer else None
    result = train(variant, cell_ds, hp, eval_dataset=test_ds, on_epoch=on_epoch)
    return result


def _save_cell_checkpoint(out_dir, cell_id, result, cfg):
    os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
    path = os.path.join(out_dir, "checkpoints", f"{cell_id}.ckpt")
    meta = {
        "run_id": cell_id,
        "final": result.history[-1] if result.history else {},
        "config": cfg.resolved(),
    }
    save_checkpoint(path, result.networks, result.optimizers, meta=meta)
    return path


def cmd_train(config_path, seed_override=None):
    """Train every (percent, seed) cell of the config's variant."""
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg.seeds = [seed_override]
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "run.json"), "w") as f:
        json.dump(cfg.resolved(), f, indent=2, sort_keys=True)
        f.write("\n")
    train_ds, test_ds = load_datasets(cfg.dataset)
    lam = cfg.hyper(seed=cfg.seeds[0]).lam
    writer = _MetricsWriter(os.path.join(cfg.output_dir, "metrics.csv"))
    try:
        for percent in cfg.dataset_percent:
            for seed in cfg.seeds:
                result = run_cell(
                    cfg, train_ds, test_ds, cfg.variant, percent, lam, seed, writer=writer
                )
                _save_cell_checkpoint(
                    cfg.output_dir, run_id(cfg.variant, percent, lam, seed), result, cfg
                )
    finally:
        writer.close()
    return 0


SWEEP_VARIANTS = ("baseline", "ecgan", "shared")


def _sweep_cells(cfg, axis):
    """(value_label, variant, percent, lam, augment, decay) per sweep cell."""
    default_lam = cfg.hyper(seed=cfg.seeds[0]).lam
    base_percent = cfg.dataset_percent[0]
    cells = []
    if axis == "percent":
        for percent in cfg.dataset_percent:
            for variant in SWEEP_VARIANTS:
                cells.append((f"{percent:g}", variant, percent, default_lam, None, None))
    elif axis == "lambda":
        for lam in cfg.lambdas:
            for variant in SWEEP_VARIANTS:
                cells.append((f"{lam:g}", variant, base_percent, lam, None, None))
    elif axis == "strategy":
        for aug in (True, False):
            for dec in (True, False):
                label = f"aug={'on' if aug else 'off'}+decay={'on' if dec else 'off'}"
                for variant in SWEEP_VARIANTS:
                    cells.append((label, variant, base_percent, default_lam, aug, dec))
    else:
        raise ContractError(f"unknown sweep axis {axis!r}")
    return cells


def cmd_sweep(config_path, axis, seed_override=None):
    """Cross-product sweep over one axis x seeds x the three variants.

    The baseline ignores lambda, so within one (percent, seed) it is
    trained once and its accuracy reused across lambda values.
    """
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg.seeds = [seed_override]
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "run.json"), "w") as f:
        json.dump({"axis": axis, "config": cfg.resolved()}, f, indent=2, sort_keys=True)
        f.write("\n")
    train_ds, test_ds = load_datasets(cfg.dataset)
    writer = _MetricsWriter(os.path.join(cfg.output_dir, "metrics.csv"))
    cache = {}  # (variant, percent, effective lambda, seed, aug, dec) -> final test acc
    summary_rows = []
    try:
        for label, variant, percent, lam, aug, dec in _sweep_cells(cfg, axis):
            finals = []
            for seed in cfg.seeds:
                effective_lam = 0.0 if variant == "baseline" else lam
                key = (variant, percent, effective_lam, seed, aug, dec)
                if key not in cache:
                    result = run_cell(
                        cfg, train_ds, test_ds, variant, percent, effective_lam, seed,
                        writer=writer, augment=aug, decay=dec,
                    )
                    cache[key] = result.history[-1]["test_acc"]
                finals.append(cache[key])
            mean = float(np.mean(finals))
            std = float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0
            summary_rows.append([axis, label, variant, len(finals), fmt(mean), fmt(std)])
    finally:
        writer.close()
    with open(os.path.join(cfg.output_dir, "sweep_summary.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SUMMARY_FIELDS)
        w.writerows(summary_rows)
    return 0


def cmd_generate(ckpt_path, n, out_path, class_idx=None, seed=0):
    """Sample n images from a checkpointed generator into a PGM/PPM grid."""
    if n < 1:
        raise ContractError(f"--n must be >= 1, got {n}")
    ck = load_checkpoint(ckpt_path)
    key = ck.component_for_role("generator")
    gen = ck.build(key).eval()
    spec = gen.spec
    rng = Rng(seed, "generate")
    if class_idx is not None:
        if not spec.conditional:
            raise ContractError("--class given but the checkpointed generator is unconditional")
        labels = np.full(n, class_idx, dtype=np.int64)
        lv = conditional_latent(labels, spec.num_classes, rng)
    elif spec.conditional:
        lv = conditional_latent(balanced_labels(n, spec.num_classes), spec.num_classes, rng)
    else:
        lv = latent(n, rng)
    with no_grad():
        images = gen.forward(lv.values)
    pgm.write_grid(out_path, denormalize(images.data))
    return 0


def parse_data_spec(spec_text):
    """Dataset from 'synth:key=value,...', 'idx:images=..,labels=..' or
    'dir:root=..,size=..'."""
    if ":" not in spec_text:
        raise ContractError(f"data spec needs 'source:key=value,...', got {spec_text!r}")
    source, _, rest = spec_text.partition(":")
    kv = {}
    for part in filter(None, rest.split(",")):
        if "=" not in part:
            raise ContractError(f"bad data spec field {part!r}")
        k, _, v = part.partition("=")
        kv[k] = v
    if source == "synth":
        defaults = _SYNTH_DEFAULTS  # the corpus that configs train and test on
        return synth_shapes(
            int(kv.get("n_per_class", defaults["test_per_class"])),
            int(kv.get("classes", defaults["classes"])),
            int(kv.get("size", defaults["size"])),
            noise_sigma=float(kv.get("noise_sigma", defaults["noise_sigma"])),
            seed=int(kv.get("seed", defaults["data_seed"])),
        )
    if source == "idx":
        for req in ("images", "labels"):
            if req not in kv:
                raise ContractError(f"idx data spec needs {req}=")
        return load_idx(kv["images"], kv["labels"])
    if source == "dir":
        if "root" not in kv:
            raise ContractError("dir data spec needs root=")
        return load_image_dir(
            kv["root"], int(kv.get("size", 32)), channels=int(kv.get("channels", 1))
        )
    raise ContractError(f"unknown data source {source!r}")


def cmd_eval(ckpt_path, data_spec):
    """Print `accuracy=<4 decimals>` for a checkpointed classifier."""
    ck = load_checkpoint(ckpt_path)
    roles = ck.roles()
    if "classifier" in roles.values():
        key = ck.component_for_role("classifier")
    elif "shared_discriminator" in roles.values():
        key = ck.component_for_role("shared_discriminator")
    else:
        raise ContractError(
            f"checkpoint holds no classifier (roles: {sorted(roles.values())})"
        )
    net = ck.build(key).eval()
    dataset = parse_data_spec(data_spec)
    if dataset.num_classes != net.spec.num_classes:
        raise ContractError(
            f"dataset has {dataset.num_classes} classes, classifier expects {net.spec.num_classes}"
        )
    acc = evaluate(net, dataset)
    print(f"accuracy={acc:.4f}")
    return 0
