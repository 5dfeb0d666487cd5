"""Experiment harness: runs config-driven training cells, emits CSV
metrics and checkpoints, aggregates sweeps, and serves the generate/eval
commands.

Every run cell is identified as <variant>_p<percent>_l<lambda>_s<seed>.
metrics.csv collects one row per epoch per cell; sweep_summary.csv holds
mean/stddev of final test accuracy over seeds. Outputs contain no
timestamps, so a rerun of the same config is byte-identical. Cells train on
every usable core (`run_cells`) and outputs are written in cell order, so
they do not depend on the core count either.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np

from . import pgm, training
from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .config import _DIR_DEFAULTS, _SYNTH_DEFAULTS, load_config
from .data import denormalize, load_idx, load_image_dir, subsample, synth_shapes
from .errors import ContractError, DataError, TrainingDiverged
from .networks import balanced_labels, conditional_latent, latent
from .tensor import Rng, no_grad
from .training import evaluate, train, usable_cores

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


class Cell(NamedTuple):
    """One training cell. `augment` and `decay` None take the config's setting."""

    variant: str
    percent: float
    lam: float
    seed: int
    augment: bool | None = None
    decay: bool | None = None

    @property
    def run_id(self):
        return run_id(self.variant, self.percent, self.lam, self.seed)


class _MetricsWriter:
    """Incremental CSV writer; rows survive a mid-run divergence."""

    def __init__(self, path):
        self.f = open(path, "w", newline="")
        self.writer = csv.writer(self.f)
        self.writer.writerow(METRIC_FIELDS)
        self.f.flush()

    def add(self, cell, epoch_row):
        self.writer.writerow([
            cell.run_id, cell.variant, f"{cell.percent:g}",
            f"{cell.lam:g}", cell.seed, epoch_row["epoch"],
            fmt(epoch_row["loss_d"]), fmt(epoch_row["loss_g"]),
            fmt(epoch_row["loss_c_sup"]), fmt(epoch_row["loss_c_unsup"]),
            fmt(epoch_row["keep_rate"]), fmt(epoch_row["train_acc"]),
            fmt(epoch_row["test_acc"]),
        ])
        self.f.flush()

    def close(self):
        self.f.close()


def run_cell(cfg, train_ds, test_ds, cell, on_epoch=None):
    """Train one cell; returns its TrainResult. `on_epoch` gets each history row."""
    cell_ds = subsample(train_ds, cell.percent, cell.seed) if cell.percent < 100 else train_ds
    hp = cfg.hyper(seed=cell.seed, lam=cell.lam, augment=cell.augment, decay=cell.decay)
    return train(cell.variant, cell_ds, hp, eval_dataset=test_ds, on_epoch=on_epoch)


# The call that sizes OpenBLAS's thread pool, by build: numpy's wheels
# rename the library's symbols, a system OpenBLAS does not.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def _start_worker(core_budget):
    """Keep a forked cell worker to its share of the cores.

    `evaluate` gets `core_budget` threads and OpenBLAS one. A forked child
    restarts the parent's OpenBLAS pool, sized for every core; beside the
    other workers those threads wait for a core at every GEMM, and the
    cells' GEMMs are too small for a second thread to speed them up. The
    library is found among this process's mappings; without
    /proc/self/maps or an OpenBLAS only `evaluate` is limited.
    """
    training.core_budget = core_budget
    try:
        with open("/proc/self/maps") as f:
            libraries = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line}
    except OSError:
        return
    for path in libraries:
        try:
            library = ctypes.CDLL(path)
        except OSError:  # a mapping that is no loadable library, e.g. "(deleted)"
            continue
        for name in _BLAS_THREAD_SETTERS:
            if hasattr(library, name):
                setter = getattr(library, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _train_in_worker(cfg, train_ds, test_ds, cell):
    """Pool entry point for one cell. `run_cell` is looked up at call time, so
    a wrapper bound to that name on the module (as tracers do) is the one that
    runs; such a wrapper could not be sent to the worker itself."""
    rows = []
    try:
        return run_cell(cfg, train_ds, test_ds, cell, on_epoch=rows.append)
    except TrainingDiverged as e:
        e.rows = rows  # the epochs before the divergence, as a serial run writes them
        raise


# Submission order, longest cells first so that no long cell starts last:
# ecgan trains a generator, a discriminator and the residual classifier,
# baseline the classifier alone, shared the small DCGAN pair.
_SUBMIT_RANK = {"ecgan": 0, "ecgan_conditional": 0, "baseline": 1, "shared": 2}


def run_cells(cfg, train_ds, test_ds, cells, writer=None, on_result=None):
    """Train `cells` and return their TrainResults in cell order.

    The cells run on min(usable cores, cells) forked worker processes, the
    longest variants first; with one cell or one core they run here, with
    no pool. Each worker gets an equal share of the cores for `evaluate`
    and one OpenBLAS thread. Either way, `writer` gets every cell's history
    rows and `on_result(cell, result)` is called in cell order, each once
    that cell and every earlier one has finished, so outputs are the same
    bytes on any number of cores. A cell's exception reaches the caller
    after the earlier cells (and a diverged cell's rows so far) are passed
    on; cells still running are waited for, cells not started are dropped.
    """
    cores = usable_cores()
    workers = min(cores, len(cells))
    results = []

    def finish(cell, result):
        if on_result is not None:
            on_result(cell, result)
        results.append(result)

    if workers <= 1:
        for cell in cells:
            on_epoch = functools.partial(writer.add, cell) if writer else None
            finish(cell, run_cell(cfg, train_ds, test_ds, cell, on_epoch=on_epoch))
        return results

    core_budget = cores // workers
    submit_order = sorted(range(len(cells)), key=lambda i: _SUBMIT_RANK.get(cells[i].variant, 0))
    # The workers fork at the first submit, before the pool's manager thread
    # starts, and `evaluate` joins its threads before it returns: no Python
    # thread of this process can hold a lock the children inherit. Forking
    # hands them the imported package, with any wrapper bound on its modules.
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(core_budget,),
    )
    try:
        futures = {
            i: pool.submit(_train_in_worker, cfg, train_ds, test_ds, cells[i])
            for i in submit_order
        }
        for i, cell in enumerate(cells):
            try:
                result = futures[i].result()
            except TrainingDiverged as e:
                if writer:
                    for row in e.rows:
                        writer.add(cell, row)
                raise
            if writer:
                for row in result.history:
                    writer.add(cell, row)
            finish(cell, result)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return results


def _save_cell_checkpoint(out_dir, cell, result, cfg):
    os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
    path = os.path.join(out_dir, "checkpoints", f"{cell.run_id}.ckpt")
    meta = {
        "run_id": cell.run_id,
        "final": result.history[-1] if result.history else {},
        "config": cfg.resolved(),
    }
    save_checkpoint(path, result.networks, result.optimizers, meta=meta)
    return path


def _write_run_json(out_dir, doc):
    with atomic_open(os.path.join(out_dir, "run.json")) as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_train(config_path, seed_override=None):
    """Train every (percent, seed) cell of the config's variant."""
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg.seeds = [seed_override]
    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_run_json(cfg.output_dir, cfg.resolved())
    train_ds, test_ds = load_datasets(cfg.dataset)
    lam = cfg.hyper(seed=cfg.seeds[0]).lam
    cells = [Cell(cfg.variant, percent, lam, seed) for percent in cfg.dataset_percent for seed in cfg.seeds]
    writer = _MetricsWriter(os.path.join(cfg.output_dir, "metrics.csv"))
    try:
        run_cells(
            cfg, train_ds, test_ds, cells, writer=writer,
            on_result=lambda cell, result: _save_cell_checkpoint(cfg.output_dir, cell, result, cfg),
        )
    finally:
        writer.close()
    return 0


SWEEP_VARIANTS = ("baseline", "ecgan", "shared")


def _sweep_cells(cfg, axis):
    """(value_label, variant, percent, lam, augment, decay) per sweep cell.

    The baseline ignores lambda, so its cells carry lambda 0 whatever the
    axis value: within one (percent, seed) they are one cell."""
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
    return [
        (label, variant, percent, 0.0 if variant == "baseline" else lam, aug, dec)
        for label, variant, percent, lam, aug, dec in cells
    ]


def cmd_sweep(config_path, axis, seed_override=None):
    """Cross-product sweep over one axis x seeds x the three variants.

    The baseline ignores lambda, so within one (percent, seed) it is
    trained once and its accuracy reused across lambda values.
    """
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg.seeds = [seed_override]
    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_run_json(cfg.output_dir, {"axis": axis, "config": cfg.resolved()})
    train_ds, test_ds = load_datasets(cfg.dataset)
    groups = [
        (label, variant, [Cell(variant, percent, lam, seed, aug, dec) for seed in cfg.seeds])
        for label, variant, percent, lam, aug, dec in _sweep_cells(cfg, axis)
    ]
    cells = list(dict.fromkeys(cell for _, _, group in groups for cell in group))
    writer = _MetricsWriter(os.path.join(cfg.output_dir, "metrics.csv"))
    try:
        results = run_cells(cfg, train_ds, test_ds, cells, writer=writer)
    finally:
        writer.close()
    final = {cell: result.history[-1]["test_acc"] for cell, result in zip(cells, results)}
    summary_rows = []
    for label, variant, group in groups:
        finals = [final[cell] for cell in group]
        mean = float(np.mean(finals))
        std = float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0
        summary_rows.append([axis, label, variant, len(finals), fmt(mean), fmt(std)])
    with atomic_open(os.path.join(cfg.output_dir, "sweep_summary.csv"), newline="") as f:
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
            kv["root"], int(kv.get("size", _DIR_DEFAULTS["size"])),
            channels=int(kv.get("channels", _DIR_DEFAULTS["channels"])),
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
