"""Experiment harness: runs config-driven training cells, emits CSV
metrics and checkpoints, aggregates sweeps, and serves the generate/eval
commands.

Every run cell is identified as <variant>_p<percent>_l<lambda>_s<seed>.
metrics.csv collects one row per epoch per cell; sweep_summary.csv holds
mean/stddev of final test accuracy over seeds. Outputs contain no
timestamps, so a rerun of the same config is byte-identical. Cells train on
every usable core (`run_cells`) and outputs are written in cell order, so
they do not depend on the core count either. `run.json` is written last: an
output directory without it holds an unfinished run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
from dataclasses import fields
from multiprocessing.connection import wait
from typing import NamedTuple

import numpy as np

from . import pgm, training
from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .config import load_config, split_specs
from .data import SOURCES, denormalize, load_source, subsample, value_type
from .errors import ContractError, DataError, TrainingDiverged
from .networks import conditional_latent, draw_latent
from .processes import ChildStream
from .tensor import Rng, no_grad
from .training import StepMetrics, evaluate, train_job, usable_cores

METRIC_FIELDS = [
    "run_id", "variant", "percent", "lambda", "seed", "epoch",
    *(f.name for f in fields(StepMetrics)),
    "train_acc", "test_acc",
]

SUMMARY_FIELDS = ["axis", "value", "variant", "seeds", "mean_test_acc", "std_test_acc"]


def fmt(x):
    """Fixed 6-decimal float formatting so CSV bytes are reproducible."""
    return f"{x:.6f}"


def load_datasets(dataset_cfg):
    """(train, test) datasets for a config's dataset block. Synth draws the
    test split from the data seed after the training split's."""
    source = dataset_cfg["source"]
    train_spec, test_spec = split_specs(dataset_cfg)
    if source == "synth":
        test_spec["seed"] += 1
    train_ds = load_source(source, train_spec)
    test_ds = load_source(source, test_spec)
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
            cell.run_id, cell.variant, f"{cell.percent:g}", f"{cell.lam:g}", cell.seed, epoch_row["epoch"],
            *(fmt(epoch_row[name]) for name in METRIC_FIELDS[6:]),
        ])
        self.f.flush()

    def close(self):
        self.f.close()


def _hyper(cfg, cell):
    return cfg.hyper(seed=cell.seed, lam=cell.lam, augment=cell.augment, decay=cell.decay)


def run_cell(cfg, train_ds, test_ds, job, on_epoch=None):
    """Train `job`, a list of cells that `_jobs` put together, in this
    process; returns per cell its TrainResult or the TrainingDiverged that
    stopped it. `on_epoch(i, row)` gets each history row of `job[i]`."""
    first = job[0]  # the cells of a job share their data
    job_ds = subsample(train_ds, first.percent, first.seed) if first.percent < 100 else train_ds
    runs = [(cell.variant, _hyper(cfg, cell)) for cell in job]
    return train_job(job_ds, runs, eval_dataset=test_ds, on_epoch=on_epoch)


# What a half costs, by kind (`training.half_keys`), to start the longest
# jobs first: the residual classifier costs about twice the DCGAN pair of a
# GAN half or of a shared run.
_HALF_COST = {"classifier": 2, "gan": 1, "shared": 1}


class _Job:
    """Cells that train together, as indices into the command's cells, and
    the keys of the halves they train."""

    def __init__(self):
        self.cells = []
        self.halves = set()

    @property
    def cost(self):
        return sum(_HALF_COST[key[1][0]] for key in self.halves)


def _jobs(cfg, cells):
    """Group `cells` into jobs, in the order of their first cells, so that a
    half (`training.half_keys`) that cells on the same data share trains
    once. Each GAN half starts a job that holds every cell reading it; then
    each cell without a GAN half joins the first job that trains its
    classifier half, or starts its own. A classifier half that cells with
    different GAN halves read so trains once in each of their jobs."""
    keys = [
        [None if key is None else (cell.percent, key) for key in training.half_keys(cell.variant, _hyper(cfg, cell))]
        for cell in cells
    ]
    jobs = []
    for with_gan in (True, False):
        for i, (gan, classifier) in enumerate(keys):
            if (gan is not None) == with_gan:
                home = gan or classifier  # the half whose job the cell joins
                job = next((job for job in jobs if home in job.halves), None)
                if job is None:
                    jobs.append(job := _Job())
                job.cells.append(i)
                job.halves |= {gan, classifier} - {None}
    for job in jobs:
        job.cells.sort()
    return sorted(jobs, key=lambda job: job.cells[0])


def run_cells(cfg, train_ds, test_ds, cells, writer=None, on_result=None):
    """Train `cells` and return their TrainResults in cell order.

    Cells train in jobs (`_jobs`), so a half that cells share trains once.
    Each job trains in a forked child (`ChildStream`) that streams its
    history rows as epochs finish, at most min(usable cores, jobs) at once,
    the longest first; with one job or one core they train here, with no
    child. Each child gets an equal share of the cores, used by `evaluate`
    and, when it is two or more, by a GAN child (see `training.train_job`),
    and one OpenBLAS thread. Either way, `writer` gets the cells' history
    rows in cell order, a cell's rows as soon as every earlier cell has
    finished, and `on_result(cell, result)` is called in cell order, so
    outputs are the same bytes on any number of cores, and metrics.csv is
    at every moment a prefix of the finished file. The first diverged cell
    in cell order raises its TrainingDiverged after the earlier cells and
    its own rows so far are passed on. On any error, the children still
    running are stopped at once and jobs not started are dropped.
    """
    jobs = _jobs(cfg, cells)
    cores = usable_cores()
    workers = min(cores, len(jobs))
    results = []
    pending_rows = [[] for _ in cells]
    outcomes = {}

    def flush():
        """Pass on, in cell order, the rows so far and the outcome of each
        cell whose earlier cells have all finished."""
        while len(results) < len(cells):
            i = len(results)
            if writer is not None:
                for row in pending_rows[i]:
                    writer.add(cells[i], row)
            pending_rows[i].clear()
            if i not in outcomes:
                return
            outcome = outcomes.pop(i)
            if isinstance(outcome, TrainingDiverged):
                raise outcome
            if on_result is not None:
                on_result(cells[i], outcome)
            results.append(outcome)

    def add_row(i, row):
        pending_rows[i].append(row)
        flush()

    if workers <= 1:
        for job in jobs:
            job_cells = [cells[i] for i in job.cells]
            job_outcomes = run_cell(
                cfg, train_ds, test_ds, job_cells, on_epoch=lambda k, row: add_row(job.cells[k], row),
            )
            outcomes.update(zip(job.cells, job_outcomes))
            flush()
        return results

    def train_in_child(job, send):
        # `run_cell` is looked up here, in the child, so a wrapper bound to
        # that name on the module (as tracers do) is the one that runs.
        training.core_budget = cores // workers
        return run_cell(cfg, train_ds, test_ds, [cells[i] for i in job.cells], on_epoch=lambda k, row: send((k, row)))

    waiting = sorted(jobs, key=lambda job: -job.cost)
    running = {}
    try:
        while running or waiting:
            while waiting and len(running) < workers:
                job = waiting.pop(0)
                running[ChildStream(functools.partial(train_in_child, job))] = job
            for child in wait(list(running)):
                try:
                    k, row = next(child)
                except StopIteration as end:
                    job = running.pop(child)
                    child.close()
                    outcomes.update(zip(job.cells, end.value))
                    flush()
                else:
                    add_row(running[child].cells[k], row)
    finally:
        for child in running:
            child.close()
    return results


def _save_cell_checkpoint(out_dir, cell, result, cfg):
    os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
    path = os.path.join(out_dir, "checkpoints", f"{cell.run_id}.ckpt")
    meta = {
        "run_id": cell.run_id,
        "final": result.history[-1] if result.history else {},
        "config": cfg.resolved(),
    }
    save_checkpoint(path, result.networks, meta=meta)


@contextlib.contextmanager
def _run_outputs(out_dir, run_doc):
    """Give the block a fresh metrics.csv writer in `out_dir`, and write
    `run_doc` to `run.json` once the block ends without error. A previous
    run's `run.json` is removed first, so an output directory without one
    holds an unfinished run."""
    os.makedirs(out_dir, exist_ok=True)
    run_json = os.path.join(out_dir, "run.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(run_json)
    writer = _MetricsWriter(os.path.join(out_dir, "metrics.csv"))
    try:
        yield writer
    finally:
        writer.close()
    with atomic_open(run_json) as f:
        json.dump(run_doc, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_train(config_path, seed_override=None):
    """Train every (percent, seed) cell of the config's variant."""
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg.seeds = [seed_override]
    train_ds, test_ds = load_datasets(cfg.dataset)
    lam = cfg.hyper(seed=cfg.seeds[0]).lam
    cells = [Cell(cfg.variant, percent, lam, seed) for percent in cfg.dataset_percent for seed in cfg.seeds]
    with _run_outputs(cfg.output_dir, cfg.resolved()) as writer:
        run_cells(
            cfg, train_ds, test_ds, cells, writer=writer,
            on_result=lambda cell, result: _save_cell_checkpoint(cfg.output_dir, cell, result, cfg),
        )
    return 0


SWEEP_VARIANTS = ("baseline", "ecgan", "shared")


def _sweep_cells(cfg, axis):
    """(value_label, variant, percent, lam, augment, decay) per sweep cell.

    The baseline ignores lambda, so its cells carry lambda 0 whatever the
    axis value: within one (percent, seed) they are one cell."""
    default_lam = cfg.hyper(seed=cfg.seeds[0]).lam
    base_percent = cfg.dataset_percent[0]
    if axis == "percent":
        points = [(f"{p:g}", p, default_lam, None, None) for p in cfg.dataset_percent]
    elif axis == "lambda":
        points = [(f"{lam:g}", base_percent, lam, None, None) for lam in cfg.lambdas]
    elif axis == "strategy":
        points = [
            (f"aug={'on' if aug else 'off'}+decay={'on' if dec else 'off'}", base_percent, default_lam, aug, dec)
            for aug in (True, False)
            for dec in (True, False)
        ]
    else:
        raise ContractError(f"unknown sweep axis {axis!r}")
    return [
        (label, variant, percent, 0.0 if variant == "baseline" else lam, aug, dec)
        for label, percent, lam, aug, dec in points
        for variant in SWEEP_VARIANTS
    ]


def cmd_sweep(config_path, axis, seed_override=None):
    """Cross-product sweep over one axis x seeds x the three variants.

    The baseline ignores lambda, so within one (percent, seed) it is
    trained once and its accuracy reused across lambda values.
    """
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg.seeds = [seed_override]
    train_ds, test_ds = load_datasets(cfg.dataset)
    groups = [
        (label, variant, [Cell(variant, percent, lam, seed, aug, dec) for seed in cfg.seeds])
        for label, variant, percent, lam, aug, dec in _sweep_cells(cfg, axis)
    ]
    cells = list(dict.fromkeys(cell for _, _, group in groups for cell in group))
    with _run_outputs(cfg.output_dir, {"axis": axis, "config": cfg.resolved()}) as writer:
        results = run_cells(cfg, train_ds, test_ds, cells, writer=writer)
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
        lv = conditional_latent(np.full(n, class_idx, dtype=np.int64), spec.num_classes, rng)
    else:
        lv = draw_latent(n, spec.num_classes, spec.conditional, rng)
    with no_grad():
        images = gen.forward(lv.values)
    pgm.write_grid(out_path, denormalize(images.data))
    return 0


def parse_data_spec(spec_text):
    """Dataset from 'synth:key=value,...', 'idx:images=..,labels=..' or
    'dir:root=..,size=..'; unset keys take their `data.SOURCES` defaults, so
    synth draws the corpus that configs train and test on. An unknown or
    repeated key, a value of the wrong type or a missing path is a
    ContractError."""
    if ":" not in spec_text:
        raise ContractError(f"data spec needs 'source:key=value,...', got {spec_text!r}")
    source, _, rest = spec_text.partition(":")
    if source not in SOURCES:
        raise ContractError(f"unknown data source {source!r}")
    _, defaults = SOURCES[source]
    kv = dict(defaults)
    given = set()
    for part in filter(None, rest.split(",")):
        if "=" not in part:
            raise ContractError(f"bad data spec field {part!r}")
        k, _, v = part.partition("=")
        if k not in kv:
            raise ContractError(f"unknown {source} data spec key {k!r}")
        if k in given:
            raise ContractError(f"repeated {source} data spec key {k!r}")
        given.add(k)
        kind = value_type(defaults[k])
        try:
            kv[k] = kind(v)
        except ValueError:
            raise ContractError(f"data spec field {part!r}: expected {kind.__name__}") from None
    missing = [k for k, v in kv.items() if v is None]
    if missing:
        raise ContractError(f"{source} data spec needs {missing[0]}=")
    return load_source(source, kv)


def cmd_eval(ckpt_path, data_spec):
    """Print `accuracy=<4 decimals>` for a checkpointed classifier."""
    ck = load_checkpoint(ckpt_path)
    net = ck.build(ck.component_for_role("classifier", "shared_discriminator")).eval()
    dataset = parse_data_spec(data_spec)
    for what in ("num_classes", "image_size", "channels"):
        if getattr(dataset, what) != getattr(net.spec, what):
            raise ContractError(
                f"dataset has {what}={getattr(dataset, what)}, classifier expects {what}={getattr(net.spec, what)}"
            )
    acc = evaluate(net, dataset)
    print(f"accuracy={acc:.4f}")
    return 0
