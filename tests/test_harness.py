"""Config schema, harness outputs, sweeps, CLI behavior."""

import contextlib
import csv
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import count_gan_children, count_half_steps, overflowing_adam, runs_gan_half, set_cores

import ecgan.cli as cli
import ecgan.harness as H
import ecgan.training as training
from ecgan import pgm
from ecgan.checkpoint import load_checkpoint, save_checkpoint
from ecgan.config import ExperimentConfig, load_config
from ecgan.data import synth_shapes, write_idx
from ecgan.errors import (
    ConfigError,
    ContractError,
    DataError,
    FormatError,
    InvalidLabelError,
    ShapeError,
    SpecError,
    TrainingDiverged,
    UsageError,
)
from ecgan.networks import NetworkSpec, build_network
from ecgan.tensor import MAX_FLOAT, Rng


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("ECGAN_SEED", raising=False)


def tiny_config(tmp_path, **overrides):
    doc = {
        "dataset": {
            "source": "synth", "train_per_class": 4, "test_per_class": 4,
            "classes": 2, "size": 16, "noise_sigma": 0.1, "data_seed": 0,
        },
        "variant": "baseline",
        "hyperparams": {"batch_size": 8, "epochs": 1, "base_width": 8, "depth": 1},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path), doc


def read_metrics(out_dir):
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as f:
        return list(csv.DictReader(f))


# -- config schema ------------------------------------------------------------


def test_readme_config_block_shows_the_defaults():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text().split("## Configs", 1)[1]
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == ExperimentConfig().resolved()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_checked_in_configs_build_every_cell(name):
    # Each cell's HyperParams and half keys, as `train` and `sweep` build
    # them; nothing is trained.
    cfg = load_config(str(CONFIGS / name))
    cells = [H.Cell(cfg.variant, percent, lam, seed)
             for percent in cfg.dataset_percent for lam in cfg.lambdas for seed in cfg.seeds]
    if name.startswith("sweep_"):
        axis = name.removeprefix("sweep_").removesuffix(".json")
        cells += [H.Cell(variant, percent, lam, seed, aug, dec)
                  for _, variant, percent, lam, aug, dec in H._sweep_cells(cfg, axis) for seed in cfg.seeds]
    for cell in cells:
        training.half_keys(cell.variant, H._hyper(cfg, cell))
    assert cells


def test_defaults_match_published_settings():
    cfg = ExperimentConfig()
    hp = cfg.hyper(seed=0)
    assert hp.lam == 0.1
    assert hp.threshold == 0.7
    assert hp.lr_g == hp.lr_d == hp.lr_c == 2e-4
    assert hp.weight_decay == 1e-3
    assert hp.augment is False  # augmentation is an opt-in strategy
    assert cfg.decay is True
    assert cfg.dataset["source"] == "synth"


def test_hyper_maps_lambda_key_and_toggles():
    cfg = ExperimentConfig(hyperparams={"lambda": 0.25, "epochs": 2})
    hp = cfg.hyper(seed=4)
    assert hp.lam == 0.25 and hp.epochs == 2 and hp.seed == 4
    assert cfg.hyper(seed=0, lam=0.5).lam == 0.5  # per-cell override wins
    assert cfg.hyper(seed=0, decay=False).weight_decay == 0.0
    assert cfg.hyper(seed=0, augment=True).augment is True


@pytest.mark.parametrize(
    "overrides,match",
    [
        ({"variant": "vae"}, "variant"),
        ({"dataset": {"source": "http"}}, "dataset.source"),
        ({"dataset": {"source": "synth", "noise": 1}}, "unknown key 'noise'"),
        ({"dataset": {"source": "idx", "images": "a"}}, "required for idx"),
        ({"dataset": {"source": "dir", "root": "a"}}, "test_root"),
        ({"hyperparams": {"lamda": 0.1}}, "unknown key 'lamda'"),
        ({"hyperparams": {"batch_size": "big"}}, "expected int"),
        ({"dataset_percent": []}, "non-empty"),
        ({"dataset_percent": [0]}, r"\(0,100\]"),
        ({"dataset_percent": [150]}, r"\(0,100\]"),
        ({"lambdas": [-1]}, ">= 0"),
        ({"seeds": []}, "seeds"),
        ({"seeds": [1.5]}, "integers"),
        ({"seeds": [True]}, "integers"),
        ({"seeds": [0, 0]}, "seeds has duplicate entries"),
        ({"lambdas": [0.1, 0.1]}, "lambdas has duplicate entries"),
        ({"dataset_percent": [50, 50.0]}, "dataset_percent has duplicate entries"),
        # Run ids and summary labels print percents and lambdas with :g.
        ({"lambdas": []}, "lambdas must be non-empty"),
        ({"lambdas": [0.1, 0.1000001]}, "lambdas has duplicate entries"),
        ({"dataset_percent": [50, 50.0000001]}, "dataset_percent has duplicate entries"),
        # A given value must have its default's type.
        ({"hyperparams": {"epochs": True}}, "hyperparams.epochs: expected int, got bool"),
        ({"dataset": {"source": "synth", "noise_sigma": "x"}}, "dataset.noise_sigma: expected float, got str"),
        ({"dataset": {"source": "dir", "root": 1, "test_root": "b"}}, "dataset.root: expected str, got int"),
        ({"augment": 1}, "config.augment: expected bool, got int"),
        ({"lambdas": [float("nan")]}, "lambdas entries must be finite"),
        ({"lambdas": [0.1, float("inf")]}, "lambdas entries must be finite"),
    ],
)
def test_config_validation(tmp_path, overrides, match):
    path, _ = tiny_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=match):
        load_config(path)


def test_unknown_top_level_key(tmp_path):
    path, _ = tiny_config(tmp_path, lamda=[0.1])
    with pytest.raises(ConfigError, match="unknown key 'lamda'"):
        load_config(path)


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "ghost.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{notjson")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(str(arr))


def test_resolved_round_trips(tmp_path):
    path, _ = tiny_config(tmp_path)
    cfg = load_config(path)
    doc = cfg.resolved()
    path2 = tmp_path / "resolved.json"
    path2.write_text(json.dumps(doc))
    cfg2 = load_config(str(path2))
    assert cfg2.resolved() == doc


def test_synth_defaults_filled():
    cfg = ExperimentConfig(dataset={"source": "synth", "classes": 4})
    assert cfg.dataset["classes"] == 4
    assert cfg.dataset["train_per_class"] == 100
    assert cfg.dataset["noise_sigma"] == 0.105
    # An int passes for a float default.
    assert ExperimentConfig(dataset={"source": "synth", "noise_sigma": 0}).dataset["noise_sigma"] == 0


# -- cmd_train ----------------------------------------------------------------


def test_cmd_train_outputs(tmp_path):
    path, doc = tiny_config(tmp_path, hyperparams={
        "batch_size": 8, "epochs": 2, "base_width": 8, "depth": 1})
    assert H.cmd_train(path) == 0
    out = doc["output_dir"]
    rows = read_metrics(out)
    assert len(rows) == 2  # epochs x 1 cell
    assert list(rows[0]) == H.METRIC_FIELDS
    assert rows[0]["run_id"] == "baseline_p100_l0.1_s0"
    assert rows[0]["epoch"] == "0" and rows[1]["epoch"] == "1"
    for field in ("loss_c_sup", "train_acc", "test_acc"):
        assert len(rows[0][field].split(".")[1]) == 6  # fixed 6-decimal format
    assert os.path.exists(os.path.join(out, "checkpoints", "baseline_p100_l0.1_s0.ckpt"))
    run_doc = json.load(open(os.path.join(out, "run.json")))
    assert run_doc["variant"] == "baseline"
    assert run_doc["hyperparams"]["lambda"] == 0.1


def test_cmd_train_checkpoint_holds_networks_only(tmp_path):
    path, doc = tiny_config(tmp_path, variant="ecgan")
    assert H.cmd_train(path) == 0
    ck = load_checkpoint(os.path.join(doc["output_dir"], "checkpoints", "ecgan_p100_l0.1_s0.ckpt"))
    assert set(ck.components) == {"classifier", "generator", "discriminator"}
    assert "optimizers" not in ck.header
    assert sorted(ck.arrays) == sorted(
        f"{key}/{name}" for key in ck.components for name, _ in ck.build(key).parameters()
    )


def test_cmd_train_rerun_byte_identical(tmp_path):
    path, doc = tiny_config(tmp_path)
    H.cmd_train(path)
    metrics = os.path.join(doc["output_dir"], "metrics.csv")
    first = open(metrics, "rb").read()
    H.cmd_train(path)
    assert open(metrics, "rb").read() == first


def test_cmd_train_seed_override(tmp_path):
    path, doc = tiny_config(tmp_path, seeds=[3, 4])
    H.cmd_train(path, seed_override=7)
    rows = read_metrics(doc["output_dir"])
    assert {r["seed"] for r in rows} == {"7"}


def test_cmd_train_percent_cells(tmp_path):
    path, doc = tiny_config(tmp_path, dataset_percent=[50, 100], dataset={
        "source": "synth", "train_per_class": 8, "test_per_class": 4,
        "classes": 2, "size": 16, "noise_sigma": 0.1, "data_seed": 0,
    })
    H.cmd_train(path)
    rows = read_metrics(doc["output_dir"])
    assert {r["percent"] for r in rows} == {"50", "100"}


def test_run_id_format():
    assert H.run_id("ecgan", 12.5, 0.1, 3) == "ecgan_p12.5_l0.1_s3"
    assert H.run_id("baseline", 100, 0.0, 0) == "baseline_p100_l0_s0"


def test_metrics_writer_flushes_each_row(tmp_path):
    path = tmp_path / "m.csv"
    w = H._MetricsWriter(str(path))
    cell = H.Cell("baseline", 100, 0.0, 0)
    row = dict(epoch=0, loss_d=0, loss_g=0, loss_c_sup=1.0, loss_c_unsup=0,
               keep_rate=0, train_acc=0.5, test_acc=0.5)
    w.add(cell, row)
    on_disk = path.read_text().splitlines()  # readable before close
    assert len(on_disk) == 2
    w.close()


# -- cmd_sweep ----------------------------------------------------------------


def test_sweep_lambda_axis(tmp_path):
    path, doc = tiny_config(
        tmp_path, variant="ecgan", lambdas=[0.0, 0.1], seeds=[0],
        hyperparams={"batch_size": 8, "epochs": 1, "base_width": 8, "depth": 1},
    )
    assert H.cmd_sweep(path, "lambda") == 0
    out = doc["output_dir"]
    with open(os.path.join(out, "sweep_summary.csv"), newline="") as f:
        summary = list(csv.DictReader(f))
    assert list(summary[0]) == H.SUMMARY_FIELDS
    assert len(summary) == 6  # 2 lambda values x 3 variants
    assert {r["axis"] for r in summary} == {"lambda"}
    by = {(r["value"], r["variant"]): r for r in summary}
    # The baseline ignores lambda: trained once, identical rows.
    assert by[("0", "baseline")]["mean_test_acc"] == by[("0.1", "baseline")]["mean_test_acc"]
    rows = read_metrics(out)
    baseline_rows = [r for r in rows if r["variant"] == "baseline"]
    assert len(baseline_rows) == 1  # 1 epoch x 1 seed, not duplicated per lambda
    assert json.load(open(os.path.join(out, "run.json")))["axis"] == "lambda"


def test_sweep_cells_enumeration():
    cfg = ExperimentConfig(dataset_percent=[10, 20], lambdas=[0.0, 0.1, 1.0], seeds=[0])
    percent_cells = H._sweep_cells(cfg, "percent")
    assert len(percent_cells) == 6
    assert percent_cells[0][:3] == ("10", "baseline", 10)
    lam_cells = H._sweep_cells(cfg, "lambda")
    assert [c[0] for c in lam_cells[::3]] == ["0", "0.1", "1"]
    strat_cells = H._sweep_cells(cfg, "strategy")
    assert len(strat_cells) == 12  # 4 toggle combos x 3 variants
    labels = {c[0] for c in strat_cells}
    assert labels == {
        "aug=on+decay=on", "aug=on+decay=off", "aug=off+decay=on", "aug=off+decay=off",
    }
    aug_flags = {(c[4], c[5]) for c in strat_cells}
    assert aug_flags == {(True, True), (True, False), (False, True), (False, False)}
    with pytest.raises(ContractError, match="axis"):
        H._sweep_cells(cfg, "epochs")


# -- run_cells ------------------------------------------------------------------


def output_bytes(out_dir):
    return {p.relative_to(out_dir): p.read_bytes() for p in sorted(Path(out_dir).rglob("*")) if p.is_file()}


def two_seed_config(tmp_path, seeds=(0, 1)):
    return tiny_config(
        tmp_path, variant="ecgan", lambdas=[0.0, 0.5], seeds=list(seeds),
        hyperparams={"batch_size": 8, "epochs": 2, "base_width": 8, "depth": 1,
                     "lr_c": 2e-3, "threshold": 0.4},
    )


@pytest.mark.parametrize("command", ["train", "train_one_seed", "sweep", "sweep_lambda", "sweep_strategy"])
def test_outputs_do_not_depend_on_core_count(tmp_path, monkeypatch, command):
    # Jobs train in two workers, each on one core; one ecgan cell trains
    # here, with its GAN half in a forked child. In the sweeps jobs share
    # halves: the lambdas of a seed a GAN half, decay on and off too, and
    # lambda 0 the baseline's classifier half.
    path, doc = two_seed_config(tmp_path, seeds=[0] if command == "train_one_seed" else [0, 1])
    if command == "sweep_lambda":
        path, doc = tiny_config(tmp_path, **{**doc, "lambdas": [0.0, 0.1, 1.0]})
    axis = {"sweep": "lambda", "sweep_lambda": "lambda", "sweep_strategy": "strategy"}.get(command)
    run = (lambda: H.cmd_sweep(path, axis)) if axis else (lambda: H.cmd_train(path))
    gan_children = count_gan_children(monkeypatch)
    outputs = {}
    for cores in (1, 2):
        set_cores(monkeypatch, cores)
        assert run() == 0
        assert multiprocessing.active_children() == []
        outputs[cores] = output_bytes(doc["output_dir"])
    assert len(gan_children) == (command == "train_one_seed")
    assert outputs[1] == outputs[2]
    names = {p.name for p in outputs[1]}
    assert {"metrics.csv", "run.json"} <= names
    assert ("sweep_summary.csv" in names) == (axis is not None)
    assert any(name.endswith(".ckpt") for name in names) == (axis is None)


def test_cell_divergence_in_a_worker_reaches_caller(tmp_path, monkeypatch):
    path, doc = two_seed_config(tmp_path)
    real_train_job = H.train_job
    real_adam = training.Adam

    def train_job(dataset, runs, **kwargs):
        # The GAN half of seed 1's ecgan cells diverges in its second epoch
        # (one step per epoch); their baseline twin reads only the job's
        # classifier half and finishes.
        if ("ecgan", 0.0, 1) not in [(variant, hp.lam, hp.seed) for variant, hp in runs]:
            return real_train_job(dataset, runs, **kwargs)
        training.Adam = overflowing_adam({training.GAN_BETAS: 1})
        try:
            return real_train_job(dataset, runs, **kwargs)
        finally:
            training.Adam = real_adam

    monkeypatch.setattr(H, "train_job", train_job)  # forked workers inherit the patch
    metrics = {}
    for cores in (1, 2):
        set_cores(monkeypatch, cores)
        with pytest.raises(TrainingDiverged, match=r"^gan half: overflow encountered in multiply \(step 1\)$"):
            H.cmd_sweep(path, "lambda")
        assert multiprocessing.active_children() == []
        assert not os.path.exists(os.path.join(doc["output_dir"], "sweep_summary.csv"))
        assert not os.path.exists(os.path.join(doc["output_dir"], "run.json"))
        metrics[cores] = read_metrics(doc["output_dir"])
    # Both baseline seeds and ecgan lambda 0 seed 0 come first in cell order,
    # then the diverged cell's first epoch.
    assert [(r["run_id"], r["epoch"]) for r in metrics[2]] == [
        ("baseline_p100_l0_s0", "0"), ("baseline_p100_l0_s0", "1"),
        ("baseline_p100_l0_s1", "0"), ("baseline_p100_l0_s1", "1"),
        ("ecgan_p100_l0_s0", "0"), ("ecgan_p100_l0_s0", "1"),
        ("ecgan_p100_l0_s1", "0"),
    ]
    assert metrics[2] == metrics[1]


def test_cell_workers_split_the_cores(tmp_path, monkeypatch):
    real_train_job = H.train_job

    def train_job(*args, **kwargs):
        cores = training.usable_cores()
        if cores != 2:  # raised in the worker, re-raised here
            raise AssertionError(f"each of two workers on four cores may use 2, not {cores}")
        return real_train_job(*args, **kwargs)

    monkeypatch.setattr(H, "train_job", train_job)
    set_cores(monkeypatch, 4)
    path, _ = tiny_config(tmp_path, seeds=[0, 1])
    assert H.cmd_train(path) == 0


def sweep_cells(cfg, axis):
    """The cells of `cmd_sweep`, in its order."""
    return list(dict.fromkeys(
        H.Cell(variant, percent, lam, seed, aug, dec)
        for _, variant, percent, lam, aug, dec in H._sweep_cells(cfg, axis)
        for seed in cfg.seeds
    ))


@pytest.mark.parametrize("diverges", ["classifier", "gan"])
def test_divergence_inside_a_job_is_that_of_one_cell_at_a_time(tmp_path, monkeypatch, diverges):
    # The three lambdas share a job's GAN half; lambda 0 shares its
    # classifier half with the baseline. Two steps per epoch. At threshold 1
    # no fake is kept, so the lambdas' classifier halves train as one, as
    # twins (see `training.train_job`).
    path, doc = tiny_config(
        tmp_path, variant="ecgan", lambdas=[0.0, 0.1, 1.0], seeds=[0],
        hyperparams={"batch_size": 4, "epochs": 2, "base_width": 8, "depth": 1,
                     "lr_c": 2e-3, "threshold": 1.0},
    )
    if diverges == "classifier":
        # the classifier half of each lambda above 0, at its third update
        # (step 2, in epoch 1): the twins' one update raises, and the
        # baseline and lambda 0 go on from the state before it
        real_c = training.classifier_step

        def classifier_step(c, fakes, batch, hp, opt_c):
            if hp.lam > 0 and opt_c.step_count == 2:
                raise FloatingPointError("overflow encountered in multiply")
            return real_c(c, fakes, batch, hp, opt_c)

        monkeypatch.setattr(training, "classifier_step", classifier_step)
    else:
        # every GAN player, in epoch 1: the baseline finishes before ecgan
        # lambda 0 stops (the shared cells, whose G stops too, come after it)
        monkeypatch.setattr(training, "Adam", overflowing_adam({training.GAN_BETAS: 2}))
    cfg = load_config(path)
    train_ds, test_ds = H.load_datasets(cfg.dataset)
    expected_rows = {}
    for cores in (1, 2):
        set_cores(monkeypatch, cores)
        writer = H._MetricsWriter(str(tmp_path / "alone.csv"))
        with pytest.raises(TrainingDiverged) as alone:
            for cell in sweep_cells(cfg, "lambda"):
                H.run_cells(cfg, train_ds, test_ds, [cell], writer=writer)
        writer.close()
        expected_rows[cores] = (tmp_path / "alone.csv").read_bytes()
        with pytest.raises(TrainingDiverged) as job:
            H.cmd_sweep(path, "lambda")
        assert multiprocessing.active_children() == []
        assert (str(job.value), job.value.step) == (str(alone.value), alone.value.step)
        assert str(job.value) == f"{diverges} half: overflow encountered in multiply (step 2)"
        assert (Path(doc["output_dir"]) / "metrics.csv").read_bytes() == expected_rows[cores]
    assert expected_rows[1] == expected_rows[2]
    finished = {r["run_id"] for r in read_metrics(doc["output_dir"]) if r["epoch"] == "1"}
    assert ("ecgan_p100_l0_s0" if diverges == "classifier" else "baseline_p100_l0_s0") in finished


def test_a_job_has_at_most_one_gan_half(tmp_path, monkeypatch):
    # Both lambda 0 cells read the baseline's classifier half, but their GAN
    # halves differ: the conditional cell trains that classifier half again.
    path, _ = tiny_config(tmp_path, hyperparams={"batch_size": 4, "epochs": 2, "base_width": 8, "depth": 1})
    cfg = load_config(path)
    train_ds, test_ds = H.load_datasets(cfg.dataset)
    cells = [H.Cell(variant, 100, 0.0, 0) for variant in ("baseline", "ecgan", "ecgan_conditional")]
    set_cores(monkeypatch, 1)
    together = H.run_cells(cfg, train_ds, test_ds, cells)
    for cell, result in zip(cells, together):
        (alone,) = H.run_cells(cfg, train_ds, test_ds, [cell])
        assert result.history == alone.history
    assert together[0].networks["classifier"] is together[1].networks["classifier"]
    assert together[2].networks["classifier"] is not together[0].networks["classifier"]


def test_a_lambda_sweep_trains_each_half_once(tmp_path, monkeypatch):
    # One minibatch: ecgan lambda 0 shares the baseline's classifier half,
    # and the three lambdas share a GAN half. One cell at a time trains 3
    # GAN halves and 4 classifier halves. The lambdas' classifier halves are
    # twins (see `training.train_job`): at threshold 0.7 two classes keep
    # fakes at once, and each lambda updates its own; at threshold 1 none is
    # kept, and the twins make one update.
    steps = count_half_steps(monkeypatch)
    set_cores(monkeypatch, 1)
    for threshold, classifier_steps in ((0.7, 3), (1.0, 1)):
        (tmp_path / str(threshold)).mkdir()
        path, _ = tiny_config(
            tmp_path / str(threshold), variant="ecgan", lambdas=[0.0, 0.1, 1.0],
            hyperparams={"batch_size": 8, "epochs": 1, "base_width": 8, "depth": 1, "threshold": threshold},
        )
        steps.clear()
        assert H.cmd_sweep(path, "lambda") == 0
        assert steps == {"gan": 1, "classifier": classifier_steps}


def test_rows_reach_metrics_csv_while_their_job_runs(tmp_path, monkeypatch):
    # The job of the first cell waits after that cell's first row until the
    # row is in metrics.csv: a job that sends its rows only when it ends
    # never gets there.
    path, doc = two_seed_config(tmp_path, seeds=[0])
    metrics = Path(doc["output_dir"]) / "metrics.csv"
    real_train_job = H.train_job

    def train_job(dataset, runs, on_epoch=None, **kwargs):
        def on_row(i, row):
            on_epoch(i, row)
            variant, hp = runs[i]
            if (variant, hp.seed, row["epoch"]) == ("baseline", 0, 0):
                deadline = time.monotonic() + 20
                while "baseline_p100_l0_s0,baseline" not in metrics.read_text():
                    if time.monotonic() > deadline:
                        raise AssertionError("the first row did not reach metrics.csv within 20 s")
                    time.sleep(0.01)

        return real_train_job(dataset, runs, on_epoch=on_row, **kwargs)

    monkeypatch.setattr(H, "train_job", train_job)
    set_cores(monkeypatch, 2)
    assert H.cmd_sweep(path, "lambda") == 0
    assert len(read_metrics(doc["output_dir"])) == 10  # 5 cells x 2 epochs


def test_one_cell_trains_in_process(tmp_path, monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("a child process started for one cell")

    set_cores(monkeypatch, 2)
    monkeypatch.setattr(H, "ChildStream", no_child)
    path, doc = tiny_config(tmp_path)
    assert H.cmd_train(path) == 0
    assert len(read_metrics(doc["output_dir"])) == 1
    assert multiprocessing.active_children() == []


def test_a_divergence_stops_the_jobs_still_running(tmp_path, monkeypatch):
    # Cell 0's job diverges at step 0 while cell 1's job waits after its
    # first row for a file that never comes. A command that read that job
    # to its end would find the marker the wait leaves after 20 s.
    path, _ = tiny_config(tmp_path, seeds=[0, 1])
    marker = tmp_path / "waited"
    real_train_job = H.train_job

    def train_job(dataset, runs, on_epoch=None, **kwargs):
        if runs[0][1].seed == 0:
            return [TrainingDiverged("classifier half: overflow encountered in multiply", step=0) for _ in runs]

        def on_row(i, row):
            on_epoch(i, row)
            deadline = time.monotonic() + 20
            while not (tmp_path / "never").exists():
                if time.monotonic() > deadline:
                    marker.write_text("the job was read to its end")
                    return
                time.sleep(0.01)

        return real_train_job(dataset, runs, on_epoch=on_row, **kwargs)

    monkeypatch.setattr(H, "train_job", train_job)  # forked jobs inherit the patch
    set_cores(monkeypatch, 2)
    with pytest.raises(TrainingDiverged, match=r"\(step 0\)"):
        H.cmd_train(path)
    assert multiprocessing.active_children() == []
    assert not marker.exists()


def test_job_children_fork_their_gan_halves(tmp_path, monkeypatch):
    # On four cores each of two ecgan jobs may use two, so each job child
    # trains its cell's GAN half in a child of its own: the patched
    # ChildStream logs the pid of the process that forks one.
    path, doc = two_seed_config(tmp_path)
    log = tmp_path / "gan_children"
    real = training.ChildStream

    def child_stream(work):
        if runs_gan_half(work):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
        return real(work)

    monkeypatch.setattr(training, "ChildStream", child_stream)
    outputs = {}
    for cores in (1, 4):
        set_cores(monkeypatch, cores)
        assert H.cmd_train(path) == 0
        assert multiprocessing.active_children() == []
        outputs[cores] = output_bytes(doc["output_dir"])
    forks = log.read_text().split()
    assert len(forks) == len(set(forks)) == 2 and str(os.getpid()) not in forks
    assert outputs[1] == outputs[4]


def session_processes(sid):
    """Pids of the processes of session `sid` that are not zombies."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as f:
                state, _, _, session = f.read().rsplit(")", 1)[1].split()[:4]
        except OSError:  # the process has gone
            continue
        if state != "Z" and int(session) == sid:
            pids.append(int(entry))
    return pids


# `python -m ecgan` with its affinity set faked to four cores, so that it
# forks on any machine.
_ECGAN_ON_FOUR_CORES = (
    "import os, runpy; os.sched_getaffinity = lambda pid: set(range(4)); "
    "runpy.run_module('ecgan', run_name='__main__')"
)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the session's processes from /proc")
@pytest.mark.parametrize("command, seeds, processes", [
    (["train"], [0], 2),  # one cell here and its GAN child
    (["train"], [0, 1], 5),  # two job children, each with a GAN child
    (["sweep", "--axis", "lambda"], [0, 1], 5),  # four job children
    # Evaluation of 9,000 images here and in three children, each of which
    # counts its share to the end and then finds its reader gone.
    (["eval", "--data", "synth:n_per_class=3000,size=32"], None, 4),
])
def test_children_end_when_the_command_is_killed(tmp_path, command, seeds, processes):
    # A child whose reader is gone ends at its next send instead of blocking.
    if command[0] == "eval":
        path = str(tmp_path / "cls.ckpt")
        spec = NetworkSpec(role="classifier", image_size=32, channels=1, num_classes=3, base_width=8)
        save_checkpoint(path, {"classifier": build_network(spec, Rng(0, "init/c"))})
    else:
        path, _ = tiny_config(
            tmp_path, variant="ecgan", lambdas=[0.0, 0.5], seeds=seeds,
            hyperparams={"batch_size": 8, "epochs": 100000, "base_width": 8, "depth": 1},
        )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("ECGAN_SEED", None)
    leader = subprocess.Popen(
        [sys.executable, "-c", _ECGAN_ON_FOUR_CORES, command[0], path, *command[1:]],
        env=env, start_new_session=True, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while len(session_processes(leader.pid)) < processes:
            assert leader.poll() is None and time.monotonic() < deadline, "the children did not start"
            time.sleep(0.05)
        leader.terminate()
        leader.wait(timeout=20)
        deadline = time.monotonic() + 20
        while session_processes(leader.pid):
            assert time.monotonic() < deadline, f"left running: {session_processes(leader.pid)}"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(leader.pid, signal.SIGKILL)
        leader.wait()


def test_failed_run_json_write_leaves_no_partial_file(tmp_path, monkeypatch):
    path, doc = tiny_config(tmp_path)

    def dump_then_fail(obj, f, **kwargs):
        f.write('{"dataset": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(H.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="no space"):
        H.cmd_train(path)
    names = os.listdir(doc["output_dir"])
    assert "run.json" not in names and "run.json.tmp" not in names


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
def test_diverged_train_leaves_no_run_json(tmp_path, monkeypatch, rerun):
    path, doc = tiny_config(tmp_path, seeds=[0, 1])
    out = doc["output_dir"]
    set_cores(monkeypatch, 1)
    if rerun:
        assert H.cmd_train(path) == 0
        assert os.path.exists(os.path.join(out, "run.json"))
    real_train_job = H.train_job

    def train_job(dataset, runs, **kwargs):
        if any(hp.seed == 1 for _, hp in runs):
            return [TrainingDiverged("classifier half: overflow encountered in multiply", step=0) for _ in runs]
        return real_train_job(dataset, runs, **kwargs)

    monkeypatch.setattr(H, "train_job", train_job)
    with pytest.raises(TrainingDiverged):
        H.cmd_train(path)
    assert not os.path.exists(os.path.join(out, "run.json"))
    assert os.path.exists(os.path.join(out, "checkpoints", "baseline_p100_l0.1_s0.ckpt"))
    assert {r["seed"] for r in read_metrics(out)} == {"0"}


# -- generate / eval ----------------------------------------------------------


SPEC16 = dict(image_size=16, channels=1, num_classes=3, base_width=8)


def gen_checkpoint(tmp_path, conditional=False):
    gen = build_network(
        NetworkSpec(role="generator", conditional=conditional, **SPEC16), Rng(0, "init/g"))
    path = tmp_path / "gen.ckpt"
    save_checkpoint(path, {"generator": gen})
    return str(path)


def test_generate_grid_parses(tmp_path):
    ckpt = gen_checkpoint(tmp_path)
    out = str(tmp_path / "grid.pgm")
    assert H.cmd_generate(ckpt, 9, out) == 0
    grid = pgm.read_image(out)
    assert grid.shape == (48, 48)  # 3x3 tiles of 16px


def test_generate_deterministic_by_seed(tmp_path):
    ckpt = gen_checkpoint(tmp_path)
    a, b, c = (str(tmp_path / f"{n}.pgm") for n in "abc")
    H.cmd_generate(ckpt, 4, a, seed=5)
    H.cmd_generate(ckpt, 4, b, seed=5)
    H.cmd_generate(ckpt, 4, c, seed=6)
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a, "rb").read() != open(c, "rb").read()


def test_generate_class_flag_requires_conditional(tmp_path):
    ckpt = gen_checkpoint(tmp_path)
    with pytest.raises(ContractError, match="unconditional"):
        H.cmd_generate(ckpt, 4, str(tmp_path / "x.pgm"), class_idx=1)
    cond = gen_checkpoint(tmp_path, conditional=True)
    assert H.cmd_generate(cond, 4, str(tmp_path / "c.pgm"), class_idx=1) == 0


def test_generate_rejects_bad_n(tmp_path):
    with pytest.raises(ContractError, match="--n"):
        H.cmd_generate(gen_checkpoint(tmp_path), 0, str(tmp_path / "x.pgm"))


def test_generate_needs_generator(tmp_path):
    cls = build_network(NetworkSpec(role="classifier", depth=1, **SPEC16), Rng(0, "init/c"))
    path = tmp_path / "cls.ckpt"
    save_checkpoint(path, {"classifier": cls})
    with pytest.raises(ContractError, match="no generator"):
        H.cmd_generate(str(path), 4, str(tmp_path / "x.pgm"))


def test_eval_prints_accuracy(tmp_path, capsys):
    cls = build_network(NetworkSpec(role="classifier", depth=1, **SPEC16), Rng(0, "init/c"))
    path = tmp_path / "cls.ckpt"
    save_checkpoint(path, {"classifier": cls})
    assert H.cmd_eval(str(path), "synth:n_per_class=4,classes=3,size=16,seed=2") == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("accuracy=")
    assert 0.0 <= float(out.split("=")[1]) <= 1.0


def test_eval_accepts_shared_head(tmp_path, capsys):
    sd = build_network(
        NetworkSpec(role="shared_discriminator", **SPEC16), Rng(0, "init/sd"))
    path = tmp_path / "sd.ckpt"
    save_checkpoint(path, {"shared": sd})
    assert H.cmd_eval(str(path), "synth:n_per_class=4,classes=3,size=16,seed=2") == 0
    assert "accuracy=" in capsys.readouterr().out


def test_eval_class_count_mismatch(tmp_path):
    # A set of 4 classes has a label the 3-class classifier does not know.
    cls = build_network(NetworkSpec(role="classifier", depth=1, **SPEC16), Rng(0, "init/c"))
    path = tmp_path / "cls.ckpt"
    save_checkpoint(path, {"classifier": cls})
    with pytest.raises(ContractError, match="dataset has num_classes=4, classifier expects num_classes=3"):
        H.cmd_eval(str(path), "synth:n_per_class=4,classes=4,size=16,seed=2")


@pytest.mark.parametrize("key, role, spec_size, data", [
    # a 32-px classifier on 16-px images printed an accuracy and exited 0
    ("classifier", "classifier", 32, "synth:size=16,n_per_class=10"),
    # a 16-px shared head on 32-px images ended in numpy's reshape ValueError
    ("shared", "shared_discriminator", 16, "synth:size=32,n_per_class=2"),
])
def test_eval_rejects_images_of_another_size(tmp_path, capsys, key, role, spec_size, data):
    spec = NetworkSpec(role=role, image_size=spec_size, channels=1, num_classes=3, base_width=8)
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {key: build_network(spec, Rng(0, "init"))})
    assert cli.main(["eval", str(path), "--data", data]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dataset has image_size={48 - spec_size}, classifier expects image_size={spec_size}\n"


def test_eval_rejects_images_with_other_channels(tmp_path):
    for name in ("a.ppm", "b.ppm"):
        pgm.write_image(tmp_path / name, np.zeros((16, 16, 3)))
    (tmp_path / "labels.csv").write_text("filename,label\na.ppm,0\nb.ppm,1\n")
    spec = NetworkSpec(role="classifier", image_size=16, channels=1, num_classes=2, base_width=8)
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"classifier": build_network(spec, Rng(0, "init"))})
    with pytest.raises(ContractError, match="channels=3, classifier expects channels=1"):
        H.cmd_eval(str(path), f"dir:root={tmp_path},size=16,channels=3")


def test_eval_needs_classifier(tmp_path):
    with pytest.raises(ContractError, match="no classifier"):
        H.cmd_eval(gen_checkpoint(tmp_path), "synth:classes=3,size=16,n_per_class=4")


def test_parse_data_spec():
    ds = H.parse_data_spec("synth:n_per_class=3,classes=2,size=16,noise_sigma=0,seed=9")
    assert len(ds) == 6 and ds.num_classes == 2
    # Without noise_sigma, eval must draw the corpus that configs train on.
    ds = H.parse_data_spec("synth:n_per_class=3,classes=2,size=16,seed=9")
    np.testing.assert_array_equal(ds.images, synth_shapes(3, 2, 16, noise_sigma=0.105, seed=9).images)
    with pytest.raises(ContractError, match="source:key=value"):
        H.parse_data_spec("synth")
    with pytest.raises(ContractError, match="bad data spec field"):
        H.parse_data_spec("synth:classes")
    with pytest.raises(ContractError, match="unknown data source"):
        H.parse_data_spec("csv:path=x")
    with pytest.raises(ContractError, match="idx data spec needs"):
        H.parse_data_spec("idx:images=x")
    with pytest.raises(ContractError, match="dir data spec needs"):
        H.parse_data_spec("dir:size=16")


def write_split_files(tmp_path, rng):
    """Per split, an IDX pair and a PGM directory of the same 8x8 images;
    the train and test splits hold different images."""
    splits = {}
    for split, n in (("train", 6), ("test", 4)):
        pixels = rng.integers(0, 256, (n, 8, 8), dtype=np.uint8)
        labels = np.arange(n) % 2
        write_idx(tmp_path / f"{split}-images.idx", tmp_path / f"{split}-labels.idx",
                  pixels[:, None] / 255.0, labels)
        root = tmp_path / split
        root.mkdir()
        for i, img in enumerate(pixels):
            pgm.write_image(root / f"{i}.pgm", img)
        (root / "labels.csv").write_text(
            "filename,label\n" + "".join(f"{i}.pgm,{label}\n" for i, label in enumerate(labels)))
        splits[split] = pixels[:, None] / np.float32(255.0), labels
    return splits


def test_idx_and_dir_sources_load_each_split(tmp_path, rng):
    splits = write_split_files(tmp_path, rng)
    idx = ExperimentConfig(dataset={
        "source": "idx",
        "images": str(tmp_path / "train-images.idx"), "labels": str(tmp_path / "train-labels.idx"),
        "test_images": str(tmp_path / "test-images.idx"), "test_labels": str(tmp_path / "test-labels.idx"),
    })
    image_dir = ExperimentConfig(dataset={
        "source": "dir", "root": str(tmp_path / "train"), "test_root": str(tmp_path / "test"), "size": 8,
    })
    for cfg in (idx, image_dir):
        train_ds, test_ds = H.load_datasets(cfg.dataset)
        for ds, split in ((train_ds, "train"), (test_ds, "test")):
            images, labels = splits[split]
            np.testing.assert_array_equal(ds.images, images)
            np.testing.assert_array_equal(ds.labels, labels)
    for spec in (
        f"idx:images={tmp_path / 'test-images.idx'},labels={tmp_path / 'test-labels.idx'}",
        f"dir:root={tmp_path / 'test'},size=8",
    ):
        ds = H.parse_data_spec(spec)
        np.testing.assert_array_equal(ds.images, splits["test"][0])
        np.testing.assert_array_equal(ds.labels, splits["test"][1])


@pytest.mark.parametrize("spec, match", [
    ("synth:classes=abc", "'classes=abc': expected int"),
    ("synth:n_per_class=2.5", "'n_per_class=2.5': expected int"),
    ("synth:noise_sigma=x", "'noise_sigma=x': expected float"),
    ("synth:n_per_clas=2", "unknown synth data spec key 'n_per_clas'"),
    ("synth:root=x", "unknown synth data spec key 'root'"),
    ("idx:images=a,labels=b,size=16", "unknown idx data spec key 'size'"),
    ("dir:root=a,size=big", "'size=big': expected int"),
    ("synth:size=32,size=16", "repeated synth data spec key 'size'"),
])
def test_parse_data_spec_rejects_what_it_cannot_use(spec, match):
    with pytest.raises(ContractError, match=match):
        H.parse_data_spec(spec)


@pytest.mark.parametrize("channels", [0, 2])
def test_dir_spec_takes_one_or_three_channels(tmp_path, capsys, channels):
    # A PGM beside a PPM: any other count ended in numpy's ValueError on
    # stacking them, which the CLI does not turn into an error line.
    pgm.write_image(tmp_path / "a.pgm", np.zeros((4, 4)))
    pgm.write_image(tmp_path / "b.ppm", np.zeros((4, 4, 3)))
    (tmp_path / "labels.csv").write_text("filename,label\na.pgm,0\nb.ppm,1\n")
    spec = f"dir:root={tmp_path},size=4,channels={channels}"
    with pytest.raises(DataError, match=f"channels must be 1 or 3, got {channels}"):
        H.parse_data_spec(spec)
    ckpt = tmp_path / "c.ckpt"
    net = NetworkSpec(role="classifier", image_size=16, channels=1, num_classes=2, base_width=8)
    save_checkpoint(ckpt, {"classifier": build_network(net, Rng(0, "init"))})
    assert cli.main(["eval", str(ckpt), "--data", spec]) == 2
    err = capsys.readouterr().err
    assert err == f"error: channels must be 1 or 3, got {channels}\n"


# -- CLI ----------------------------------------------------------------------


def test_cli_train_and_exit_codes(tmp_path, capsys):
    path, doc = tiny_config(tmp_path)
    assert cli.main(["train", path]) == 0
    assert os.path.exists(os.path.join(doc["output_dir"], "metrics.csv"))

    rc = cli.main(["train", str(tmp_path / "ghost.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not found" in err


def test_cli_seed_precedence_flag_over_env(tmp_path, monkeypatch):
    path, doc = tiny_config(tmp_path, seeds=[3])
    monkeypatch.setenv("ECGAN_SEED", "9")
    cli.main(["train", path, "--seed", "7"])
    assert {r["seed"] for r in read_metrics(doc["output_dir"])} == {"7"}


def test_cli_seed_env_over_config(tmp_path, monkeypatch):
    path, doc = tiny_config(tmp_path, seeds=[3])
    monkeypatch.setenv("ECGAN_SEED", "9")
    cli.main(["train", path])
    assert {r["seed"] for r in read_metrics(doc["output_dir"])} == {"9"}


def test_cli_seed_config_when_unset(tmp_path):
    path, doc = tiny_config(tmp_path, seeds=[3])
    cli.main(["train", path])
    assert {r["seed"] for r in read_metrics(doc["output_dir"])} == {"3"}


def test_cli_bad_env_seed(tmp_path, monkeypatch, capsys):
    path, _ = tiny_config(tmp_path)
    monkeypatch.setenv("ECGAN_SEED", "lots")
    assert cli.main(["train", path]) == 2
    assert "ECGAN_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**53 + 1, 2**64])
@pytest.mark.parametrize("where", ["flag", "env", "seeds", "data_seed"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_cli_refuses_a_seed_out_of_range_before_touching_outputs(tmp_path, monkeypatch, capsys, command, where, seed):
    # Seeds -1 and -2 drew the same latent and init streams, with a numpy
    # RuntimeWarning, and seed 2**64 drew seed 0's.
    _, doc = tiny_config(tmp_path)
    path, _ = tiny_config(tmp_path, **{
        "seeds": {"seeds": [seed]}, "data_seed": {"dataset": {**doc["dataset"], "data_seed": seed}},
    }.get(where, {}))
    argv = [command, path] + (["--axis", "lambda"] if command == "sweep" else [])
    if where == "flag":
        argv += ["--seed", str(seed)]
    if where == "env":
        monkeypatch.setenv("ECGAN_SEED", str(seed))
    out = tmp_path / "out"
    out.mkdir()
    (out / "run.json").write_text("a previous run\n")
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "[0, 2**53]" in err
    assert [p.name for p in out.iterdir()] == ["run.json"]
    assert (out / "run.json").read_text() == "a previous run\n"


@pytest.mark.parametrize("seed", [-1, 2**53 + 1])
def test_cli_eval_and_generate_refuse_a_seed_out_of_range(tmp_path, capsys, seed):
    ckpt = tmp_path / "c.ckpt"
    common = dict(image_size=16, channels=1, num_classes=2, base_width=8)
    save_checkpoint(ckpt, {
        "classifier": build_network(NetworkSpec(role="classifier", **common), Rng(0, "init")),
        "generator": build_network(NetworkSpec(role="generator", **common), Rng(0, "init")),
    })
    grid = tmp_path / "g.pgm"
    for argv in (["eval", str(ckpt), "--data", f"synth:n_per_class=2,classes=2,size=16,seed={seed}"],
                 ["generate", str(ckpt), "--n", "2", "--out", str(grid), "--seed", str(seed)]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**53], got {seed}\n"
    assert not grid.exists()


@pytest.mark.parametrize("name", ["lr_g", "lr_d", "lr_c"])
def test_cli_refuses_a_learning_rate_that_is_not_finite(tmp_path, capsys, name):
    # JSON reads 1e400 as inf. With lr_c inf, the one Adam step of a
    # 4-image run turned every classifier weight into NaN; the run printed
    # RuntimeWarnings, exited 0 and wrote a checkpoint of NaNs.
    hyperparams = {"batch_size": 4, "epochs": 1, "base_width": 8, "depth": 1, name: "INF"}
    path, _ = tiny_config(tmp_path, variant="ecgan", hyperparams=hyperparams)
    Path(path).write_text(Path(path).read_text().replace('"INF"', "1e400"))
    assert cli.main(["train", path]) == 2
    assert capsys.readouterr().err == f"error: {name} must be finite in float32 and > 0, got inf\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, refused", [
    ("lr_c", "lr_c must be finite in float32 and > 0"),
    ("weight_decay", "weight_decay must be finite in float32 and >= 0"),
    ("lambda", "lambda must be finite in float32 and >= 0"),
    ("lambdas", "lambdas entries must be finite in float32 and >= 0"),
    ("noise_sigma", "noise_sigma must be in [0, 1]"),
])
def test_cli_refuses_a_float_setting_that_float32_cannot_hold(tmp_path, capsys, field, refused):
    # Each 1e300 was accepted: lr_c and weight_decay ended in a divergence
    # at step 0 after writing metrics.csv, noise_sigma in "arithmetic left
    # the finite floats", and lambda exited 0.
    _, doc = tiny_config(tmp_path)
    if field == "noise_sigma":
        overrides = {"dataset": {**doc["dataset"], field: 1e300}}
    elif field == "lambdas":
        overrides = {"variant": "ecgan", field: [1e300]}
    else:
        overrides = {"variant": "ecgan", "hyperparams": {**doc["hyperparams"], field: 1e300}}
    path, _ = tiny_config(tmp_path, **overrides)
    assert cli.main(["train", path]) == 2
    assert capsys.readouterr().err == f"error: {refused}, got 1e+300\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, half", [("lr_d", "gan"), ("lr_c", "classifier")])
def test_cli_reports_an_overflowing_run_as_diverged(tmp_path, capsys, name, half):
    # A learning rate that float32 holds can still overflow in training:
    # the run is a divergence, where it printed RuntimeWarnings and went on
    # with non-finite weights.
    hyperparams = {"batch_size": 4, "epochs": 1, "base_width": 8, "depth": 1, name: MAX_FLOAT}
    path, doc = tiny_config(tmp_path, variant="ecgan", hyperparams=hyperparams)
    assert cli.main(["train", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: training diverged: {half} half: overflow encountered in ") and err.count("\n") == 1
    assert not os.path.exists(os.path.join(doc["output_dir"], "run.json"))


def test_cli_refuses_an_integer_too_large_for_a_float(tmp_path, capsys):
    # 10**400 passed `lambdas`' check (an int compares below inf) and ended
    # in an OverflowError traceback.
    path, _ = tiny_config(tmp_path, lambdas=[10**400])
    assert cli.main(["train", path]) == 2
    assert capsys.readouterr().err == "error: integer of 401 digits is out of range\n"
    assert not (tmp_path / "out").exists()


def test_cli_divergence_exit_code(monkeypatch, capsys):
    def boom(config_path, seed_override=None):
        raise TrainingDiverged("gan half: overflow encountered in multiply", step=12)

    monkeypatch.setattr(H, "cmd_train", boom)
    assert cli.main(["train", "whatever.json"]) == 1
    assert "diverged" in capsys.readouterr().err


def test_cli_format_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage!")
    rc = cli.main(["generate", str(bad), "--n", "4", "--out", str(tmp_path / "g.pgm")])
    assert rc == 2
    assert "not a checkpoint" in capsys.readouterr().err


def test_cli_malformed_checkpoint_exit_code(tmp_path, capsys):
    ckpt = tmp_path / "c.ckpt"
    spec = NetworkSpec(role="classifier", image_size=16, channels=1, num_classes=2, base_width=8)
    save_checkpoint(ckpt, {"classifier": build_network(spec, Rng(0, "init"))})
    body = ckpt.read_bytes()
    # the same header length, with the first record's dtype key renamed
    ckpt.write_bytes(body.replace(b'"dtype"', b'"dtypo"', 1))
    rc = cli.main(["eval", str(ckpt), "--data", "synth:n_per_class=2,classes=2,size=16,seed=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "has dtype None" in err


@pytest.mark.parametrize("data", [
    "synth:classes=abc", "synth:n_per_clas=2", "synth:size=16,noise_sigma=nan", "synth:size=16,noise_sigma=-0.1",
    "synth:size=32,size=16",
])
def test_cli_bad_data_spec_exit_code(tmp_path, capsys, data):
    ckpt = tmp_path / "c.ckpt"
    spec = NetworkSpec(role="classifier", image_size=16, channels=1, num_classes=3, base_width=8)
    save_checkpoint(ckpt, {"classifier": build_network(spec, Rng(0, "init"))})
    assert cli.main(["eval", str(ckpt), "--data", data]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval_dir", "train_idx"])
def test_cli_rejects_images_with_an_empty_axis(tmp_path, capsys, command):
    # numpy's min() over 0x0 images raised a ValueError, which the CLI does
    # not turn into an error line.
    if command == "eval_dir":
        pgm.write_image(tmp_path / "a.pgm", np.zeros((4, 4)))
        (tmp_path / "labels.csv").write_text("filename,label\na.pgm,0\n")
        ckpt = tmp_path / "c.ckpt"
        spec = NetworkSpec(role="classifier", image_size=16, channels=1, num_classes=2, base_width=8)
        save_checkpoint(ckpt, {"classifier": build_network(spec, Rng(0, "init"))})
        argv, shape = ["eval", str(ckpt), "--data", f"dir:root={tmp_path},size=0"], (1, 1, 0, 0)
    else:
        files = {key: str(tmp_path / f"{key}.idx") for key in ("images", "labels")}
        write_idx(files["images"], files["labels"], np.zeros((2, 1, 0, 0)), [0, 1])
        path, _ = tiny_config(tmp_path, dataset={
            "source": "idx", **files, "test_images": files["images"], "test_labels": files["labels"],
        })
        argv, shape = ["train", path], (2, 1, 0, 0)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: images must have no empty axis, got shape {shape}\n"


@pytest.mark.parametrize("sigma", [float("nan"), -0.1])
def test_cli_rejects_a_config_noise_sigma_that_is_not_finite_and_non_negative(tmp_path, capsys, sigma):
    # json.load reads NaN; NaN and negative values skipped the noise, so the
    # run trained on clean images and wrote the value into run.json.
    _, doc = tiny_config(tmp_path)
    path, _ = tiny_config(tmp_path, dataset={**doc["dataset"], "noise_sigma": sigma})
    assert cli.main(["train", path]) == 2
    assert capsys.readouterr().err == f"error: noise_sigma must be in [0, 1], got {sigma}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma", [1.5, 3e38])
def test_cli_refuses_a_noise_sigma_above_one(tmp_path, capsys, sigma):
    # 3e38 is below float32's largest value, but its noise, drawn in
    # float32, was not: eval ended in "arithmetic left the finite floats",
    # exit 1. Pixels lie in [0, 1], so more noise only saturates the clip.
    ckpt = tmp_path / "c.ckpt"
    spec = NetworkSpec(role="classifier", image_size=16, channels=1, num_classes=2, base_width=8)
    save_checkpoint(ckpt, {"classifier": build_network(spec, Rng(0, "init"))})
    data = f"synth:n_per_class=2,classes=2,size=16,noise_sigma={sigma}"
    assert cli.main(["eval", str(ckpt), "--data", data]) == 2
    assert capsys.readouterr().err == f"error: noise_sigma must be in [0, 1], got {sigma}\n"
    _, doc = tiny_config(tmp_path)
    path, _ = tiny_config(tmp_path, dataset={**doc["dataset"], "noise_sigma": sigma})
    assert cli.main(["train", path]) == 2
    assert capsys.readouterr().err == f"error: noise_sigma must be in [0, 1], got {sigma}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("opening,repeat", [
    ("{", '"variant": "shared"'), ('"hyperparams": {', '"epochs": 2'),
], ids=["top_level", "hyperparams"])
def test_cli_rejects_a_repeated_config_key(tmp_path, capsys, opening, repeat):
    # json keeps the last value of a repeated key, so the first was silently
    # dropped: {"variant": "shared", "variant": "baseline"} trained baseline.
    path, _ = tiny_config(tmp_path)
    text = Path(path).read_text()
    Path(path).write_text(text.replace(opening, f"{opening}{repeat}, ", 1))
    assert cli.main(["train", path]) == 2
    key = repeat.split('"')[1]
    assert capsys.readouterr().err == f"error: repeated key {key!r}\n"
    assert not (tmp_path / "out").exists()


def write_idx_split(tmp_path, split, height, width, classes=3):
    """An IDX pair of black images, one per class: (images path, labels path)."""
    files = str(tmp_path / f"{split}-images.idx"), str(tmp_path / f"{split}-labels.idx")
    write_idx(*files, np.zeros((classes, 1, height, width)), np.arange(classes))
    return files


def idx_config(tmp_path, train, test):
    """A tiny config on an IDX pair per split; `train` and `test` are
    (height, width, classes)."""
    (images, labels), (test_images, test_labels) = (
        write_idx_split(tmp_path, split, *shape) for split, shape in (("train", train), ("test", test)))
    path, _ = tiny_config(tmp_path, dataset={
        "source": "idx", "images": images, "labels": labels, "test_images": test_images, "test_labels": test_labels,
    })
    return path


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_rejects_images_that_are_not_square(tmp_path, capsys, command):
    # eval of a 32-px classifier on 32x16 images printed an accuracy and
    # exited 0, as it compared only the height; baseline trained on them.
    if command == "train":
        argv = ["train", idx_config(tmp_path, (32, 16, 3), (32, 16, 3))]
    else:
        images, labels = write_idx_split(tmp_path, "test", 32, 16)
        ckpt = tmp_path / "c.ckpt"
        spec = NetworkSpec(role="classifier", image_size=32, channels=1, num_classes=3, base_width=8)
        save_checkpoint(ckpt, {"classifier": build_network(spec, Rng(0, "init"))})
        argv = ["eval", str(ckpt), "--data", f"idx:images={images},labels={labels}"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: images must be square, got height 32 and width 16\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("test, message", [
    ((16, 16, 3), "train has image_size=32 but test has image_size=16"),
    ((32, 32, 4), "train has num_classes=3 but test has num_classes=4"),
], ids=["image_size", "num_classes"])
def test_cli_rejects_splits_that_do_not_match(tmp_path, capsys, test, message):
    # 32-px train images with 16-px test images trained, and wrote a
    # test_acc measured at 16 px. A test label (3) beyond the train split's
    # classes (0-2) is refused.
    assert cli.main(["train", idx_config(tmp_path, (32, 32, 3), test)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_trains_on_a_test_split_that_lacks_the_highest_class(tmp_path, capsys):
    # The class count was the largest label + 1 per split, so this valid test
    # split of classes 0-1 was refused as "test has num_classes=2".
    assert cli.main(["train", idx_config(tmp_path, (32, 32, 3), (32, 32, 2))]) == 0
    assert capsys.readouterr().err == ""
    (row,) = read_metrics(tmp_path / "out")
    assert 0.0 <= float(row["test_acc"]) <= 1.0
    assert json.loads((tmp_path / "out" / "run.json").read_text())["dataset"]["source"] == "idx"


@pytest.mark.parametrize("classes, err", [
    (2, ""),
    (4, "error: dataset has num_classes=4, classifier expects num_classes=3\n"),
], ids=["lacks_the_highest", "label_beyond"])
def test_cli_eval_takes_the_classifier_class_count(tmp_path, capsys, classes, err):
    # The class count was the largest label + 1, so eval refused a valid set
    # of labels 0-1 against a 3-class classifier as "num_classes=2".
    images, labels = write_idx_split(tmp_path, "test", 16, 16, classes=classes)
    ckpt = tmp_path / "c.ckpt"
    spec = NetworkSpec(role="classifier", image_size=16, channels=1, num_classes=3, base_width=8)
    save_checkpoint(ckpt, {"classifier": build_network(spec, Rng(0, "init"))})
    assert cli.main(["eval", str(ckpt), "--data", f"idx:images={images},labels={labels}"]) == (2 if err else 0)
    captured = capsys.readouterr()
    assert captured.err == err
    if not err:
        assert captured.out.startswith("accuracy=") and captured.out.count("\n") == 1


def test_cli_out_of_memory_is_one_error_line(monkeypatch, capsys):
    # `generate --n 1000000000000` asked numpy for the whole latent batch and
    # ended in a MemoryError traceback. The error is raised here, not
    # allocated: overcommit can turn a huge allocation into an OOM kill.
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setattr(H, "cmd_generate", fail)
    assert cli.main(["generate", "g.ckpt", "--n", "1000000000000", "--out", "g.pgm"]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 728. TiB for an array\n"


def test_cli_deeply_nested_config_is_one_error_line(tmp_path, capsys):
    # The JSON decoder's RecursionError escaped as a traceback with exit 1.
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["train", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON (maximum recursion depth") and err.count("\n") == 1


USAGE_ERRORS = [ConfigError, ContractError, DataError, FormatError, InvalidLabelError, ShapeError, SpecError]


@pytest.mark.parametrize("error", USAGE_ERRORS, ids=[e.__name__ for e in USAGE_ERRORS])
def test_cli_turns_each_usage_error_into_one_line(monkeypatch, capsys, error):
    assert issubclass(error, UsageError)
    assert issubclass(error, RuntimeError if error is ContractError else ValueError)

    def fail(ckpt_path, data_spec):
        raise error("bad input")

    monkeypatch.setattr(H, "cmd_eval", fail)
    assert cli.main(["eval", "c.ckpt", "--data", "synth:"]) == 2
    assert capsys.readouterr().err == "error: bad input\n"


def test_cli_os_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    path, _ = tiny_config(tmp_path, output_dir=str(blocker / "sub"))
    assert cli.main(["train", path]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_generate_eval_round_trip(tmp_path, capsys):
    path, doc = tiny_config(tmp_path, variant="ecgan")
    cli.main(["train", path])
    ckpt = os.path.join(doc["output_dir"], "checkpoints", "ecgan_p100_l0.1_s0.ckpt")
    out = str(tmp_path / "grid.pgm")
    assert cli.main(["generate", ckpt, "--n", "4", "--out", out]) == 0
    assert pgm.read_image(out).shape == (32, 32)
    assert cli.main(["eval", ckpt, "--data",
                     "synth:n_per_class=4,classes=2,size=16,seed=1"]) == 0
    assert "accuracy=" in capsys.readouterr().out


# -- benchmark hooks ------------------------------------------------------------


_TRACED_CALLS = """
import json
import numpy as np
import layers
from ecgan import harness, tensor as T
from ecgan.config import ExperimentConfig
tracer = layers.Tracer()
layers.install(tracer)
tracer.op = 0
x = T.Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
w = T.Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
T.backward(T.conv2d(x, w))
tracer.op = 1
harness.parse_data_spec("synth:n_per_class=1,classes=2,size=16")
tracer.op = 2
harness.load_datasets(ExperimentConfig(dataset={
    "source": "synth", "train_per_class": 1, "test_per_class": 1, "classes": 2, "size": 16,
}).dataset)
print(json.dumps([[span[1] for span in tracer.spans if span[0] == op] for op in range(3)]))
"""


def test_benchmark_tracer_installs():
    # perfbench/layers.py wraps package functions by name, and times an op's
    # backward by rebinding `Node.backward_fn` on the node the op returns; a
    # renamed function, a loader called through a reference the wrapper does
    # not replace, or a broken backward hook must fail here, not only when
    # the benchmark runs.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_CALLS],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    backward, spec, config = json.loads(proc.stdout)
    assert "tensor.conv2d.bwd" in backward, backward
    assert spec.count("data.synth_shapes") == 1, spec
    assert config.count("data.synth_shapes") == 2, config
