"""Config schema, harness outputs, sweeps, CLI behavior."""

import csv
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import count_gan_children, count_half_steps, set_cores

import ecgan.cli as cli
import ecgan.harness as H
import ecgan.training as training
from ecgan import pgm
from ecgan.checkpoint import load_checkpoint, save_checkpoint
from ecgan.config import ExperimentConfig, load_config
from ecgan.data import synth_shapes, write_idx
from ecgan.errors import ConfigError, ContractError, DataError, TrainingDiverged
from ecgan.networks import NetworkSpec, build_network
from ecgan.tensor import Rng


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
    # halves: lambda 0.1 and 1 a GAN half, decay on and off too, and
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
    real_check = training._check_finite

    def nan_in_second_epoch(value, step, what):
        return real_check(float("nan") if (what, step) == ("discriminator loss", 1) else value, step, what)

    def train_job(dataset, runs, **kwargs):
        # The GAN half of ecgan lambda 0 seed 1 diverges in its second epoch
        # (one step per epoch); its baseline twin reads only the job's
        # classifier half and finishes.
        if ("ecgan", 0.0, 1) not in [(variant, hp.lam, hp.seed) for variant, hp in runs]:
            return real_train_job(dataset, runs, **kwargs)
        training._check_finite = nan_in_second_epoch
        try:
            return real_train_job(dataset, runs, **kwargs)
        finally:
            training._check_finite = real_check

    monkeypatch.setattr(H, "train_job", train_job)  # forked workers inherit the patch
    metrics = {}
    for cores in (1, 2):
        set_cores(monkeypatch, cores)
        with pytest.raises(TrainingDiverged, match=r"non-finite \(nan\) \(step 1\)"):
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
    # lambda 0.1 and 1.0 share a job's GAN half; lambda 0 shares its
    # classifier half with the baseline. Two steps per epoch.
    path, doc = tiny_config(
        tmp_path, variant="ecgan", lambdas=[0.0, 0.1, 1.0], seeds=[0],
        hyperparams={"batch_size": 4, "epochs": 2, "base_width": 8, "depth": 1,
                     "lr_c": 2e-3, "threshold": 0.4},
    )
    if diverges == "classifier":
        # lambda 1.0's classifier half, in epoch 1: lambda 0.1 finishes
        real_c = training.classifier_step

        def classifier_step(c, fakes, batch, hp, opt_c, step=0):
            if hp.lam == 1.0 and step == 2:
                raise TrainingDiverged("classifier loss became non-finite (nan)", step=step)
            return real_c(c, fakes, batch, hp, opt_c, step=step)

        monkeypatch.setattr(training, "classifier_step", classifier_step)
    else:
        # every GAN half, in epoch 1: the baseline finishes before ecgan lambda 0 stops
        real_check = training._check_finite
        monkeypatch.setattr(training, "_check_finite", lambda value, step, what: real_check(
            float("nan") if (what, step) == ("discriminator loss", 2) else value, step, what))
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
        assert str(job.value).startswith("classifier" if diverges == "classifier" else "discriminator")
        assert (Path(doc["output_dir"]) / "metrics.csv").read_bytes() == expected_rows[cores]
    assert expected_rows[1] == expected_rows[2]
    finished = {r["run_id"] for r in read_metrics(doc["output_dir"]) if r["epoch"] == "1"}
    assert ("ecgan_p100_l0.1_s0" if diverges == "classifier" else "baseline_p100_l0_s0") in finished


def test_a_job_has_at_most_one_gan_half(tmp_path, monkeypatch):
    # Both lambda 0 cells read the baseline's classifier half, but their GAN
    # halves differ: the conditional cell trains that classifier half again.
    path, _ = tiny_config(tmp_path, hyperparams={"batch_size": 4, "epochs": 2, "base_width": 8, "depth": 1})
    cfg = load_config(path)
    train_ds, test_ds = H.load_datasets(cfg.dataset)
    cells = [H.Cell(variant, 100, 0.0, 0) for variant in ("baseline", "ecgan", "ecgan_conditional")]
    assert [job.cells for job in H._jobs(cfg, cells)] == [[0, 1], [2]]
    set_cores(monkeypatch, 1)
    together = H.run_cells(cfg, train_ds, test_ds, cells)
    for cell, result in zip(cells, together):
        (alone,) = H.run_cells(cfg, train_ds, test_ds, [cell])
        assert result.history == alone.history
    assert together[0].networks["classifier"] is together[1].networks["classifier"]
    assert together[2].networks["classifier"] is not together[0].networks["classifier"]


def test_jobs_of_a_lambda_zero_strategy_sweep(tmp_path):
    # Per augment setting, decay on and off share ecgan's lambda 0 GAN half,
    # and each shares its classifier half with a baseline cell: the job that
    # decay on starts takes in the one decay off started.
    path, _ = tiny_config(tmp_path, hyperparams={"lambda": 0.0})
    cfg = load_config(path)
    jobs = H._jobs(cfg, sweep_cells(cfg, "strategy"))  # (baseline, ecgan, shared) per setting
    assert [job.cells for job in jobs] == [[0, 1, 3, 4], [2], [5], [6, 7, 9, 10], [8], [11]]
    assert [job.cost for job in jobs] == [5, 1, 1, 5, 1, 1]


def test_a_lambda_sweep_trains_each_half_once(tmp_path, monkeypatch):
    # One minibatch: ecgan lambda 0 shares the baseline's classifier half,
    # lambda 0.1 and 1.0 share a GAN half. One cell at a time trains 3 GAN
    # halves and 4 classifier halves.
    path, _ = tiny_config(tmp_path, variant="ecgan", lambdas=[0.0, 0.1, 1.0])
    steps = count_half_steps(monkeypatch)
    set_cores(monkeypatch, 1)
    assert H.cmd_sweep(path, "lambda") == 0
    assert steps == {"gan": 2, "classifier": 3}


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
            return [TrainingDiverged("classifier loss became non-finite (nan)", step=0) for _ in runs]
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
    cls = build_network(NetworkSpec(role="classifier", depth=1, **SPEC16), Rng(0, "init/c"))
    path = tmp_path / "cls.ckpt"
    save_checkpoint(path, {"classifier": cls})
    with pytest.raises(ContractError, match="classes"):
        H.cmd_eval(str(path), "synth:n_per_class=4,classes=2,size=16,seed=2")


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
            pgm.write_pgm(root / f"{i}.pgm", img)
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
])
def test_parse_data_spec_rejects_what_it_cannot_use(spec, match):
    with pytest.raises(ContractError, match=match):
        H.parse_data_spec(spec)


@pytest.mark.parametrize("channels", [0, 2])
def test_dir_spec_takes_one_or_three_channels(tmp_path, capsys, channels):
    # A PGM beside a PPM: any other count ended in numpy's ValueError on
    # stacking them, which the CLI does not turn into an error line.
    pgm.write_pgm(tmp_path / "a.pgm", np.zeros((4, 4)))
    pgm.write_ppm(tmp_path / "b.ppm", np.zeros((4, 4, 3)))
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


def test_cli_divergence_exit_code(monkeypatch, capsys):
    def boom(config_path, seed_override=None):
        raise TrainingDiverged("discriminator loss became non-finite (nan)", step=12)

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


@pytest.mark.parametrize("data", ["synth:classes=abc", "synth:n_per_clas=2"])
def test_cli_bad_data_spec_exit_code(tmp_path, capsys, data):
    ckpt = tmp_path / "c.ckpt"
    spec = NetworkSpec(role="classifier", image_size=16, channels=1, num_classes=3, base_width=8)
    save_checkpoint(ckpt, {"classifier": build_network(spec, Rng(0, "init"))})
    assert cli.main(["eval", str(ckpt), "--data", data]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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
w = T.Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
T.backward(T.sum_all(T.conv2d(x, w)))
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
