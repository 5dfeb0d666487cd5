"""The benchmark's workloads: inputs generated from a seed, the timed
operation, and the checks on its outputs.

Each workload drives the public `ecgan.harness` commands the way a user
of the CLI does. Its inputs are config files (and, for `infer`, a
checkpoint) written into its own directory; the program sees only those.

Sizes: `full` is what the benchmark measures; `smoke` is the smallest
size that still runs every code path, for the benchmark's self-test.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from ecgan import harness, pgm
from ecgan.checkpoint import load_checkpoint

CLASSES = 3
IMAGE_SIZE = 32
NOISE_SIGMA = 0.105
# The protocol's cell settings. The classifier learning rate is ten times
# the protocol's 2e-4: after one or two epochs at 2e-4 test accuracy is
# still far apart between seeds and almost no fake clears the threshold,
# while at 2e-3 accuracy settles near 0.98 and the pseudo-label path runs.
HYPERPARAMS = {"lambda": 0.1, "threshold": 0.7, "batch_size": 4, "lr_c": 2e-3}
SWEEP_LAMBDAS = [0, 0.1, 1.0]

SIZES = {
    "full": {
        "cell": {"train_per_class": 67, "test_per_class": 167, "epochs": 2},
        "sweep": {"train_per_class": 34, "test_per_class": 50, "epochs": 1},
        "infer": {"train_per_class": 67, "epochs": 1, "eval_per_class": 1000, "grid": 64},
    },
    "smoke": {
        "cell": {"train_per_class": 4, "test_per_class": 22, "epochs": 1},
        "sweep": {"train_per_class": 4, "test_per_class": 4, "epochs": 1},
        "infer": {"train_per_class": 4, "epochs": 1, "eval_per_class": 22, "grid": 4},
    },
}


def derived_seeds(name, seed, count):
    """`count` input seeds for workload `name` from the benchmark seed."""
    digest = hashlib.sha256(f"{name}/{seed}".encode()).digest()
    return [int.from_bytes(digest[4 * i : 4 * i + 4], "little") % 1_000_000 for i in range(count)]


def synth_dataset(train_per_class, test_per_class, data_seed):
    return {
        "source": "synth", "train_per_class": train_per_class, "test_per_class": test_per_class,
        "classes": CLASSES, "size": IMAGE_SIZE, "noise_sigma": NOISE_SIGMA, "data_seed": data_seed,
    }


def write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@dataclass
class Outcome:
    """What one operation produced, after its outputs were checked."""

    attempted: int
    problems: list = field(default_factory=list)
    fingerprint: str = ""
    accuracy: float = 0.0
    images: int = 0
    cells_trained: int = 0
    cells_requested: int = 0  # sweeps only

    @property
    def failed(self):
        return self.attempted if self.problems else 0


def read_metrics(path, problems):
    """Rows of a harness metrics.csv; non-finite or missing values are problems."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != harness.METRIC_FIELDS:
        problems.append(f"{path.name}: header is not {harness.METRIC_FIELDS}")
        return []
    records = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(harness.METRIC_FIELDS):
            problems.append(f"{path.name} row {i}: {len(row)} fields")
            continue
        rec = dict(zip(rows[0], row))
        records.append(rec)
        for key in harness.METRIC_FIELDS[5:]:
            try:
                finite = math.isfinite(float(rec[key]))
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"{path.name} row {i}: {key}={rec[key]!r} is not finite")
    return records


def final_accuracies(records, epochs):
    return [float(r["test_acc"]) for r in records if r.get("epoch") == str(epochs - 1)]


class Cell:
    """One protocol cell of `variant` through `harness.cmd_train`."""

    def __init__(self, name, variant, seed, size, work_dir):
        self.dims = SIZES[size]["cell"]
        data_seed, cell_seed = derived_seeds(name, seed, 2)
        self.out = work_dir / "out"
        self.config_path = work_dir / "config.json"
        self.config = {
            "dataset": synth_dataset(self.dims["train_per_class"], self.dims["test_per_class"], data_seed),
            "variant": variant,
            "hyperparams": {**HYPERPARAMS, "epochs": self.dims["epochs"]},
            "seeds": [cell_seed],
            "output_dir": str(self.out),
        }
        self.checkpoint = self.out / "checkpoints" / (
            harness.run_id(variant, 100, HYPERPARAMS["lambda"], cell_seed) + ".ckpt"
        )
        self.operations = 1

    def prepare(self):
        write_json(self.config_path, self.config)

    def run(self):
        return harness.cmd_train(str(self.config_path))

    def check(self):
        out = Outcome(attempted=self.operations)
        epochs = self.dims["epochs"]
        metrics_path = self.out / "metrics.csv"
        records = read_metrics(metrics_path, out.problems)
        if len(records) != epochs:
            out.problems.append(f"metrics.csv has {len(records)} rows, expected {epochs}")
        ck = load_checkpoint(str(self.checkpoint))
        for key in ck.components:
            ck.build(key)
        finals = final_accuracies(records, epochs)
        out.accuracy = finals[-1] if finals else 0.0
        out.cells_trained = 1
        out.images = CLASSES * self.dims["train_per_class"] * epochs
        out.fingerprint = hashlib.sha256(metrics_path.read_bytes()).hexdigest()
        return out


class Sweep:
    """`harness.cmd_sweep --axis lambda` over three lambdas, three variants, two seeds."""

    def __init__(self, name, seed, size, work_dir):
        self.dims = SIZES[size]["sweep"]
        data_seed, *cell_seeds = derived_seeds(name, seed, 3)
        self.out = work_dir / "out"
        self.config_path = work_dir / "config.json"
        self.config = {
            "dataset": synth_dataset(self.dims["train_per_class"], self.dims["test_per_class"], data_seed),
            "variant": "ecgan",
            "hyperparams": {**HYPERPARAMS, "epochs": self.dims["epochs"]},
            "lambdas": SWEEP_LAMBDAS,
            "seeds": cell_seeds,
            "output_dir": str(self.out),
        }
        self.operations = len(SWEEP_LAMBDAS) * len(harness.SWEEP_VARIANTS) * len(cell_seeds)

    def prepare(self):
        write_json(self.config_path, self.config)

    def run(self):
        return harness.cmd_sweep(str(self.config_path), "lambda")

    def check(self):
        out = Outcome(attempted=self.operations, cells_requested=self.operations)
        epochs = self.dims["epochs"]
        metrics_path = self.out / "metrics.csv"
        summary_path = self.out / "sweep_summary.csv"
        records = read_metrics(metrics_path, out.problems)
        out.cells_trained = len({r["run_id"] for r in records})
        if len(records) != out.cells_trained * epochs:
            out.problems.append(
                f"metrics.csv has {len(records)} rows for {out.cells_trained} cells x {epochs} epochs"
            )
        with open(summary_path, newline="") as f:
            rows = list(csv.reader(f))
        expected = {(f"{lam:g}", v) for lam in SWEEP_LAMBDAS for v in harness.SWEEP_VARIANTS}
        body = [dict(zip(harness.SUMMARY_FIELDS, row)) for row in rows[1:]]
        if rows[:1] != [harness.SUMMARY_FIELDS]:
            out.problems.append("sweep_summary.csv header is wrong")
        elif len(body) != len(expected) or {(r["value"], r["variant"]) for r in body} != expected:
            out.problems.append(f"sweep_summary.csv rows {[r[1:3] for r in rows[1:]]} != {sorted(expected)}")
        else:
            for r in body:
                if r["seeds"] != str(len(self.config["seeds"])) or not all(
                    math.isfinite(float(r[k])) for k in ("mean_test_acc", "std_test_acc")
                ):
                    out.problems.append(f"sweep_summary.csv row {r} is malformed")
        finals = final_accuracies(records, epochs)
        out.accuracy = sum(finals) / len(finals) if finals else 0.0
        out.images = CLASSES * self.dims["train_per_class"] * epochs * out.cells_trained
        out.fingerprint = hashlib.sha256(
            metrics_path.read_bytes() + b"\0" + summary_path.read_bytes()
        ).hexdigest()
        return out


ACCURACY_LINE = re.compile(r"accuracy=(\d\.\d{4})")


class Infer:
    """`harness.cmd_eval` on a large synthetic set plus `harness.cmd_generate`
    of a grid, from a checkpoint that set-up trains briefly."""

    def __init__(self, name, seed, size, work_dir):
        self.dims = SIZES[size]["infer"]
        data_seed, cell_seed, self.eval_seed, self.grid_seed = derived_seeds(name, seed, 4)
        self.out = work_dir / "out"
        self.config_path = work_dir / "checkpoint.json"
        self.config = {
            "dataset": synth_dataset(self.dims["train_per_class"], 1, data_seed),
            "variant": "ecgan",
            "hyperparams": {**HYPERPARAMS, "epochs": self.dims["epochs"]},
            "seeds": [cell_seed],
            "output_dir": str(self.out),
        }
        self.checkpoint = self.out / "checkpoints" / (
            harness.run_id("ecgan", 100, HYPERPARAMS["lambda"], cell_seed) + ".ckpt"
        )
        self.data_spec = (
            f"synth:n_per_class={self.dims['eval_per_class']},classes={CLASSES},"
            f"size={IMAGE_SIZE},noise_sigma={NOISE_SIGMA},seed={self.eval_seed}"
        )
        self.grid_path = self.out / "grid.pgm"
        self.printed = ""
        self.checkpoint_sha256 = None
        self.operations = 2  # one eval call, one generate call

    def prepare(self):
        """Train the checkpoint; it must come out byte-identical every time."""
        write_json(self.config_path, self.config)
        if harness.cmd_train(str(self.config_path)) != 0:
            raise RuntimeError("training the infer checkpoint failed")
        digest = hashlib.sha256(self.checkpoint.read_bytes()).hexdigest()
        if self.checkpoint_sha256 not in (None, digest):
            raise RuntimeError("retraining the infer checkpoint gave different bytes")
        self.checkpoint_sha256 = digest

    def run(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = harness.cmd_eval(str(self.checkpoint), self.data_spec)
        self.printed = stdout.getvalue()
        return status or harness.cmd_generate(
            str(self.checkpoint), self.dims["grid"], str(self.grid_path), seed=self.grid_seed
        )

    def check(self):
        out = Outcome(attempted=self.operations)
        match = ACCURACY_LINE.fullmatch(self.printed.strip())
        if match is None:
            out.problems.append(f"cmd_eval printed {self.printed!r}, not one accuracy= line")
        else:
            out.accuracy = float(match.group(1))
        n = self.dims["grid"]
        cols = math.ceil(math.sqrt(n))
        expected = (math.ceil(n / cols) * IMAGE_SIZE, cols * IMAGE_SIZE)
        grid = pgm.read_image(str(self.grid_path))
        if grid.shape != expected:
            out.problems.append(f"grid is {grid.shape}, expected {expected}")
        out.images = CLASSES * self.dims["eval_per_class"] + n
        out.fingerprint = hashlib.sha256(
            self.printed.encode() + b"\0" + self.grid_path.read_bytes()
        ).hexdigest()
        return out


WORKLOADS = {
    "cell_ecgan": lambda seed, size, work_dir: Cell("cell_ecgan", "ecgan", seed, size, work_dir),
    "cell_shared": lambda seed, size, work_dir: Cell("cell_shared", "shared", seed, size, work_dir),
    "sweep_lambda": lambda seed, size, work_dir: Sweep("sweep_lambda", seed, size, work_dir),
    "infer": lambda seed, size, work_dir: Infer("infer", seed, size, work_dir),
}


def make(name, seed, size, work_dir):
    """The workload `name` at `size`, with its files under `work_dir`."""
    return WORKLOADS[name](seed, size, Path(work_dir))
