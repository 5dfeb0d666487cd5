"""Print `sha256  path` for every output file of a fixed set of ecgan commands.

The commands run with the package of the source tree SRC (its `src` on
PYTHONPATH) in the new directory OUT, and the manifest lists every file
under OUT by relative path. Two trees whose manifests are equal write the
same bytes for this set. `--one-core` pins this process, and so the
commands, to one core, where every job trains in-process.

The set, all at 2 epochs, threshold 0.4 and lr_c 2e-3, so fakes are kept:
`train` of each variant with 2 seeds, percents 100 and 50 and augment on;
`sweep` on each axis with lambdas 0, 0.1 and 1; a lambda 0 strategy sweep;
`train` of the ecgan variant at lambda 0; and `train` of the conditional
variant at lambda 0 with augment on. Then `eval` (its standard output
written to `eval.txt`) and `generate` (a 16-image grid, `generate.pgm`)
read one checkpoint the ecgan `train` wrote, and `eval` of one checkpoint
the shared `train` wrote goes to `eval_shared.txt`, so the set also covers
the eval-mode forwards of the classifier, the shared discriminator and the
generator.

    python scripts/output_manifest.py --src . --out OUT [--one-core]
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DATASET = {
    "source": "synth", "train_per_class": 8, "test_per_class": 8,
    "classes": 3, "size": 16, "data_seed": 0,
}
VARIANTS = ("baseline", "ecgan", "shared", "ecgan_conditional")
HYPERPARAMS = {"batch_size": 4, "epochs": 2, "base_width": 8, "depth": 1, "threshold": 0.4, "lr_c": 2e-3}
# What `eval` and `generate` read: a checkpoint of `train_ecgan` (and for
# `eval` also one of `train_shared`, which holds no classifier), and a test
# set of the corpus they trained on, drawn from another seed.
CHECKPOINT = "runs/train_ecgan/checkpoints/ecgan_p100_l0.1_s0.ckpt"
SHARED_CHECKPOINT = "runs/train_shared/checkpoints/shared_p100_l0.1_s0.ckpt"
EVAL_DATA = "synth:n_per_class=50,classes=3,size=16,seed=5"


def commands():
    """(name, config document, ecgan arguments after the config path)."""
    base = {"dataset": DATASET, "seeds": [0, 1], "dataset_percent": [100, 50], "lambdas": [0.0, 0.1, 1.0]}
    for variant in VARIANTS:
        yield f"train_{variant}", {**base, "variant": variant, "augment": True, "hyperparams": HYPERPARAMS}, ["train"]
    for axis in ("percent", "lambda", "strategy"):
        yield f"sweep_{axis}", {**base, "variant": "ecgan", "hyperparams": HYPERPARAMS}, ["sweep", "--axis", axis]
    lambda0 = {**HYPERPARAMS, "lambda": 0.0}
    yield "sweep_strategy_lambda0", {**base, "variant": "ecgan", "hyperparams": lambda0}, ["sweep", "--axis", "strategy"]
    yield "train_ecgan_lambda0", {**base, "variant": "ecgan", "hyperparams": lambda0}, ["train"]
    yield "train_conditional_lambda0", {
        **base, "variant": "ecgan_conditional", "augment": True, "hyperparams": lambda0,
    }, ["train"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="source tree whose src/ecgan runs")
    ap.add_argument("--out", required=True, help="new directory for the configs and outputs")
    ap.add_argument("--one-core", action="store_true", help="run every command on one core")
    args = ap.parse_args()

    if args.one_core:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = Path(args.out)
    (out / "configs").mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve() / "src")}
    env.pop("ECGAN_SEED", None)

    def ecgan(*argv, stdout=None):
        subprocess.run([sys.executable, "-m", "ecgan", *argv], cwd=out, env=env, check=True, stdout=stdout)

    for name, doc, argv in commands():
        config = out / "configs" / f"{name}.json"
        config.write_text(json.dumps({**doc, "output_dir": f"runs/{name}"}, indent=2) + "\n")
        ecgan(argv[0], str(config.relative_to(out)), *argv[1:])
    for name, checkpoint in (("eval.txt", CHECKPOINT), ("eval_shared.txt", SHARED_CHECKPOINT)):
        with open(out / name, "w") as f:
            ecgan("eval", checkpoint, "--data", EVAL_DATA, stdout=f)
    ecgan("generate", CHECKPOINT, "--n", "16", "--out", "generate.pgm")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
