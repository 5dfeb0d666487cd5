"""Print `sha256  path` for every output file of a fixed set of ecgan commands.

The commands run with the package of the source tree SRC (its `src` on
PYTHONPATH) in the new directory OUT, and the manifest lists every file
under OUT by relative path. Two trees whose manifests are equal write the
same bytes for this set. `--one-core` pins this process, and so the
commands, to one core, where every job trains in-process.

The set, all at 2 epochs, threshold 0.4 and lr_c 2e-3, so fakes are kept:
`train` of each variant with 2 seeds, percents 100 and 50 and augment on;
`sweep` on each axis with lambdas 0, 0.1 and 1; a lambda 0 strategy sweep;
`train` of the ecgan variant at lambda 0; `train` of the conditional
variant at lambda 0 with augment on; and `train` of the ecgan variant with
one seed on an IDX pair per split that this script writes itself (square
16-px images in both), which covers `load_idx` and the check that the
splits match; and `train` of the ecgan variant with one seed on a PGM
directory per split that this script writes too (`dir` source at 16 px):
P5 files stored at 12x12 and 24x20 px, so each is resized, one header with
a comment, and one P6 file read at one channel. Then `eval` (its standard
output written to `eval.txt`) and `generate` (a 16-image grid,
`generate.pgm`) read one checkpoint the ecgan `train` wrote, `eval` of one
checkpoint the shared `train` wrote goes to `eval_shared.txt`, `generate
--class 1` of one checkpoint the conditional `train` wrote goes to
`generate_class1.pgm`, and `eval --data dir:...` of the test directory,
by one checkpoint the `dir` train wrote, goes to `eval_dir.txt`. So the
set also covers every data source, restoring a network and the eval-mode
forwards of the classifier, the shared discriminator and the
unconditional and conditional generators.

    python scripts/output_manifest.py --src . --out OUT [--one-core]
"""

import argparse
import hashlib
import json
import os
import random
import struct
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
# `eval` also one of `train_shared`, which holds no classifier; for
# `generate --class` one of `train_ecgan_conditional`), and a test set of
# the corpus they trained on, drawn from another seed.
CHECKPOINT = "runs/train_ecgan/checkpoints/ecgan_p100_l0.1_s0.ckpt"
SHARED_CHECKPOINT = "runs/train_shared/checkpoints/shared_p100_l0.1_s0.ckpt"
CONDITIONAL_CHECKPOINT = "runs/train_ecgan_conditional/checkpoints/ecgan_conditional_p100_l0.1_s0.ckpt"
DIR_CHECKPOINT = "runs/train_dir/checkpoints/ecgan_p100_l0.1_s0.ckpt"
EVAL_DATA = "synth:n_per_class=50,classes=3,size=16,seed=5"
EVAL_DIR_DATA = "dir:root=data/dir-test,size=16"
IDX_SIZE = 16
IDX_DATASET = {
    "source": "idx", "images": "data/train-images.idx", "labels": "data/train-labels.idx",
    "test_images": "data/test-images.idx", "test_labels": "data/test-labels.idx",
}
DIR_DATASET = {"source": "dir", "root": "data/dir-train", "test_root": "data/dir-test", "size": 16}


def write_idx(out, split, n, seed):
    """An IDX pair of `n` square IDX_SIZE-px images in `out/data`, class k
    noisy around gray level 64(k+1). The bytes come from this script, not
    from the package, so both trees train on the same files."""
    rnd = random.Random(seed)
    labels = [i % DATASET["classes"] for i in range(n)]
    pixels = bytes(
        min(255, max(0, 64 * (k + 1) + rnd.randint(-48, 48))) for k in labels for _ in range(IDX_SIZE**2)
    )
    (out / f"data/{split}-images.idx").write_bytes(struct.pack(">IIII", 0x803, n, IDX_SIZE, IDX_SIZE) + pixels)
    (out / f"data/{split}-labels.idx").write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))


def write_image_dir(out, split, n, seed):
    """A PGM directory `out/data/dir-<split>` of `n` images and its
    labels.csv, class k noisy around gray level 64(k+1). Odd images are
    stored at 12x12 px and even ones at 24 wide by 20 high; the first
    header holds a comment, and the second image is a P6 file whose red,
    green and blue differ. Like `write_idx`, the bytes come from this script."""
    root = out / f"data/dir-{split}"
    root.mkdir()
    rnd = random.Random(seed)
    rows = ["filename,label"]
    for i in range(n):
        k = i % DATASET["classes"]
        width, height = (12, 12) if i % 2 else (24, 20)
        offsets = (-24, 0, 24) if i == 1 else (0,)  # red, green and blue, or gray
        gray = [64 * (k + 1) + rnd.randint(-48, 48) for _ in range(width * height)]
        pixels = bytes(min(255, max(0, g + o)) for g in gray for o in offsets)
        comment = b"# a comment\n" if i == 0 else b""
        magic, suffix = (b"P6", "ppm") if i == 1 else (b"P5", "pgm")
        name = f"{i:02d}.{suffix}"
        (root / name).write_bytes(b"%s\n%s%d %d\n255\n" % (magic, comment, width, height) + pixels)
        rows.append(f"{name},{k}")
    (root / "labels.csv").write_text("\n".join(rows) + "\n")


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
    yield "train_idx", {
        **base, "dataset": IDX_DATASET, "seeds": [0], "dataset_percent": [100], "variant": "ecgan",
        "hyperparams": HYPERPARAMS,
    }, ["train"]
    yield "train_dir", {
        **base, "dataset": DIR_DATASET, "seeds": [0], "dataset_percent": [100], "variant": "ecgan",
        "hyperparams": HYPERPARAMS,
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
    (out / "data").mkdir()
    for split, n, seed in (("train", 24, 0), ("test", 12, 1)):
        write_idx(out, split, n, seed)
        write_image_dir(out, split, n, seed)
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve() / "src")}
    env.pop("ECGAN_SEED", None)

    def ecgan(*argv, stdout=None):
        subprocess.run([sys.executable, "-m", "ecgan", *argv], cwd=out, env=env, check=True, stdout=stdout)

    for name, doc, argv in commands():
        config = out / "configs" / f"{name}.json"
        config.write_text(json.dumps({**doc, "output_dir": f"runs/{name}"}, indent=2) + "\n")
        ecgan(argv[0], str(config.relative_to(out)), *argv[1:])
    for name, checkpoint, data in (
        ("eval.txt", CHECKPOINT, EVAL_DATA),
        ("eval_shared.txt", SHARED_CHECKPOINT, EVAL_DATA),
        ("eval_dir.txt", DIR_CHECKPOINT, EVAL_DIR_DATA),
    ):
        with open(out / name, "w") as f:
            ecgan("eval", checkpoint, "--data", data, stdout=f)
    ecgan("generate", CHECKPOINT, "--n", "16", "--out", "generate.pgm")
    ecgan("generate", CONDITIONAL_CHECKPOINT, "--n", "16", "--class", "1", "--out", "generate_class1.pgm")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
