"""Dump a PGM contact sheet of the synthetic shapes corpus (rows = classes)."""
import argparse

import numpy as np

from ecgan.config import _SYNTH_DEFAULTS
from ecgan.data import synth_shapes
from ecgan.pgm import write_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="synth_preview.pgm")
    ap.add_argument("--classes", type=int, default=_SYNTH_DEFAULTS["classes"])
    ap.add_argument("--per-class", type=int, default=8)
    ap.add_argument("--size", type=int, default=_SYNTH_DEFAULTS["size"])
    ap.add_argument("--noise-sigma", type=float, default=_SYNTH_DEFAULTS["noise_sigma"])
    ap.add_argument("--seed", type=int, default=_SYNTH_DEFAULTS["data_seed"])
    args = ap.parse_args()

    ds = synth_shapes(args.per_class, args.classes, args.size, args.noise_sigma, args.seed)
    order = np.argsort(ds.labels, kind="stable")
    write_grid(args.out, ds.images[order])
    print(f"wrote {len(order)} samples to {args.out}")


if __name__ == "__main__":
    main()
