"""Dump a PGM contact sheet of the synthetic shapes corpus (rows = classes)."""
import argparse

import numpy as np

from ecgan.data import SOURCES, synth_shapes
from ecgan.pgm import write_grid

_, SYNTH = SOURCES["synth"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="synth_preview.pgm")
    ap.add_argument("--classes", type=int, default=SYNTH["classes"])
    ap.add_argument("--per-class", type=int, default=8)
    ap.add_argument("--size", type=int, default=SYNTH["size"])
    ap.add_argument("--noise-sigma", type=float, default=SYNTH["noise_sigma"])
    ap.add_argument("--seed", type=int, default=SYNTH["seed"])
    args = ap.parse_args()

    ds = synth_shapes(args.per_class, args.classes, args.size, args.noise_sigma, args.seed)
    order = np.argsort(ds.labels, kind="stable")
    write_grid(args.out, ds.images[order])
    print(f"wrote {len(order)} samples to {args.out}")


if __name__ == "__main__":
    main()
