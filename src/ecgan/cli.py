"""Command-line interface.

    ecgan train <config.json> [--seed N]
    ecgan sweep <config.json> --axis {percent,lambda,strategy} [--seed N]
    ecgan generate <checkpoint> --n N [--class K] --out PATH [--seed N]
    ecgan eval <checkpoint> --data SPEC

Seed precedence: --seed flag, then the ECGAN_SEED environment variable,
then the config file (or the generate default of 0). Errors print one
`error: ...` line on stderr and exit nonzero: 2 for a `UsageError` (bad
configs, data or files), 1 for runtime failures such as divergence or
running out of memory. Commands run with numpy raising FloatingPointError
on overflow, invalid operations and division by zero. Training sets that
state itself and turns such an error into the divergence of the half that
raised it (`training.train_job`); elsewhere, as in `eval`, `generate` or
data synthesis, it is `error: arithmetic left the finite floats: ...`.

OpenBLAS runs every GEMM on the calling thread (`processes.one_blas_thread`).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import harness
from .errors import ConfigError, ContractError, TrainingDiverged, UsageError
from .processes import one_blas_thread


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ecgan",
        description="GAN-supplemented classifier training lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the cells of one experiment config")
    p_train.add_argument("config", help="path to a JSON experiment config")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seeds")

    p_sweep = sub.add_parser("sweep", help="sweep one axis across variants and seeds")
    p_sweep.add_argument("config", help="path to a JSON experiment config")
    p_sweep.add_argument("--axis", required=True, choices=("percent", "lambda", "strategy"))
    p_sweep.add_argument("--seed", type=int, default=None, help="override the config seeds")

    p_gen = sub.add_parser("generate", help="sample a grid of images from a generator checkpoint")
    p_gen.add_argument("checkpoint")
    p_gen.add_argument("--n", type=int, required=True, help="number of images")
    p_gen.add_argument("--class", dest="class_idx", type=int, default=None,
                       help="fixed class for a conditional generator")
    p_gen.add_argument("--out", required=True, help="output PGM/PPM path")
    p_gen.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("eval", help="report a classifier checkpoint's accuracy")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--data", required=True,
                        help="dataset spec, e.g. synth:classes=3,size=32,seed=1")
    return parser


def _env_seed():
    raw = os.environ.get("ECGAN_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"ECGAN_SEED must be an integer, got {raw!r}") from None


def _resolve_seed(flag_value):
    return flag_value if flag_value is not None else _env_seed()


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    one_blas_thread()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.command == "train":
                return harness.cmd_train(args.config, seed_override=_resolve_seed(args.seed))
            if args.command == "sweep":
                return harness.cmd_sweep(args.config, args.axis, seed_override=_resolve_seed(args.seed))
            if args.command == "generate":
                seed = _resolve_seed(args.seed)
                return harness.cmd_generate(
                    args.checkpoint, args.n, args.out,
                    class_idx=args.class_idx, seed=0 if seed is None else seed,
                )
            if args.command == "eval":
                return harness.cmd_eval(args.checkpoint, args.data)
            raise ContractError(f"unknown command {args.command!r}")
    except TrainingDiverged as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except FloatingPointError as e:
        print(f"error: arithmetic left the finite floats: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
