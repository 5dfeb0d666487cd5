"""Classifier training with GAN-generated, confidence-filtered pseudo-labels.

A small, numpy-backed lab: a reverse-mode autodiff core, DCGAN-style
generator/discriminator and a compact residual classifier built on it,
Adam with coupled L2 weight decay, dataset plumbing (IDX, image folders,
a synthetic shapes benchmark), and a training harness that runs the
supplemented-classifier method, a shared-discriminator baseline, and a
class-conditional variant from JSON experiment configs.
"""

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    FormatError,
    InvalidLabelError,
    ShapeError,
    SpecError,
    TrainingDiverged,
)
from .tensor import Rng, Tensor, backward, no_grad, precision

__all__ = [
    "ConfigError",
    "ContractError",
    "DataError",
    "FormatError",
    "InvalidLabelError",
    "ShapeError",
    "SpecError",
    "TrainingDiverged",
    "Rng",
    "Tensor",
    "backward",
    "no_grad",
    "precision",
]

__version__ = "0.1.0"
