"""Training algorithms: GAN-supplemented classification with confidence
pseudo-labels, a shared two-headed discriminator baseline, a supervised
baseline, and the class-conditional variant.

Per minibatch the update order is discriminator, generator, classifier.
The classifier's loss is CE(C(x), y) + lambda * CE(C(kept fakes),
pseudo-labels): fresh generated images every step, detached from the
generator, kept only where the classifier's own max softmax probability
exceeds the threshold, labeled by argmax. lambda = 0 degenerates exactly
to supervised training.

Randomness is split into independent named streams (data order and
augmentation, per-network init, latent draws) derived from one seed, so
variants sharing a seed see identical real-data batches.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .data import batches, normalize
from .errors import ContractError, SpecError, TrainingDiverged
from .networks import NetworkSpec, build_network, draw_latent
from .optim import Adam, apply_weight_decay
from .tensor import (
    Rng,
    Tensor,
    add,
    backward,
    bce,
    cross_entropy,
    no_grad,
    scale,
    softmax,
    take_rows,
)

GAN_BETAS = (0.5, 0.999)
CLS_BETAS = (0.9, 0.999)


@dataclass
class HyperParams:
    """Training knobs. `lam` is the adversarial weight on the unsupervised
    classifier term (the config file key is "lambda"). `weight_decay` is the
    coupled L2 coefficient on the classifier; `augment` turns on
    `data.augment_images` for the real batches."""

    lam: float = 0.1
    threshold: float = 0.7
    lr_g: float = 2e-4
    lr_d: float = 2e-4
    lr_c: float = 2e-4
    weight_decay: float = 1e-3
    batch_size: int = 4
    epochs: int = 10
    seed: int = 0
    base_width: int = 8
    depth: int = 1
    augment: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise SpecError(f"lambda must be >= 0, got {self.lam}")
        for name in ("lr_g", "lr_d", "lr_c"):
            if not getattr(self, name) > 0:
                raise SpecError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 <= self.threshold <= 1.0:
            raise SpecError(f"threshold must be in [0,1], got {self.threshold}")
        if self.weight_decay < 0:
            raise SpecError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1 or self.epochs < 1:
            raise SpecError("batch_size and epochs must be >= 1")


@dataclass
class PseudoLabelResult:
    """Rows of a generated batch that cleared the confidence threshold."""

    kept_indices: np.ndarray
    kept_labels: np.ndarray
    keep_rate: float
    max_probs: np.ndarray

    @property
    def count(self):
        return int(self.kept_indices.size)


@dataclass
class StepMetrics:
    loss_d: float = 0.0
    loss_g: float = 0.0
    loss_c_sup: float = 0.0
    loss_c_unsup: float = 0.0
    keep_rate: float = 0.0


def pseudo_label(logits, threshold):
    """Keep rows whose max softmax probability strictly exceeds the
    threshold; the label is the argmax class (lowest index on ties).
    The decision is made on detached values and carries no gradient."""
    if not 0.0 <= threshold <= 1.0:
        raise ContractError(f"threshold must be in [0,1], got {threshold}")
    values = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    with no_grad():
        probs = softmax(Tensor(values)).data
    max_probs = probs.max(axis=1)
    kept = np.flatnonzero(max_probs > threshold)
    labels = probs[kept].argmax(axis=1).astype(np.int64)
    rate = float(kept.size / values.shape[0]) if values.shape[0] else 0.0
    return PseudoLabelResult(kept, labels, rate, max_probs)


def _check_finite(value, step, what):
    if not np.isfinite(value):
        raise TrainingDiverged(f"{what} became non-finite ({value})", step=step)
    return float(value)


def discriminator_step(d, g, real_images, opt_d, rng, step=0, labels=None):
    """One Adam step on D for BCE(D(x),1) + BCE(D(G(z)),0).

    Generated images are detached; G's running stats are left untouched.
    `labels` are the real batch's classes, used only by conditional D
    (the fake half gets the balanced classes encoded in its latents).
    """
    n = real_images.shape[0]
    conditional = d.spec.conditional
    lv = draw_latent(n, d.spec.num_classes, conditional, rng)
    with no_grad():
        fake = g.forward(lv.values, update_stats=False)
    fake = fake.detach()
    p_real = d.forward(real_images, labels=labels if conditional else None)
    p_fake = d.forward(fake, labels=lv.conditional_class)
    loss = add(bce(p_real, 1.0), bce(p_fake, 0.0))
    value = _check_finite(loss.item(), step, "discriminator loss")
    opt_d.zero_grad()
    backward(loss)
    opt_d.step()
    return value


def generator_step(g, d, batch_size, opt_g, rng, step=0):
    """One Adam step on G for BCE(D(G(z)),1).

    Gradients flow through D but only G's parameters move; D's batch-norm
    running stats are frozen during the fake forward.
    """
    lv = draw_latent(batch_size, d.spec.num_classes, d.spec.conditional, rng)
    fake = g.forward(lv.values)
    p_fake = d.forward(fake, labels=lv.conditional_class, update_stats=False)
    loss = bce(p_fake, 1.0)
    value = _check_finite(loss.item(), step, "generator loss")
    opt_g.zero_grad()
    backward(loss)
    opt_g.step()
    return value


def classifier_step(c, g, batch, hp, opt_c, rng, step=0):
    """One Adam step on C for CE(C(x),y) + lambda * CE on kept fakes.

    Pseudo-labels come from C's start-of-step parameters; a single
    combined backward updates C once. Generated images are detached from
    G, and their forward through C does not touch C's running stats, so
    lambda = 0 and an empty keep set both reproduce the supervised step
    exactly. lambda = 0 or no generator (`g` None) skips generation entirely.
    """
    logits_real = c.forward(batch.images)
    sup = cross_entropy(logits_real, batch.labels)
    unsup_value = 0.0
    keep_rate = 0.0
    loss = sup
    if hp.lam > 0 and g is not None:
        n = batch.images.shape[0]
        lv = draw_latent(n, c.spec.num_classes, g.spec.conditional, rng)
        with no_grad():
            fake = g.forward(lv.values, update_stats=False)
        logits_fake = c.forward(fake.detach(), update_stats=False)
        result = pseudo_label(logits_fake, hp.threshold)
        keep_rate = result.keep_rate
        if result.count:
            kept = take_rows(logits_fake, result.kept_indices)
            unsup = cross_entropy(kept, result.kept_labels)
            unsup_value = unsup.item()
            loss = add(sup, scale(unsup, hp.lam))
    sup_value = _check_finite(sup.item(), step, "classifier loss")
    _check_finite(unsup_value, step, "classifier unsupervised loss")
    opt_c.zero_grad()
    backward(loss)
    apply_weight_decay(c.trainable_parameters(), hp.weight_decay)
    opt_c.step()
    return sup_value, unsup_value, keep_rate


def shared_step(sd, g, batch, hp, opt_sd, opt_g, rng, step=0):
    """Combined update of the two-headed discriminator, then a G step.

    The objective is lambda * (BCE(Dd(G(z)),0) + BCE(Dd(x),1)) +
    CE(Dc(x),y), backpropagated once through trunk and both heads. The
    classification head never sees generated images. With lambda = 0 the
    discrimination head's gradient is structurally zero (its only loss
    terms carry the lambda factor), so the update equals supervised
    training of trunk plus classification head; the dead fake branch is
    skipped and the zero gradient is filled in explicitly.
    """
    logits, p_real = sd.forward(batch.images)
    ce = cross_entropy(logits, batch.labels)
    loss_d_value = 0.0
    if hp.lam > 0:
        n = batch.images.shape[0]
        lv = draw_latent(n, sd.spec.num_classes, False, rng)
        with no_grad():
            fake = g.forward(lv.values, update_stats=False)
        _, p_fake = sd.forward(fake.detach(), update_stats=False)
        gan_terms = add(bce(p_fake, 0.0), bce(p_real, 1.0))
        loss_d_value = gan_terms.item()
        loss = add(scale(gan_terms, hp.lam), ce)
    else:
        loss = ce
    sup_value = _check_finite(ce.item(), step, "shared classifier loss")
    _check_finite(loss_d_value, step, "shared discriminator loss")
    opt_sd.zero_grad()
    backward(loss)
    if hp.lam == 0:
        for name, p in sd.trainable_parameters():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
    apply_weight_decay(sd.trainable_parameters(), hp.weight_decay)
    opt_sd.step()

    lv2 = draw_latent(batch.images.shape[0], sd.spec.num_classes, False, rng)
    fake2 = g.forward(lv2.values)
    _, p_fake2 = sd.forward(fake2, update_stats=False)
    loss_g = bce(p_fake2, 1.0)
    loss_g_value = _check_finite(loss_g.item(), step, "generator loss")
    opt_g.zero_grad()
    backward(loss_g)
    opt_g.step()

    return StepMetrics(
        loss_d=loss_d_value,
        loss_g=loss_g_value,
        loss_c_sup=sup_value,
        loss_c_unsup=0.0,
        keep_rate=0.0,
    )


# Cores this process may use, when it is one of several cell workers that
# share the affinity set (see `harness.run_cells`); None means all of them.
core_budget = None


def usable_cores():
    """Cores this process may run on: its affinity set, or its `core_budget`."""
    if core_budget is not None:
        return core_budget
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def evaluate(net, dataset, batch_size=16):
    """Accuracy of argmax predictions in eval mode (running statistics).

    The dataset is split into `batch_size`-image chunks, run on each of
    `usable_cores()`: the calling thread takes one share of the chunks and a
    thread pool the rest. In eval mode a sample's logits do not depend on the chunk it is
    in, so the result is exact; numpy's copies, ufuncs and BLAS calls release
    the GIL, so chunks really run at once. The default of 16 images keeps peak
    memory level with one thread: each thread allocates from its own malloc
    arena, and with two 64-image chunks in flight peak RSS rose 8-22%.
    """
    if len(dataset) == 0:
        raise ContractError("cannot evaluate on an empty dataset")
    starts = range(0, len(dataset), batch_size)
    workers = min(usable_cores(), len(starts))

    def count_correct(share):
        correct = 0
        for start in share:
            chunk = slice(start, start + batch_size)
            logits = net.class_logits(Tensor(normalize(dataset.images[chunk])))
            correct += int((logits.data.argmax(axis=1) == dataset.labels[chunk]).sum())
        return correct

    mode = net.mode
    net.eval()
    try:
        with no_grad():
            if workers == 1:
                correct = count_correct(starts)
            else:
                with ThreadPoolExecutor(workers - 1) as pool:
                    futures = [pool.submit(count_correct, starts[i::workers]) for i in range(1, workers)]
                    correct = count_correct(starts[0::workers])
                    correct += sum(f.result() for f in futures)
    finally:
        net.mode = mode
    return correct / len(dataset)


@dataclass
class TrainResult:
    networks: dict
    history: list = field(default_factory=list)
    seconds: float = 0.0  # wall time of the training run; written to no output


class _Net(NamedTuple):
    """One network of a variant; its weights come from the `init/<key>` stream."""

    key: str
    role: str
    lr: str  # the HyperParams field holding its learning rate
    betas: tuple
    conditional: bool = False


def _ecgan_step(nets, opts, batch, hp, rng, step):
    loss_d = discriminator_step(
        nets["discriminator"], nets["generator"], batch.images,
        opts["discriminator"], rng, step=step, labels=batch.labels,
    )
    loss_g = generator_step(
        nets["generator"], nets["discriminator"], len(batch), opts["generator"], rng, step=step,
    )
    sup, unsup, keep = classifier_step(
        nets["classifier"], nets["generator"], batch, hp, opts["classifier"], rng, step=step,
    )
    return StepMetrics(loss_d, loss_g, sup, unsup, keep)


def _shared_variant_step(nets, opts, batch, hp, rng, step):
    return shared_step(
        nets["shared"], nets["generator"], batch, hp, opts["shared"], opts["generator"], rng, step=step,
    )


def _baseline_step(nets, opts, batch, hp, rng, step):
    sup, _, _ = classifier_step(nets["classifier"], None, batch, hp, opts["classifier"], rng, step=step)
    return StepMetrics(loss_c_sup=sup)


# Per variant: the per-minibatch step and the networks it trains, in the
# order of the networks dict (and so of the checkpoint records).
# The table holds the private wrappers, never discriminator_step & co.:
# those are looked up by name at call time, so rebinding one on the module
# (as tracers and tests do) takes effect.
_CLASSIFIER = _Net("classifier", "classifier", "lr_c", CLS_BETAS)
_GENERATOR = _Net("generator", "generator", "lr_g", GAN_BETAS)
_DISCRIMINATOR = _Net("discriminator", "discriminator", "lr_d", GAN_BETAS)
_VARIANTS = {
    "ecgan": (_ecgan_step, (_CLASSIFIER, _GENERATOR, _DISCRIMINATOR)),
    "shared": (_shared_variant_step, (_GENERATOR, _Net("shared", "shared_discriminator", "lr_c", CLS_BETAS))),
    "baseline": (_baseline_step, (_CLASSIFIER,)),
    "ecgan_conditional": (_ecgan_step, (
        _CLASSIFIER, _GENERATOR._replace(conditional=True), _DISCRIMINATOR._replace(conditional=True),
    )),
}
VARIANTS = tuple(_VARIANTS)


def _epoch_means(steps):
    """Per-field means of an epoch's StepMetrics, summed left to right with
    `+=`: from Python 3.12 `sum()` compensates float sums, which would move
    the last digits of metrics.csv between Python versions."""
    names = [f.name for f in fields(StepMetrics)]
    sums = dict.fromkeys(names, 0.0)
    for metrics in steps:
        for name in names:
            sums[name] += getattr(metrics, name)
    return {name: sums[name] / len(steps) for name in names}


def train(variant, dataset, hp, eval_dataset=None, on_epoch=None):
    """Run one training job; returns the trained networks and per-epoch history.

    History rows carry epoch means of the step losses and keep rate plus
    train/test accuracy. `on_epoch`, when given, is called with each row.
    """
    if variant not in _VARIANTS:
        raise SpecError(f"unknown variant {variant!r}")
    variant_step, variant_nets = _VARIANTS[variant]
    start = time.perf_counter()
    rng_data = Rng(hp.seed, "data")
    rng_latent = Rng(hp.seed, "latent")

    nets = {}
    opts = {}
    for net in variant_nets:
        spec = NetworkSpec(
            role=net.role,
            image_size=dataset.image_size,
            channels=dataset.channels,
            num_classes=dataset.num_classes,
            base_width=hp.base_width,
            conditional=net.conditional,
            depth=hp.depth if net.role == "classifier" else 1,  # others ignore it; checkpoints keep 1
        )
        nets[net.key] = build_network(spec, Rng(hp.seed, f"init/{net.key}"))
        opts[net.key] = Adam(nets[net.key].trainable_parameters(), getattr(hp, net.lr), betas=net.betas)

    classifier = nets["classifier"] if "classifier" in nets else nets["shared"]
    history = []
    step = 0
    for epoch in range(hp.epochs):
        steps = []
        for batch in batches(dataset, hp.batch_size, rng_data, augment=hp.augment):
            steps.append(variant_step(nets, opts, batch, hp, rng_latent, step))
            step += 1
        row = {
            "epoch": epoch,
            **_epoch_means(steps),
            "train_acc": evaluate(classifier, dataset),
            "test_acc": evaluate(classifier, eval_dataset) if eval_dataset else float("nan"),
        }
        history.append(row)
        if on_epoch is not None:
            on_epoch(row)

    return TrainResult(networks=nets, history=history, seconds=time.perf_counter() - start)
