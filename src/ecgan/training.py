"""Training algorithms: GAN-supplemented classification with confidence
pseudo-labels, a shared two-headed discriminator baseline, a supervised
baseline, and the class-conditional variant.

Per minibatch the update order is discriminator, generator, classifier.
The classifier's loss is CE(C(x), y) + lambda * CE(C(kept fakes),
pseudo-labels): fresh generated images every step, detached from the
generator, kept only where the classifier's own max softmax probability
exceeds the threshold, labeled by argmax. lambda = 0 degenerates exactly
to supervised training. D, the shared net's fake term and C draw their
fakes through one sampler, `detached_fakes`.

The classifier is external: it reads the generator's output, but neither
GAN player reads the classifier. An ecgan run is therefore a GAN half
that yields, per step, the D and G losses and the classifier's fakes
(drawn after that step's G update), and a classifier half that consumes
them. The D -> G -> C order is a data dependency, not a schedule: with two
or more usable cores the GAN half runs in a forked child beside the
classifier half, and the results are the same bytes as on one core.

Randomness is split into independent named streams (data order and
augmentation, per-network init, latent draws) derived from one seed, so
variants sharing a seed see identical real-data batches. So runs that
differ only in what one half does not read share that half: ecgan runs
that differ only in lambda, threshold or the classifier's settings share
a GAN half, and an ecgan run at lambda = 0 has a baseline run's
classifier half. `train_job` trains such runs together, each half once.
In one process every half of a job reads one stream of minibatches; a
GAN half in a child makes its own copy from the same seed.

Classifier halves that differ only in lambda and threshold are twins:
until a step keeps a fake, each makes the supervised update, so
`train_job` trains them as one half until their updates differ.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import os
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .data import batches, normalize
from .errors import ContractError, SpecError, TrainingDiverged
from .networks import NetworkSpec, build_network, draw_latent
from .optim import Adam, apply_weight_decay
from .processes import ChildStream
from .tensor import (
    MAX_FLOAT,
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
        if not 0 <= self.lam <= MAX_FLOAT:
            raise SpecError(f"lambda must be finite in float32 and >= 0, got {self.lam}")
        for name in ("lr_g", "lr_d", "lr_c"):
            if not 0 < getattr(self, name) <= MAX_FLOAT:
                raise SpecError(f"{name} must be finite in float32 and > 0, got {getattr(self, name)}")
        if not 0.0 <= self.threshold <= 1.0:
            raise SpecError(f"threshold must be in [0,1], got {self.threshold}")
        if not 0 <= self.weight_decay <= MAX_FLOAT:
            raise SpecError(f"weight_decay must be finite in float32 and >= 0, got {self.weight_decay}")
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


def detached_fakes(g, n, rng):
    """`n` fakes for a player that does not train G: latents from `rng`
    through G under no_grad (no graph), leaving G's running stats untouched.
    Returns (fakes, classes): the classes a conditional G drew them for
    (`balanced_labels`), or None."""
    lv = draw_latent(n, g.spec.num_classes, g.spec.conditional, rng)
    with no_grad():
        fake = g.forward(lv.values, update_stats=False)
    return fake, lv.conditional_class


def discriminator_step(d, g, real_images, opt_d, rng, labels=None):
    """One Adam step on D for BCE(D(x),1) + BCE(D(G(z)),0).

    Generated images are detached; G's running stats are left untouched.
    `labels` are the real batch's classes, used only by conditional D
    (the fake half gets the balanced classes encoded in its latents).
    """
    fake, classes = detached_fakes(g, real_images.shape[0], rng)
    p_real = d.forward(real_images, labels=labels if d.spec.conditional else None)
    p_fake = d.forward(fake, labels=classes)
    loss = add(bce(p_real, 1.0), bce(p_fake, 0.0))
    opt_d.zero_grad()
    backward(loss)
    opt_d.step()
    return loss.item()


def generator_step(g, d, batch_size, opt_g, rng):
    """One Adam step on G for BCE(D(G(z)),1).

    Gradients flow through D but only G's parameters move; D's batch-norm
    running stats are frozen during the fake forward.
    """
    lv = draw_latent(batch_size, d.spec.num_classes, d.spec.conditional, rng)
    fake = g.forward(lv.values)
    p_fake = d.forward(fake, labels=lv.conditional_class, update_stats=False)
    loss = bce(p_fake, 1.0)
    opt_g.zero_grad()
    backward(loss)
    opt_g.step()
    return loss.item()


def classifier_step(c, fakes, batch, hp, opt_c):
    """One Adam step on C for CE(C(x),y) + lambda * CE on kept fakes.

    Pseudo-labels come from C's start-of-step parameters; a single
    combined backward updates C once. The fakes' forward through C does
    not touch C's running stats, so an empty keep set reproduces the
    supervised step exactly. `fakes` None (lambda = 0, or no generator)
    is the supervised step.
    """
    logits_real = c.forward(batch.images)
    sup = cross_entropy(logits_real, batch.labels)
    unsup_value = 0.0
    keep_rate = 0.0
    loss = sup
    if fakes is not None:
        logits_fake = c.forward(fakes, update_stats=False)
        result = pseudo_label(logits_fake, hp.threshold)
        keep_rate = result.keep_rate
        if result.count:
            kept = take_rows(logits_fake, result.kept_indices)
            unsup = cross_entropy(kept, result.kept_labels)
            unsup_value = unsup.item()
            loss = add(sup, scale(unsup, hp.lam))
    opt_c.zero_grad()
    backward(loss)
    apply_weight_decay(c.trainable_parameters(), hp.weight_decay)
    opt_c.step()
    return sup.item(), unsup_value, keep_rate


def shared_step(sd, g, batch, hp, opt_sd, opt_g, rng):
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
        fake, _ = detached_fakes(g, batch.images.shape[0], rng)
        _, p_fake = sd.forward(fake, update_stats=False)
        gan_terms = add(bce(p_fake, 0.0), bce(p_real, 1.0))
        loss_d_value = gan_terms.item()
        loss = add(scale(gan_terms, hp.lam), ce)
    else:
        loss = ce
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
    opt_g.zero_grad()
    backward(loss_g)
    opt_g.step()

    return StepMetrics(
        loss_d=loss_d_value,
        loss_g=loss_g.item(),
        loss_c_sup=ce.item(),
        loss_c_unsup=0.0,
        keep_rate=0.0,
    )


# Cores this process may use, when it is one of several job children that
# share the affinity set (see `harness.run_cells`); None means all of them.
core_budget = None
EVAL_CHUNK = 16  # images per `evaluate` chunk, read by every call


def usable_cores():
    """Cores this process may run on: its affinity set, or its `core_budget`."""
    if core_budget is not None:
        return core_budget
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def evaluate(net, dataset):
    """Accuracy of argmax predictions in eval mode (running statistics).

    The dataset is split into `EVAL_CHUNK`-image chunks, dealt into one share
    per usable core: the calling process counts share 0, and each other share
    is counted in a `ChildStream` child that sends back its count. In eval
    mode a sample's logits do not depend on the chunk it is in, so the result
    is exact whatever the core count. 16 images is the fastest chunk
    measured, with each batch norm folded into the conv before it
    (`networks._conv_bn`) and the patches copied in contiguous runs
    (`tensor._conv`): 501 images of 32 px on one core took
    183 / 167 / 229 / 412 ms at chunks of 4 / 16 / 64 / 501, and 3000
    images on 2 cores 0.63 s at 16 against 0.74 s at 32 (best of 5).
    """
    if len(dataset) == 0:
        raise ContractError("cannot evaluate on an empty dataset")
    starts = range(0, len(dataset), EVAL_CHUNK)
    workers = min(usable_cores(), len(starts))

    def count_correct(share):
        correct = 0
        for start in starts[share::workers]:
            chunk = slice(start, start + EVAL_CHUNK)
            logits = net.class_logits(Tensor(normalize(dataset.images[chunk])))
            correct += int((logits.data.argmax(axis=1) == dataset.labels[chunk]).sum())
        return correct

    mode = net.mode
    net.eval()
    try:
        with no_grad(), contextlib.ExitStack() as stack:
            children = [
                stack.enter_context(ChildStream(lambda send, share=share: send(count_correct(share))))
                for share in range(1, workers)
            ]
            correct = count_correct(0) + sum(next(child) for child in children)
    finally:
        net.mode = mode
    return correct / len(dataset)


@dataclass
class TrainResult:
    networks: dict
    history: list = field(default_factory=list)
    seconds: float = 0.0  # wall time of the job that trained the run (see `train_job`); written to no output


class _Net(NamedTuple):
    """One network of a variant; its weights come from the `init/<key>` stream."""

    key: str
    role: str
    lr: str  # the HyperParams field holding its learning rate
    betas: tuple
    conditional: bool = False


def _minibatches(dataset, hp):
    """(epoch, step, batch) for every minibatch of a run, shuffled (and
    augmented) from a fresh copy of the run's data stream."""
    rng = Rng(hp.seed, "data")
    step = itertools.count()
    for epoch in range(hp.epochs):
        for batch in batches(dataset, hp.batch_size, rng, augment=hp.augment):
            yield epoch, next(step), batch


def _gan_half(half, minibatches):
    """The GAN half of an ecgan run: per item of `minibatches` the D step,
    the G step and the classifier's fakes (`detached_fakes`), drawing from
    the half's latent stream in that order. Yields (loss_d, loss_g, fakes)."""
    g, d, rng = half.nets["generator"], half.nets["discriminator"], half.latents
    for _, _, batch in minibatches:
        loss_d = discriminator_step(d, g, batch.images, half.opts["discriminator"], rng, labels=batch.labels)
        loss_g = generator_step(g, d, len(batch), half.opts["generator"], rng)
        yield loss_d, loss_g, detached_fakes(g, len(batch), rng)[0]


def _classifier_update(half, hp, batch, fakes):
    sup, unsup, keep = classifier_step(half.nets["classifier"], fakes, batch, hp, half.opts["classifier"])
    return StepMetrics(loss_c_sup=sup, loss_c_unsup=unsup, keep_rate=keep)


def _shared_update(half, hp, batch, fakes):
    return shared_step(
        half.nets["shared"], half.nets["generator"], batch, hp,
        half.opts["shared"], half.opts["generator"], half.latents,
    )


class _Part(NamedTuple):
    """A half of a variant's run: its networks and the HyperParams fields
    that decide what it trains. A classifier half (every half but a GAN
    half) also has `update(half, hp, batch, fakes)`, its StepMetrics for
    one minibatch with the settings of `hp`."""

    kind: str
    nets: tuple  # in the order of the networks dict and so of the checkpoint records
    reads: tuple
    update: object = None


# The HyperParams fields behind a run's minibatches and its random streams,
# which every half reads.
_STREAM = ("seed", "epochs", "batch_size", "augment")

# The table holds the private updates, never classifier_step & co.:
# those are looked up by name at call time, so rebinding one on the module
# (as tracers and tests do) takes effect.
_GENERATOR = _Net("generator", "generator", "lr_g", GAN_BETAS)
_GAN = _Part(
    "gan", (_GENERATOR, _Net("discriminator", "discriminator", "lr_d", GAN_BETAS)),
    _STREAM + ("base_width", "lr_g", "lr_d"),
)
_CLASSIFIER = _Part(
    "classifier", (_Net("classifier", "classifier", "lr_c", CLS_BETAS),),
    _STREAM + ("base_width", "depth", "lr_c", "weight_decay"), _classifier_update,
)


# How each variant trains: (classifier half, GAN half or None). The ecgan
# variants' classifier half reads its GAN half's fakes when lambda > 0.
_VARIANTS = {
    "ecgan": (_CLASSIFIER, _GAN),
    "shared": (_Part(
        "shared", (_GENERATOR, _Net("shared", "shared_discriminator", "lr_c", CLS_BETAS)),
        _STREAM + ("base_width", "lam", "lr_g", "lr_c", "weight_decay"), _shared_update,
    ), None),
    "baseline": (_CLASSIFIER, None),
    "ecgan_conditional": (_CLASSIFIER, _GAN._replace(
        nets=tuple(net._replace(conditional=True) for net in _GAN.nets),
    )),
}
VARIANTS = tuple(_VARIANTS)

# The steps the GAN half calls by name, as this module defines them.
_GAN_STEPS = (discriminator_step, generator_step, detached_fakes)


def half_keys(variant, hp):
    """The keys of the GAN half (None without one) and of the classifier half
    of a `variant` run with `hp`. A key is (own, fakes), what the half reads:
    `own` is its kind, its networks and its HyperParams fields, and `fakes`
    is None for a half that reads no fakes, else its GAN half's key, lambda
    and threshold. Halves with equal keys on the same data train the same
    bytes, and classifier halves with equal `own` are twins (`train_job`).

    The classifier half of an ecgan run at lambda = 0 reads no fakes, so it
    is a baseline run's classifier half.
    """
    if variant not in _VARIANTS:
        raise SpecError(f"unknown variant {variant!r}")
    classifier, gan_part = _VARIANTS[variant]

    def own(part):
        return part.kind, part.nets, tuple(getattr(hp, name) for name in part.reads)

    if gan_part is None:
        return None, (own(classifier), None)
    gan = (own(gan_part), None)
    return gan, (own(classifier), None if hp.lam == 0 else (gan, hp.lam, hp.threshold))


# What a half costs, by kind: the residual classifier costs about twice the
# DCGAN pair of a GAN half or of a shared run.
_HALF_COST = {"classifier": 2, "gan": 1, "shared": 1}


def plan_jobs(runs):
    """Group `runs`, a list of (data, variant, hp), into jobs for `train_job`,
    so that a half (`half_keys`) that runs on equal `data` share trains once.
    Each GAN half starts a job that holds every run reading it; then each run
    without a GAN half joins the first job that trains its classifier half,
    or starts its own. A classifier half that runs with different GAN halves
    read so trains once in each of their jobs.

    Returns the jobs as sorted lists of run indices, costliest first, so that
    parallel jobs start longest first (Graham's LPT rule); ties keep the
    order of their first runs."""
    keys = [
        [None if key is None else (data, key) for key in half_keys(variant, hp)]
        for data, variant, hp in runs
    ]
    jobs = []  # (run indices, the keys of the halves they train)
    for with_gan in (True, False):
        for i, (gan, classifier) in enumerate(keys):
            if (gan is not None) == with_gan:
                home = gan or classifier  # the half whose job the run joins
                job = next((job for job in jobs if home in job[1]), None)
                if job is None:
                    jobs.append(job := ([], set()))
                job[0].append(i)
                job[1].update({gan, classifier} - {None})
    jobs.sort(key=lambda job: (-sum(_HALF_COST[own[0]] for _, (own, _) in job[1]), min(job[0])))
    return [sorted(indices) for indices, _ in jobs]


class _Half:
    """A half of a job's runs, built and trained once: its networks, their
    optimizers, and its StepMetrics this epoch."""

    def __init__(self, part, dataset, hp):
        self.part = part
        self.nets, self.opts = {}, {}
        for net in part.nets:
            spec = NetworkSpec(
                role=net.role,
                image_size=dataset.image_size,
                channels=dataset.channels,
                num_classes=dataset.num_classes,
                base_width=hp.base_width,
                conditional=net.conditional,
                depth=hp.depth if net.role == "classifier" else 1,  # others ignore it; checkpoints keep 1
            )
            self.nets[net.key] = build_network(spec, Rng(hp.seed, f"init/{net.key}"))
            self.opts[net.key] = Adam(self.nets[net.key].trainable_parameters(), getattr(hp, net.lr), betas=net.betas)
        self.latents = Rng(hp.seed, "latent")  # read by a GAN half and by a shared run
        self.steps = []

    def save(self):
        """Copies of what a step changes: each network's arrays, each
        optimizer's step count and moments, and the StepMetrics so far."""
        return (
            {key: net.state() for key, net in self.nets.items()},
            {key: (opt.step_count, _copies(opt.m), _copies(opt.v)) for key, opt in self.opts.items()},
            list(self.steps),
        )

    def restored(self, saved):
        """A half of its own in the state `saved` (see `save`), with this
        one's part."""
        states, moments, steps = saved
        twin = copy.copy(self)
        twin.nets, twin.opts, twin.steps = {}, {}, steps
        for key, opt in self.opts.items():
            twin.nets[key] = build_network(self.nets[key].spec, states[key])
            twin.opts[key] = Adam(twin.nets[key].trainable_parameters(), opt.lr, betas=(opt.beta1, opt.beta2))
            twin.opts[key].step_count, twin.opts[key].m, twin.opts[key].v = moments[key]
        return twin


def _copies(arrays):
    return {name: array.copy() for name, array in arrays.items()}


class _Run:
    """A run of a job: its halves, its classifier key and settings, its
    history, and the error that stopped it."""

    def __init__(self, classifier, gan, key, hp):
        self.classifier, self.gan, self.key, self.hp = classifier, gan, key, hp
        self.reads_fakes = key[1] is not None
        self.error = None
        self.history = []


def _twin_step(half, runs, batch, fakes, step):
    """One step of the classifier half `half` for `runs`, the runs that read
    it and have not stopped; returns the half that some split off into, or
    None.

    The update is that of the fake reader with the lowest threshold, which
    keeps a superset of every other reader's fakes: if it keeps none, it is
    every twin's update. If it keeps some or diverges, the runs with another
    classifier key split off into a half restored from the state before the
    step, which takes the step again the same way. A divergence stops the
    runs of the key that raised.
    """
    lead = min(runs, key=lambda run: (not run.reads_fakes, run.hp.threshold))
    twins = [run for run in runs if run.key != lead.key]
    saved = half.save() if twins else None
    try:
        metrics = half.part.update(half, lead.hp, batch, fakes if lead.reads_fakes else None)
    except FloatingPointError as e:
        for run in runs:
            if run.key == lead.key:
                run.error = _diverged(e, half, step)
    else:
        half.steps.append(metrics)
        if metrics.keep_rate == 0:
            return None
    if not twins:
        return None
    split = half.restored(saved)
    for run in twins:
        run.classifier = split
    return split


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


def _diverged(error, half, step):
    """The FloatingPointError `error`, which numpy raised in `half` at
    `step` under `train_job`'s error state, as a TrainingDiverged."""
    return TrainingDiverged(f"{half.part.kind} half: {error}", step=step)


@contextlib.contextmanager
def _feed(gan, dataset, hp, read_all):
    """The job's minibatches and, when it has a GAN half, an iterator of that
    half's item for each of them (see `_gan_half`).

    The GAN half runs in a forked child when this process may use two cores
    or more, unless a GAN step has been rebound on this module: a caller that
    rebinds one to watch it (as tracers and tests do) would see nothing of the
    calls made in a child. If `read_all()` says that the block has read every
    item from a child, G and D are rebuilt here from their final state, its
    return value.
    """
    minibatches = _minibatches(dataset, hp)
    if gan is None:
        yield minibatches, None
    elif usable_cores() < 2 or (discriminator_step, generator_step, detached_fakes) != _GAN_STEPS:
        minibatches, gan_minibatches = itertools.tee(minibatches)
        yield minibatches, _gan_half(gan, gan_minibatches)
    else:
        def work(send):
            for item in _gan_half(gan, _minibatches(dataset, hp)):
                send(item)
            return {key: net.state() for key, net in gan.nets.items()}

        with ChildStream(work) as child:
            yield minibatches, child
            if read_all():
                try:
                    next(child)
                except StopIteration as end:
                    for key, state in end.value.items():
                        gan.nets[key] = build_network(gan.nets[key].spec, state)


@np.errstate(over="raise", invalid="raise", divide="raise")
def train_job(dataset, runs, eval_dataset=None, on_epoch=None):
    """Train `runs`, a list of (variant, hp) on `dataset`, as one job: each
    half that runs have in common (see `half_keys`) trains once. Per
    minibatch the job's GAN half, if any, makes one item, and every
    classifier half that reads fakes takes them from it.

    Classifier halves whose keys agree but for the fakes they read are
    twins (see `half_keys`): until a step keeps a fake, each
    makes the supervised update. Twins train as one half until the first
    step whose updates differ, where those that differ split off from a
    copy of the state before it (see `_twin_step`). Each half is evaluated
    once an epoch, for all the runs that read it.

    The runs must share their minibatches (the `_STREAM` fields) and at most
    one GAN half. Returns per run its TrainResult, or the TrainingDiverged
    that stopped it: a run stops at the first divergence of one of its
    halves, the GAN half's first within a step, as it would alone, and the
    other runs go on. `on_epoch(i, row)`, when given, gets each history row
    of run i, for a stopped run those before it stopped. Any other error
    ends the job.

    A half diverges at its first floating-point overflow, invalid operation
    or division by zero: the job runs under a numpy error state that raises
    each as a FloatingPointError, whoever calls it, and so do the children
    it forks. From finite inputs, IEEE arithmetic makes an inf or a NaN only
    through one of these, so no non-finite number trains unseen.
    """
    start = time.perf_counter()
    keys = [half_keys(variant, hp) for variant, hp in runs]
    if (
        len({gan_key for gan_key, _ in keys} - {None}) > 1
        or len({tuple(getattr(hp, name) for name in _STREAM) for _, hp in runs}) != 1
    ):
        raise ContractError("the runs of a job must share their minibatches and at most one GAN half")
    halves = {}
    members = []
    for (variant, hp), (gan_key, classifier_key) in zip(runs, keys):
        classifier, gan_part = _VARIANTS[variant]
        twins, _ = classifier_key
        if gan_key is not None and gan_key not in halves:
            halves[gan_key] = _Half(gan_part, dataset, hp)
        if twins not in halves:
            halves[twins] = _Half(classifier, dataset, hp)
        members.append(_Run(halves[twins], halves.get(gan_key), classifier_key, hp))
    gan = next((half for half in halves.values() if half.part.kind == "gan"), None)
    classifiers = [half for half in halves.values() if half is not gan]  # and each half that splits off

    def readers(half):
        """The runs that read `half` and have not stopped yet."""
        return [run for run in members if run.error is None and half in (run.classifier, run.gan)]

    # A run that still reads the GAN half at the end has read every item.
    with _feed(gan, dataset, runs[0][1], lambda: bool(readers(gan))) as (minibatches, feed):
        for epoch, epoch_minibatches in itertools.groupby(minibatches, key=lambda m: m[0]):
            for _, step, batch in epoch_minibatches:
                fakes = None
                if gan is not None and readers(gan):
                    try:
                        loss_d, loss_g, fakes = next(feed)
                        gan.steps.append(StepMetrics(loss_d, loss_g))
                    except FloatingPointError as e:
                        for run in readers(gan):
                            run.error = _diverged(e, gan, step)
                for half in list(classifiers):
                    while half is not None and (live := readers(half)):
                        half = _twin_step(half, live, batch, fakes, step)
                        if half is not None:
                            classifiers.append(half)
            if all(run.error is not None for run in members):
                break
            accuracy = {}
            for half in classifiers:
                if readers(half):
                    net = half.nets["classifier"] if "classifier" in half.nets else half.nets["shared"]
                    accuracy[half] = {
                        "train_acc": evaluate(net, dataset),
                        "test_acc": evaluate(net, eval_dataset) if eval_dataset else float("nan"),
                    }
            for i, run in enumerate(members):
                if run.error is None:
                    row = {"epoch": epoch, **_epoch_means(run.classifier.steps), **accuracy[run.classifier]}
                    if run.gan is not None:
                        gan_means = _epoch_means(run.gan.steps)
                        row.update(loss_d=gan_means["loss_d"], loss_g=gan_means["loss_g"])
                    run.history.append(row)
                    if on_epoch is not None:
                        on_epoch(i, row)
            for half in (gan, *classifiers):
                if half is not None:
                    half.steps = []

    seconds = time.perf_counter() - start
    return [
        run.error if run.error is not None else TrainResult(
            networks={**run.classifier.nets, **(run.gan.nets if run.gan else {})},
            history=run.history,
            seconds=seconds,
        )
        for run in members
    ]


def train(variant, dataset, hp, eval_dataset=None, on_epoch=None):
    """Train one run; returns the trained networks and per-epoch history.

    History rows carry epoch means of the step losses and keep rate plus
    train/test accuracy. `on_epoch`, when given, is called with each row.
    An error is the one a one-core run raises first, after the same rows.
    """
    on_row = on_epoch and (lambda _, row: on_epoch(row))
    (result,) = train_job(dataset, [(variant, hp)], eval_dataset=eval_dataset, on_epoch=on_row)
    if isinstance(result, TrainingDiverged):
        raise result
    return result
