"""Training-step semantics: pseudo-labels, loss identities, isolation."""

import gc
import math
import multiprocessing
import os

import numpy as np
import pytest
from conftest import count_gan_children, count_half_steps, set_cores

import ecgan.data as D
import ecgan.tensor as T
import ecgan.training as TR
from ecgan.data import Batch, Dataset
from ecgan.errors import ContractError, SpecError, TrainingDiverged
from ecgan.networks import (
    NetworkSpec,
    balanced_labels,
    build_network,
    draw_latent,
    latent,
)
from ecgan.optim import Adam
from ecgan.tensor import Rng, Tensor, no_grad
from ecgan.training import (
    CLS_BETAS,
    GAN_BETAS,
    HyperParams,
    classifier_step,
    detached_fakes,
    discriminator_step,
    evaluate,
    generator_step,
    pseudo_label,
    shared_step,
    train,
)

SPEC16 = dict(image_size=16, channels=1, num_classes=3, base_width=8)


def tiny_dataset(n_per_class=8, seed=0, num_classes=3):
    return D.synth_shapes(n_per_class, num_classes, 16, noise_sigma=0.1, seed=seed)


def tiny_batch(n=6, seed=0):
    ds = tiny_dataset(seed=seed)
    return Batch(Tensor(D.normalize(ds.images[:n])), ds.labels[:n])


def make_nets(seed=0, conditional=False):
    gen = build_network(
        NetworkSpec(role="generator", conditional=conditional, **SPEC16), Rng(seed, "init/g"))
    dis = build_network(
        NetworkSpec(role="discriminator", conditional=conditional, **SPEC16), Rng(seed, "init/d"))
    cls = build_network(
        NetworkSpec(role="classifier", depth=1, **SPEC16), Rng(seed, "init/c"))
    return gen, dis, cls


def snapshot(net):
    return {n: p.data.copy() for n, p in net.parameters()}


def assert_unchanged(net, snap):
    for n, p in net.parameters():
        np.testing.assert_array_equal(p.data, snap[n], err_msg=n)


def zero_final_layer(net):
    params = dict(net.parameters())
    for name in ("final.w", "final.b", "fc.w", "fc.b"):
        if name in params:
            params[name].data[...] = 0.0


# -- pseudo-labeling ----------------------------------------------------------


def row_keep_oracle(row, threshold):
    """Plain-python softmax threshold decision for one logit row."""
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    total = sum(exps)
    probs = [e / total for e in exps]
    best = max(probs)
    keep = best > threshold
    label = probs.index(best)
    return keep, label


def test_pseudo_label_known_rows():
    # softmax([2,0,0]) max = e^2/(e^2+2) ~ 0.787
    logits = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    res = pseudo_label(logits, 0.7)
    np.testing.assert_array_equal(res.kept_indices, [0])
    np.testing.assert_array_equal(res.kept_labels, [0])
    assert res.keep_rate == 0.5
    assert pseudo_label(logits, 0.8).count == 0


def test_pseudo_label_threshold_is_strict():
    logits = np.array([[1.25, 1.25]])  # exactly 0.5 each
    assert pseudo_label(logits, 0.5).count == 0
    res = pseudo_label(logits, 0.49)
    assert res.count == 1
    assert res.kept_labels[0] == 0  # tie -> lowest class index


def test_pseudo_label_extreme_thresholds(rng):
    logits = rng.normal(size=(32, 4))
    assert pseudo_label(logits, 0.0).count == 32  # max prob >= 1/K > 0
    assert pseudo_label(logits, 1.0).count == 0  # prob never exceeds 1


def test_pseudo_label_matches_row_oracle(rng):
    for k in (2, 3, 5):
        logits = rng.normal(scale=2.0, size=(250, k))
        for t in (0.3, 0.7, 0.9):
            res = pseudo_label(logits, t)
            kept = set(res.kept_indices.tolist())
            labels = dict(zip(res.kept_indices.tolist(), res.kept_labels.tolist()))
            for i, row in enumerate(logits):
                keep, label = row_keep_oracle(row.tolist(), t)
                assert (i in kept) == keep, f"row {i} t={t}"
                if keep:
                    assert labels[i] == label, f"row {i} t={t}"


def test_pseudo_label_keep_count_monotone_in_threshold(rng):
    logits = rng.normal(scale=3.0, size=(400, 3))
    counts = [pseudo_label(logits, t / 10.0).count for t in range(11)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] == 400 and counts[-1] == 0


def test_pseudo_label_accepts_tensor_and_detaches():
    t = Tensor(np.array([[4.0, 0.0]]), requires_grad=True)
    res = pseudo_label(t, 0.5)
    assert res.count == 1
    assert t.grad is None  # decision never backpropagates


def test_pseudo_label_empty_batch():
    res = pseudo_label(np.zeros((0, 3)), 0.5)
    assert res.count == 0 and res.keep_rate == 0.0


def test_pseudo_label_bad_threshold():
    with pytest.raises(ContractError, match="threshold"):
        pseudo_label(np.zeros((1, 2)), 1.5)


# -- loss identities ----------------------------------------------------------


def test_discriminator_loss_identity_at_half():
    # Zeroed final layer -> sigmoid(0) = 0.5 on every input -> loss 2 ln 2.
    gen, dis, _ = make_nets(seed=1)
    zero_final_layer(dis)
    batch = tiny_batch(8, seed=1)
    opt_d = Adam(dis.trainable_parameters(), 2e-4, betas=GAN_BETAS)
    loss = discriminator_step(dis, gen, batch.images, opt_d, Rng(1, "latent"))
    assert abs(loss - 2.0 * math.log(2.0)) < 1e-4


def test_generator_loss_identity_at_half():
    gen, dis, _ = make_nets(seed=2)
    zero_final_layer(dis)
    opt_g = Adam(gen.trainable_parameters(), 2e-4, betas=GAN_BETAS)
    loss = generator_step(gen, dis, 8, opt_g, Rng(2, "latent"))
    assert abs(loss - math.log(2.0)) < 1e-4


def test_classifier_uniform_logits_identity():
    _, _, cls = make_nets(seed=3)
    zero_final_layer(cls)  # fc weights zero -> identical logits -> uniform softmax
    batch = tiny_batch(6, seed=3)
    opt_c = Adam(cls.trainable_parameters(), 2e-4, betas=CLS_BETAS)
    hp = HyperParams(lam=0.0, batch_size=6, epochs=1)
    sup, unsup, keep = classifier_step(cls, None, batch, hp, opt_c)
    assert abs(sup - math.log(3.0)) < 1e-5
    assert unsup == 0.0 and keep == 0.0


# -- classifier step semantics -------------------------------------------------


def test_lambda_zero_never_touches_generator():
    # train() passes no fakes for the supervised baseline, nor at lambda = 0.
    _, _, cls = make_nets(seed=4)
    batch = tiny_batch(6, seed=4)
    opt_c = Adam(cls.trainable_parameters(), 2e-4, betas=CLS_BETAS)
    hp = HyperParams(lam=0.0, batch_size=6, epochs=1)
    sup, unsup, keep = classifier_step(cls, None, batch, hp, opt_c)
    assert unsup == 0.0 and keep == 0.0 and sup > 0.0


def test_threshold_one_step_is_bitwise_supervised():
    # Nothing kept -> the combined step must equal the plain supervised
    # step bit for bit, including batch-norm running statistics.
    gen, _, cls_a = make_nets(seed=5)
    _, _, cls_b = make_nets(seed=5)
    batch = tiny_batch(6, seed=5)
    hp_a = HyperParams(lam=0.5, threshold=1.0, batch_size=6, epochs=1)
    hp_b = HyperParams(lam=0.0, batch_size=6, epochs=1)
    opt_a = Adam(cls_a.trainable_parameters(), 2e-4, betas=CLS_BETAS)
    opt_b = Adam(cls_b.trainable_parameters(), 2e-4, betas=CLS_BETAS)
    classifier_step(cls_a, detached_fakes(gen, 6, Rng(5, "latent"))[0], batch, hp_a, opt_a)
    classifier_step(cls_b, None, batch, hp_b, opt_b)
    for (n, p), (_, q) in zip(cls_a.parameters(), cls_b.parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=n)


@pytest.mark.parametrize("conditional", [False, True])
def test_detached_fakes_carry_the_classes_they_were_drawn_for(conditional):
    gen = build_network(NetworkSpec(role="generator", conditional=conditional, **SPEC16), Rng(0, "init/g"))
    fakes, classes = detached_fakes(gen, 5, Rng(3, "latent"))
    lv = draw_latent(5, 3, conditional, Rng(3, "latent"))
    with no_grad():
        expected = gen.forward(lv.values, update_stats=False).data
    np.testing.assert_array_equal(fakes.data, expected)
    assert not fakes.requires_grad
    if conditional:
        np.testing.assert_array_equal(classes, balanced_labels(5, 3))
    else:
        assert classes is None


def test_unsup_loss_value_independent_of_lambda():
    # The reported unsupervised CE is the raw term; lambda only scales
    # its contribution to the update.
    results = {}
    for lam in (0.1, 1.0):
        gen, _, cls = make_nets(seed=6)
        batch = tiny_batch(8, seed=6)
        hp = HyperParams(lam=lam, threshold=0.0, batch_size=8, epochs=1)
        opt_c = Adam(cls.trainable_parameters(), 2e-4, betas=CLS_BETAS)
        _, unsup, keep = classifier_step(cls, detached_fakes(gen, 8, Rng(6, "latent"))[0], batch, hp, opt_c)
        results[lam] = (unsup, keep, snapshot(cls))
    assert results[0.1][1] == results[1.0][1] == 1.0  # threshold 0 keeps all
    assert results[0.1][0] == results[1.0][0] > 0.0
    # but the updates differ
    diffs = [
        np.abs(results[0.1][2][n] - results[1.0][2][n]).max()
        for n in results[0.1][2]
    ]
    assert max(diffs) > 0.0


def test_classifier_step_leaves_generator_alone():
    gen, _, cls = make_nets(seed=7)
    g_snap = snapshot(gen)
    batch = tiny_batch(6, seed=7)
    hp = HyperParams(lam=0.1, threshold=0.0, batch_size=6, epochs=1)
    opt_c = Adam(cls.trainable_parameters(), 2e-4, betas=CLS_BETAS)
    classifier_step(cls, detached_fakes(gen, 6, Rng(7, "latent"))[0], batch, hp, opt_c)
    assert_unchanged(gen, g_snap)  # params and running stats


def test_discriminator_step_moves_only_discriminator():
    gen, dis, cls = make_nets(seed=8)
    g_snap, c_snap = snapshot(gen), snapshot(cls)
    d_before = snapshot(dis)
    batch = tiny_batch(6, seed=8)
    opt_d = Adam(dis.trainable_parameters(), 2e-4, betas=GAN_BETAS)
    discriminator_step(dis, gen, batch.images, opt_d, Rng(8, "latent"))
    assert_unchanged(gen, g_snap)
    assert_unchanged(cls, c_snap)
    moved = [n for n, p in dis.parameters() if not np.array_equal(p.data, d_before[n])]
    assert any(n.endswith(".w") for n in moved)


def test_generator_step_freezes_discriminator():
    gen, dis, _ = make_nets(seed=9)
    d_snap = snapshot(dis)
    g_before = snapshot(gen)
    opt_g = Adam(gen.trainable_parameters(), 2e-4, betas=GAN_BETAS)
    generator_step(gen, dis, 6, opt_g, Rng(9, "latent"))
    assert_unchanged(dis, d_snap)  # includes BN running stats
    moved = [n for n, p in gen.parameters() if not np.array_equal(p.data, g_before[n])]
    assert any(n.endswith(".w") for n in moved)


def test_divergence_raises_with_step():
    _, _, cls = make_nets(seed=10)
    dict(cls.parameters())["fc.w"].data[...] = 1e38
    batch = tiny_batch(6, seed=10)
    hp = HyperParams(lam=0.0, batch_size=6, epochs=1)
    opt_c = Adam(cls.trainable_parameters(), 2e-4, betas=CLS_BETAS)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as exc:
            classifier_step(cls, None, batch, hp, opt_c, step=41)
    assert exc.value.step == 41


# -- shared-discriminator step ---------------------------------------------------


def test_shared_lambda_zero_keeps_discrimination_head_still():
    sd = build_network(
        NetworkSpec(role="shared_discriminator", **SPEC16), Rng(11, "init/sd"))
    gen, _, _ = make_nets(seed=11)
    batch = tiny_batch(6, seed=11)
    head_d_before = {
        n: p.data.copy() for n, p in sd.parameters() if n.startswith("head_d")
    }
    trunk_before = {n: p.data.copy() for n, p in sd.parameters() if n.startswith("trunk")}
    hp = HyperParams(lam=0.0, weight_decay=0.0, batch_size=6, epochs=1)
    opt_sd = Adam(sd.trainable_parameters(), 2e-4, betas=CLS_BETAS)
    opt_g = Adam(gen.trainable_parameters(), 2e-4, betas=GAN_BETAS)
    metrics = shared_step(sd, gen, batch, hp, opt_sd, opt_g, Rng(11, "latent"))
    for n, p in sd.parameters():
        if n.startswith("head_d"):
            np.testing.assert_array_equal(p.data, head_d_before[n], err_msg=n)
    trunk_moved = [
        n for n, p in sd.trainable_parameters()
        if n.startswith("trunk") and not np.array_equal(p.data, trunk_before[n])
    ]
    assert trunk_moved  # the classification loss still trains the trunk
    assert metrics.loss_d == 0.0
    assert metrics.loss_c_sup > 0.0


def test_shared_trunk_gradient_decomposition():
    # Combined backward == CE gradient + lambda * GAN gradient on the trunk.
    with T.precision(np.float64):
        sd = build_network(
            NetworkSpec(role="shared_discriminator", **SPEC16), Rng(12, "init/sd"))
        batch = tiny_batch(6, seed=12)
        fake = Tensor(np.tanh(np.random.default_rng(0).normal(size=(6, 1, 16, 16))))
        lam = 0.3

        def grads(parts):
            for _, p in sd.parameters():
                p.grad = None
            logits, p_real = sd.forward(batch.images, update_stats=False)
            _, p_fake = sd.forward(fake, update_stats=False)
            ce = T.cross_entropy(logits, batch.labels)
            gan = T.add(T.bce(p_fake, 0.0), T.bce(p_real, 1.0))
            if parts == "ce":
                T.backward(ce)
            elif parts == "gan":
                T.backward(gan)
            else:
                T.backward(T.add(T.scale(gan, lam), ce))
            return {
                n: (p.grad.copy() if p.grad is not None else None)
                for n, p in sd.trainable_parameters()
            }

        g_ce = grads("ce")
        g_gan = grads("gan")
        g_all = grads("combined")
        for n in g_all:
            if n.startswith("trunk"):
                np.testing.assert_allclose(
                    g_all[n], g_ce[n] + lam * g_gan[n], rtol=1e-9, atol=1e-12, err_msg=n)
        # Heads route cleanly: CE never reaches head_d, GAN never head_c.
        assert all(g_ce[n] is None for n in g_ce if n.startswith("head_d"))
        assert all(g_gan[n] is None for n in g_gan if n.startswith("head_c"))


# -- train() orchestration -------------------------------------------------------


def test_step_order_is_d_then_g_then_c(monkeypatch):
    calls = []
    real_d, real_g, real_c = TR.discriminator_step, TR.generator_step, TR.classifier_step
    monkeypatch.setattr(TR, "discriminator_step", lambda *a, **k: calls.append("d") or real_d(*a, **k))
    monkeypatch.setattr(TR, "generator_step", lambda *a, **k: calls.append("g") or real_g(*a, **k))
    monkeypatch.setattr(TR, "classifier_step", lambda *a, **k: calls.append("c") or real_c(*a, **k))
    set_cores(monkeypatch, 1)  # the order of the one-core schedule
    ds = tiny_dataset(2)  # 6 images
    hp = HyperParams(lam=0.1, batch_size=6, epochs=1, base_width=8, depth=1)
    train("ecgan", ds, hp)
    assert calls == ["d", "g", "c"]


PIPELINE_HP = dict(lam=0.5, threshold=0.0, batch_size=6, epochs=2, seed=4, base_width=8, depth=1)


@pytest.mark.parametrize("variant, overrides", [
    ("ecgan", {}),
    ("ecgan_conditional", {}),
    ("ecgan", {"lam": 0.0}),
    ("ecgan", {"augment": True}),
], ids=["ecgan", "conditional", "lambda0", "augment"])
def test_gan_half_in_a_child_trains_the_same_bytes(monkeypatch, variant, overrides):
    ds = tiny_dataset(4, seed=30)  # 12 images: two steps per epoch
    hp = HyperParams(**{**PIPELINE_HP, **overrides})
    started = count_gan_children(monkeypatch)
    shuffles = []  # epochs shuffled in this process: both halves read one stream
    real_batches = TR.batches
    monkeypatch.setattr(TR, "batches", lambda *a, **k: shuffles.append(1) or real_batches(*a, **k))
    runs = {}
    for cores in (1, 2):
        set_cores(monkeypatch, cores)
        runs[cores] = train(variant, ds, hp, eval_dataset=ds)
        assert multiprocessing.active_children() == []
    assert len(started) == 1  # the two-core run forked, the one-core run did not
    assert len(shuffles) == 2 * hp.epochs
    assert runs[1].history == runs[2].history
    if overrides.get("lam") != 0.0:
        assert runs[1].history[-1]["keep_rate"] == 1.0  # threshold 0: every fake is used
    assert list(runs[1].networks) == list(runs[2].networks)
    for key, net in runs[1].networks.items():
        for (n, p), (_, q) in zip(net.parameters(), runs[2].networks[key].parameters()):
            assert p.data.dtype == q.data.dtype
            np.testing.assert_array_equal(p.data, q.data, err_msg=f"{key}/{n}")


@pytest.mark.parametrize("d_step, c_step, who", [
    (3, None, "discriminator"),  # the GAN half fails; the classifier finishes steps 0-2 first
    (None, 2, "classifier"),
    (3, 1, "classifier"),  # the earlier step wins
    (2, 2, "discriminator"),  # within a step, D runs before C
])
def test_divergence_is_the_one_a_serial_run_raises(monkeypatch, d_step, c_step, who):
    # The loss turns NaN inside the step; rebinding the D step itself would
    # keep the GAN half in this process (see the next test).
    nan_at = {"discriminator loss": d_step, "classifier loss": c_step}
    real_check = TR._check_finite
    monkeypatch.setattr(TR, "_check_finite", lambda value, step, what: real_check(
        float("nan") if nan_at.get(what) == step else value, step, what))
    c_calls = []
    real_c = TR.classifier_step
    monkeypatch.setattr(TR, "classifier_step", lambda *a, **k: c_calls.append(1) or real_c(*a, **k))
    ds = tiny_dataset(4, seed=31)
    hp = HyperParams(**PIPELINE_HP)
    started = count_gan_children(monkeypatch)
    outcomes = {}
    for cores in (1, 2):
        set_cores(monkeypatch, cores)
        rows = []
        c_calls.clear()
        with pytest.raises(TrainingDiverged) as exc:
            train("ecgan", ds, hp, eval_dataset=ds, on_epoch=rows.append)
        assert multiprocessing.active_children() == []
        outcomes[cores] = (str(exc.value), exc.value.step, rows, len(c_calls))
    assert len(started) == 1
    assert outcomes[1] == outcomes[2]
    message, step, rows, _ = outcomes[1]
    assert message.startswith(who) and step == min(s for s in (d_step, c_step) if s is not None)
    assert [row["epoch"] for row in rows] == list(range(step // 2))  # two steps per epoch


@pytest.mark.parametrize("name", ["discriminator_step", "generator_step", "detached_fakes"])
def test_rebound_gan_step_keeps_the_gan_half_in_process(monkeypatch, name):
    """A caller that rebinds a GAN step to watch it sees every call, on any
    core count: a child would make them where the caller cannot look."""
    calls = []
    real = getattr(TR, name)
    monkeypatch.setattr(TR, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    started = count_gan_children(monkeypatch)
    set_cores(monkeypatch, 2)
    train("ecgan", tiny_dataset(4, seed=30), HyperParams(**PIPELINE_HP))
    # Two epochs of two steps; the D step and the classifier's fakes each draw
    # through `detached_fakes` once a step.
    assert started == [] and len(calls) == (8 if name == "detached_fakes" else 4)


def test_on_epoch_error_ends_the_gan_child(monkeypatch):
    def stop(row):
        raise KeyError("stop after the first epoch")

    started = count_gan_children(monkeypatch)
    set_cores(monkeypatch, 2)
    hp = HyperParams(**{**PIPELINE_HP, "epochs": 3})
    with pytest.raises(KeyError, match="first epoch"):
        train("ecgan", tiny_dataset(4, seed=32), hp, on_epoch=stop)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def assert_same_run(a, b):
    """Equal histories and equal arrays in every network."""
    assert a.history == b.history
    assert list(a.networks) == list(b.networks)
    for key, net in a.networks.items():
        for (n, p), (_, q) in zip(net.parameters(), b.networks[key].parameters()):
            assert p.data.dtype == q.data.dtype
            np.testing.assert_array_equal(p.data, q.data, err_msg=f"{key}/{n}")


@pytest.mark.parametrize("cores", [1, 2])
def test_a_job_trains_each_run_as_it_trains_alone(monkeypatch, cores):
    ds = tiny_dataset(4, seed=33)
    runs = [
        ("ecgan", HyperParams(**{**PIPELINE_HP, "lam": lam, "weight_decay": decay}))
        for lam in (0.0, 0.1, 1.0) for decay in (1e-3, 0.0)
    ]
    set_cores(monkeypatch, 1)
    alone = [train(variant, ds, hp, eval_dataset=ds) for variant, hp in runs]
    # What lets the six share a GAN half: none of them changes it, and
    # lambda reaches only the classifier.
    for result in alone[1:]:
        for key in ("generator", "discriminator"):
            for (n, p), (_, q) in zip(result.networks[key].parameters(), alone[0].networks[key].parameters()):
                np.testing.assert_array_equal(p.data, q.data, err_msg=f"{key}/{n}")
        gan_losses = [[(row["loss_d"], row["loss_g"]) for row in r.history] for r in (result, alone[0])]
        assert gan_losses[0] == gan_losses[1]
    started = count_gan_children(monkeypatch)
    set_cores(monkeypatch, cores)
    rows = []
    job = TR.train_job(ds, runs, eval_dataset=ds, on_epoch=lambda i, row: rows.append((i, row)))
    assert multiprocessing.active_children() == []
    assert len(started) == (cores == 2)
    assert rows == [(i, result.history[epoch]) for epoch in range(PIPELINE_HP["epochs"]) for i, result in enumerate(job)]
    for a, b in zip(alone, job):
        assert_same_run(a, b)


@pytest.mark.parametrize("runs", [
    [("ecgan", HyperParams(**PIPELINE_HP)), ("ecgan_conditional", HyperParams(**PIPELINE_HP))],
    [("baseline", HyperParams(**PIPELINE_HP)), ("baseline", HyperParams(**{**PIPELINE_HP, "seed": 5}))],
    [("baseline", HyperParams(**PIPELINE_HP)), ("baseline", HyperParams(**{**PIPELINE_HP, "augment": True}))],
], ids=["two-gan-halves", "two-seeds", "augment-on-and-off"])
def test_a_job_rejects_runs_that_cannot_share_it(monkeypatch, runs):
    started = count_gan_children(monkeypatch)
    with pytest.raises(ContractError, match="share their minibatches and at most one GAN half"):
        TR.train_job(tiny_dataset(4, seed=35), runs)
    assert started == []


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("diverges", [None, 3], ids=["finishes", "gan-diverges"])
def test_lambda_zero_shares_the_baselines_classifier_half(monkeypatch, cores, diverges):
    ds = tiny_dataset(4, seed=34)
    hp = HyperParams(**{**PIPELINE_HP, "lam": 0.0})
    real_check = TR._check_finite
    monkeypatch.setattr(TR, "_check_finite", lambda value, step, what: real_check(
        float("nan") if (what, step) == ("discriminator loss", diverges) else value, step, what))
    set_cores(monkeypatch, 1)
    baseline = train("baseline", ds, hp, eval_dataset=ds)
    ecgan_rows = []
    try:
        ecgan = train("ecgan", ds, hp, eval_dataset=ds, on_epoch=ecgan_rows.append)
    except TrainingDiverged as e:
        ecgan = e
    if diverges is None:  # the identities sharing rests on
        for (n, p), (_, q) in zip(
            ecgan.networks["classifier"].parameters(), baseline.networks["classifier"].parameters()
        ):
            np.testing.assert_array_equal(p.data, q.data, err_msg=n)
        gan_columns = ("loss_d", "loss_g")
        assert [{k: v for k, v in row.items() if k not in gan_columns} for row in ecgan.history] == [
            {k: v for k, v in row.items() if k not in gan_columns} for row in baseline.history
        ]
    started = count_gan_children(monkeypatch)
    set_cores(monkeypatch, cores)
    steps = count_half_steps(monkeypatch) if cores == 1 else None
    rows = []
    job = TR.train_job(ds, [("baseline", hp), ("ecgan", hp)], eval_dataset=ds, on_epoch=lambda i, row: rows.append((i, row)))
    assert multiprocessing.active_children() == []
    assert_same_run(job[0], baseline)
    assert [row for i, row in rows if i == 1] == ecgan_rows
    if diverges is None:
        assert_same_run(job[1], ecgan)
        assert job[0].networks["classifier"] is job[1].networks["classifier"]
    else:
        assert isinstance(job[1], TrainingDiverged) and str(job[1]) == str(ecgan)
    if cores == 1:
        assert steps["classifier"] == 2 * hp.epochs  # one classifier half, two steps per epoch
    else:
        assert len(started) == 1


def test_lambda_zero_run_equals_baseline_run():
    ds = tiny_dataset(4, seed=20)
    hp0 = HyperParams(lam=0.0, batch_size=6, epochs=2, seed=3, base_width=8, depth=1)
    ec = train("ecgan", ds, hp0)
    base = train("baseline", ds, hp0)
    for (n, p), (_, q) in zip(
        ec.networks["classifier"].parameters(), base.networks["classifier"].parameters()
    ):
        np.testing.assert_array_equal(p.data, q.data, err_msg=n)
    assert "generator" in ec.networks and "generator" not in base.networks


def test_train_deterministic():
    ds = tiny_dataset(4, seed=21)
    hp = HyperParams(lam=0.1, batch_size=6, epochs=2, seed=5, base_width=8, depth=1)
    a = train("ecgan", ds, hp, eval_dataset=ds)
    b = train("ecgan", ds, hp, eval_dataset=ds)
    assert a.history == b.history
    for key in a.networks:
        for (n, p), (_, q) in zip(a.networks[key].parameters(), b.networks[key].parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=f"{key}/{n}")


def test_history_contract():
    ds = tiny_dataset(4, seed=22)
    hp = HyperParams(lam=0.1, batch_size=8, epochs=3, base_width=8, depth=1)
    seen = []
    res = train("ecgan", ds, hp, eval_dataset=ds, on_epoch=seen.append)
    assert len(res.history) == 3 and seen == res.history
    for row in res.history:
        assert set(row) == {
            "epoch", "loss_d", "loss_g", "loss_c_sup", "loss_c_unsup",
            "keep_rate", "train_acc", "test_acc",
        }
        assert 0.0 <= row["train_acc"] <= 1.0 and 0.0 <= row["test_acc"] <= 1.0
    assert [r["epoch"] for r in res.history] == [0, 1, 2]


def test_baseline_history_has_no_gan_signal():
    ds = tiny_dataset(3, seed=23)
    hp = HyperParams(lam=0.1, batch_size=9, epochs=1, base_width=8, depth=1)
    res = train("baseline", ds, hp)
    row = res.history[0]
    assert row["loss_d"] == row["loss_g"] == row["loss_c_unsup"] == row["keep_rate"] == 0.0
    assert set(res.networks) == {"classifier"}


def test_shared_variant_networks():
    ds = tiny_dataset(3, seed=24)
    hp = HyperParams(lam=0.1, batch_size=9, epochs=1, base_width=8, depth=1)
    res = train("shared", ds, hp)
    assert set(res.networks) == {"shared", "generator"}


def test_conditional_variant_networks_and_determinism():
    ds = tiny_dataset(2, seed=25)
    hp = HyperParams(lam=0.1, batch_size=6, epochs=1, base_width=8, depth=1)
    a = train("ecgan_conditional", ds, hp, eval_dataset=ds)
    b = train("ecgan_conditional", ds, hp, eval_dataset=ds)
    assert set(a.networks) == {"classifier", "generator", "discriminator"}
    assert a.networks["generator"].spec.conditional
    assert a.networks["discriminator"].spec.conditional
    assert not a.networks["classifier"].spec.conditional
    assert a.history == b.history


@pytest.mark.parametrize("variant", TR.VARIANTS)
def test_epoch_graphs_free_without_cyclic_gc(monkeypatch, variant):
    """No autodiff graph is part of a reference cycle: with the cyclic GC
    off, every step's tensors and nodes go by reference counting alone."""
    set_cores(monkeypatch, 1)  # every step in this process, whose garbage is read here
    ds = tiny_dataset(2, seed=26)
    hp = HyperParams(lam=0.1, batch_size=6, epochs=1, base_width=8, depth=1)
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        train(variant, ds, hp, eval_dataset=ds)
        gc.collect()
        cyclic = [type(o).__name__ for o in gc.garbage if isinstance(o, (T.Tensor, T.Node))]
        assert cyclic == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_train_rejects_unknown_variant():
    with pytest.raises(SpecError, match="variant"):
        train("gan", tiny_dataset(2), HyperParams())


# -- evaluate ---------------------------------------------------------------------


def _warm_classifier(ds, seed):
    _, _, cls = make_nets(seed=seed)
    with no_grad():  # move running stats off init so eval mode is non-trivial
        cls.forward(Tensor(D.normalize(ds.images[:16])))
    return cls


def _per_sample_accuracy(cls, ds):
    cls.eval()
    correct = 0
    with no_grad():
        for i in range(len(ds)):
            logits = cls.class_logits(Tensor(D.normalize(ds.images[i : i + 1])))
            correct += int(logits.data.argmax(axis=1)[0] == ds.labels[i])
    return correct / len(ds)


def test_evaluate_matches_per_sample_loop():
    ds = tiny_dataset(12, seed=25)  # 36 images
    cls = _warm_classifier(ds, seed=25)
    assert evaluate(cls, ds, batch_size=7) == _per_sample_accuracy(cls, ds)
    for n in (1, 15, 16, 17, 33):  # around the default 16-image chunk
        sub = Dataset(ds.images[:n], ds.labels[:n], ds.num_classes)
        assert evaluate(cls, sub) == _per_sample_accuracy(cls, sub), n


def test_evaluate_counts_every_share_but_one_in_a_child(monkeypatch):
    ds = tiny_dataset(12, seed=28)  # 36 images: three 16-image chunks
    cls = _warm_classifier(ds, seed=28)
    want = _per_sample_accuracy(cls, ds)
    started = []
    real = TR.ChildStream
    monkeypatch.setattr(TR, "ChildStream", lambda work: started.append(1) or real(work))
    for cores in (1, 2, 3):
        started.clear()
        set_cores(monkeypatch, cores)
        assert evaluate(cls, ds) == want
        assert len(started) == cores - 1, cores


def test_evaluate_more_workers_than_cores(monkeypatch):
    ds = tiny_dataset(45, seed=29)  # 135 images: 9 chunks over 8 workers
    cls = _warm_classifier(ds, seed=29)
    want = _per_sample_accuracy(cls, ds)
    cls.mode = "train"
    stats = {n: p.data.copy() for n, p in cls.parameters() if "running" in n}
    monkeypatch.setattr(TR.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    accs = [evaluate(cls, ds, batch_size=b) for b in (16, 5)]
    assert accs == [want, want]
    assert cls.mode == "train"
    for n, p in cls.parameters():
        if "running" in n:
            np.testing.assert_array_equal(p.data, stats[n], err_msg=n)
    assert multiprocessing.active_children() == []


class ChunkFailure(Exception):
    pass


@pytest.mark.parametrize("in_worker", [False, True])
def test_evaluate_chunk_exception_propagates(monkeypatch, in_worker):
    ds = tiny_dataset(12, seed=30)
    cls = _warm_classifier(ds, seed=30)
    class_logits = cls.class_logits
    caller = os.getpid()

    def failing(x, **kwargs):
        if (os.getpid() != caller) == in_worker:
            raise ChunkFailure("chunk failed")
        return class_logits(x, **kwargs)

    monkeypatch.setattr(TR.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cls, "class_logits", failing)
    cls.mode = "train"
    with pytest.raises(ChunkFailure):
        evaluate(cls, ds)
    assert cls.mode == "train"


def test_evaluate_restores_mode_and_stats():
    ds = tiny_dataset(4, seed=26)
    _, _, cls = make_nets(seed=26)
    cls.mode = "train"
    stats = {n: p.data.copy() for n, p in cls.parameters() if "running" in n}
    evaluate(cls, ds)
    assert cls.mode == "train"
    for n, p in cls.parameters():
        if "running" in n:
            np.testing.assert_array_equal(p.data, stats[n], err_msg=n)


def test_evaluate_empty_dataset_rejected():
    class Empty:
        def __len__(self):
            return 0

    _, _, cls = make_nets(seed=27)
    with pytest.raises(ContractError, match="empty"):
        evaluate(cls, Empty())


# -- hyperparameter validation ------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(lam=-0.1), "lambda"),
        (dict(threshold=1.5), "threshold"),
        (dict(batch_size=0), "batch_size"),
        (dict(epochs=0), "batch_size and epochs"),
        (dict(weight_decay=-0.1), "weight_decay"),
        (dict(lr_c=-0.01), "lr_c"),
        (dict(lr_g=0.0), "lr_g"),
        (dict(lr_d=float("nan")), "lr_d"),
        (dict(lam=float("nan")), "lambda must be finite"),
        (dict(lam=float("inf")), "lambda must be finite"),
        (dict(weight_decay=float("nan")), "weight_decay must be finite"),
        (dict(weight_decay=float("inf")), "weight_decay must be finite"),
    ],
)
def test_hyperparams_validation(kwargs, match):
    with pytest.raises(SpecError, match=match):
        HyperParams(**kwargs)
