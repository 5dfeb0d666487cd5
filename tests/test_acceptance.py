"""End-to-end acceptance checks: exact oracles, invariants, directional study.

One test per numbered criterion, in order; each prints a single
``CRITERION n PASS/FAIL`` line (visible under ``pytest -s`` or in failure
output) with the measured values next to their tolerances. The synthetic
study protocol (criteria 5-8) shares one session-scoped run cache: its 21
(variant, lambda, seed) cells train once, up front, on every usable core;
the ecgan cells at lambda 0.1 and 1.0 of a seed share one GAN half.
"""

import json
import math
import os
import struct
import time
from types import SimpleNamespace

import numpy as np
import pytest

import ecgan.data as D
import ecgan.tensor as T
from ecgan import pgm
from ecgan.checkpoint import load_checkpoint, save_checkpoint
from ecgan.data import load_idx, synth_shapes, write_idx
from ecgan.errors import FormatError
from ecgan.config import ExperimentConfig
from ecgan.harness import Cell, cmd_generate, cmd_train, run_cells
from ecgan.networks import (
    LATENT_DIM,
    NetworkSpec,
    balanced_labels,
    build_network,
    conditional_latent,
    latent,
)
from ecgan.optim import Adam
from ecgan.tensor import Rng, Tensor, no_grad
from ecgan.training import (
    HyperParams,
    classifier_step,
    discriminator_step,
    generator_step,
    pseudo_label,
    train,
)
from gradcheck import check_directional_grid

# Study protocol: 200 labeled train / 500 test at 32px, K=3, 15 epochs,
# other hyperparameters at their defaults. Data seeds are disjoint from
# training seeds so reseeding the model never touches the corpus.
PROTOCOL = dict(classes=3, size=32, noise_sigma=0.105, train_seed=100, test_seed=101)
SEEDS = (0, 1, 2, 3, 4)


def report(num, ok, detail):
    print(f"\nCRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient suite


def _rand(rng, *shape):
    return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)


def _op_cases(rng, i):
    """(name, build, leaves) for every differentiable op, one random instance."""
    cases = []

    a = _rand(rng, 5, 7)
    b = _rand(rng, 5, 7)
    cases.append(("add", lambda: T.sum_all(T.tanh(T.add(a, b))), [a, b]))

    c = _rand(rng, 6, 6)
    cases.append(("scale", lambda: T.sum_all(T.tanh(T.scale(c, -1.7))), [c]))

    d = _rand(rng, 4, 9)
    cases.append(("sum_all", lambda: T.sum_all(T.tanh(d)), [d]))

    e = _rand(rng, 4, 6)
    cases.append(("reshape", lambda: T.sum_all(T.tanh(T.reshape(e, (3, 8)))), [e]))

    f = _rand(rng, 2, 3, 4, 4)
    g = _rand(rng, 2, 2, 4, 4)
    cases.append(("concat_channels", lambda: T.sum_all(T.tanh(T.concat_channels(f, g))), [f, g]))

    h = _rand(rng, 10, 5)
    rows = rng.integers(0, 10, size=6)
    cases.append(("take_rows", lambda: T.sum_all(T.tanh(T.take_rows(h, rows))), [h]))

    m = _rand(rng, 3, 4, 6, 6)
    cases.append(("spatial_mean", lambda: T.sum_all(T.tanh(T.spatial_mean(m))), [m]))

    r = _rand(rng, 5, 5)
    cases.append(("relu", lambda: T.sum_all(T.tanh(T.relu(r))), [r]))

    lr = _rand(rng, 5, 5)
    cases.append(("leaky_relu", lambda: T.sum_all(T.tanh(T.leaky_relu(lr, 0.2))), [lr]))

    th = _rand(rng, 4, 6)
    cases.append(("tanh", lambda: T.sum_all(T.tanh(th)), [th]))

    sg = _rand(rng, 4, 6)
    cases.append(("sigmoid", lambda: T.sum_all(T.tanh(T.sigmoid(sg))), [sg]))

    sm = _rand(rng, 6, 4)
    cases.append(("softmax", lambda: T.sum_all(T.tanh(T.softmax(sm))), [sm]))

    ce = _rand(rng, 8, 5)
    labels = rng.integers(0, 5, size=8)
    cases.append(("cross_entropy", lambda: T.cross_entropy(ce, labels), [ce]))

    bc = _rand(rng, 6, 1)
    cases.append(("bce", lambda: T.bce(T.sigmoid(bc), float(i % 2)), [bc]))

    ma = _rand(rng, 6, 7)
    mb = _rand(rng, 7, 5)
    cases.append(("matmul", lambda: T.sum_all(T.tanh(T.matmul(ma, mb))), [ma, mb]))

    stride, pad = 1 + i % 2, i % 2
    cx = _rand(rng, 2, 3, 8, 8)
    cw = _rand(rng, 4, 3, 3, 3)
    cb = _rand(rng, 4)
    cases.append((
        "conv2d",
        lambda: T.sum_all(T.tanh(T.conv2d(cx, cw, cb, stride=stride, pad=pad))),
        [cx, cw, cb],
    ))

    tx = _rand(rng, 2, 4, 4, 4)
    tw = _rand(rng, 4, 3, 4, 4)
    tb = _rand(rng, 3)
    cases.append((
        "conv_transpose2d",
        lambda: T.sum_all(T.tanh(T.conv_transpose2d(tx, tw, tb, stride=2, pad=1))),
        [tx, tw, tb],
    ))

    bx = _rand(rng, 4, 3, 6, 6)
    gamma = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    rm = Tensor(np.zeros(3, dtype=np.float32))
    rv = Tensor(np.ones(3, dtype=np.float32))
    cases.append((
        "batchnorm2d",
        lambda: T.sum_all(T.tanh(T.batchnorm2d(
            bx, gamma, beta, rm, rv, training=True, update_running=False))),
        [bx, gamma, beta],
    ))

    return cases


def test_criterion_1_gradient_suite():
    t0 = time.time()
    instances = 10
    worst = {}
    # Op graphs are tiny, so the f32 rounding floor on the loss dominates at
    # small steps; a coarser eps grid keeps the FD quotient well-conditioned
    # while truncation stays ~1e-6 for these smooth scalar readouts.
    for i in range(instances):
        for name, build, leaves in _op_cases(np.random.default_rng(1000 + i), i):
            err = check_directional_grid(build, leaves, eps_grid=(1e-3, 3e-4, 1e-4), tol=1e-3, seed=i)
            worst[name] = max(worst.get(name, 0.0), err)

    common = dict(image_size=16, channels=1, num_classes=3, base_width=8)
    for i in range(instances):
        gen = build_network(NetworkSpec(role="generator", **common), Rng(i, "init/g"))
        z = latent(4, Rng(100 + i, "latent"))
        params = [p for _, p in gen.trainable_parameters()]
        err = check_directional_grid(
            lambda: T.sum_all(T.tanh(gen(z, update_stats=False))), params, tol=1e-3, seed=i)
        worst["generator16"] = max(worst.get("generator16", 0.0), err)

        dis = build_network(NetworkSpec(role="discriminator", **common), Rng(i, "init/d"))
        x = Tensor(np.random.default_rng(200 + i).uniform(-1, 1, (4, 1, 16, 16)).astype(np.float32))
        params = [p for _, p in dis.trainable_parameters()]
        err = check_directional_grid(
            lambda: T.sum_all(dis(x, update_stats=False)), params, tol=1e-3, seed=i)
        worst["discriminator16"] = max(worst.get("discriminator16", 0.0), err)

        cls = build_network(NetworkSpec(role="classifier", depth=1, **common), Rng(i, "init/c"))
        y = np.random.default_rng(300 + i).integers(0, 3, size=4)
        params = [p for _, p in cls.trainable_parameters()]
        err = check_directional_grid(
            lambda: T.cross_entropy(cls(x, update_stats=False), y), params, tol=1e-3, seed=i)
        worst["classifier_d1"] = max(worst.get("classifier_d1", 0.0), err)

    elapsed = time.time() - t0
    worst_err = max(worst.values())
    worst_name = max(worst, key=worst.get)
    report(
        1,
        worst_err < 1e-3 and elapsed < 120,
        f"{len(worst) - 3} ops + 3 networks x {instances} instances, worst rel err "
        f"{worst_err:.2e} ({worst_name}) < 1e-3, {elapsed:.0f}s < 120s",
    )


# ---------------------------------------------------------------------------
# criterion 2: closed-form loss identities


def _zero_final(net):
    params = dict(net.parameters())
    for name in ("final.w", "final.b", "fc.w", "fc.b"):
        if name in params:
            params[name].data[...] = 0.0


def test_criterion_2_loss_identities():
    common = dict(image_size=16, channels=1, num_classes=3, base_width=8)
    hp = HyperParams(batch_size=8, base_width=8)
    ds = synth_shapes(4, 3, 16, noise_sigma=0.1, seed=9)
    real = Tensor(D.normalize(ds.images[:8]))
    rng = Rng(0, "latent")

    gen = build_network(NetworkSpec(role="generator", **common), Rng(0, "init/g"))
    dis = build_network(NetworkSpec(role="discriminator", **common), Rng(0, "init/d"))
    _zero_final(dis)  # sigmoid(0) = 0.5 for every input
    opt_d = Adam(dis.trainable_parameters(), hp.lr_d, betas=(0.5, 0.999))
    loss_d = discriminator_step(dis, gen, real, opt_d, rng)

    _zero_final(dis)  # the D step above moved its params; re-pin D(x)=0.5
    opt_g = Adam(gen.trainable_parameters(), hp.lr_g, betas=(0.5, 0.999))
    loss_g = generator_step(gen, dis, 8, opt_g, rng)

    ln_k = {}
    for k in (2, 3, 5):
        logits = Tensor(np.zeros((7, k), dtype=np.float32))
        labels = np.arange(7, dtype=np.int64) % k
        ln_k[k] = float(T.cross_entropy(logits, labels).item())

    d_err = abs(loss_d - 2.0 * math.log(2.0))
    g_err = abs(loss_g - math.log(2.0))
    ce_err = max(abs(ln_k[k] - math.log(k)) for k in ln_k)
    report(
        2,
        d_err < 1e-4 and g_err < 1e-4 and ce_err < 1e-5,
        f"L_D={loss_d:.6f} (|err|={d_err:.1e} < 1e-4), L_G={loss_g:.6f} "
        f"(|err|={g_err:.1e} < 1e-4), uniform-logit CE off ln K by {ce_err:.1e} < 1e-5",
    )


# ---------------------------------------------------------------------------
# criterion 3: lambda = 0 degenerates to supervised training


def test_criterion_3_lambda_zero_equivalence():
    ds = synth_shapes(8, 3, 16, noise_sigma=0.1, seed=5)
    kw = dict(lam=0.0, epochs=3, batch_size=8, base_width=8, depth=1, seed=7)
    res_ec = train("ecgan", ds, HyperParams(**kw))
    res_sup = train("baseline", ds, HyperParams(**kw))

    sup = dict(res_sup.networks["classifier"].parameters())
    max_abs = max(
        float(np.max(np.abs(p.data.astype(np.float64) - sup[n].data.astype(np.float64))))
        for n, p in res_ec.networks["classifier"].parameters()
    )
    report(3, max_abs <= 1e-6, f"max |ecgan(lambda=0) - supervised| = {max_abs:.1e} <= 1e-6")


# ---------------------------------------------------------------------------
# criterion 4: pseudo-label brute-force oracle


def _row_oracle(row, threshold):
    """Keep/label decision for one logit row, in plain python floats."""
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    total = sum(exps)
    probs = [v / total for v in exps]
    best = max(probs)
    keep = best > threshold
    return keep, probs.index(best)


def test_criterion_4_pseudo_label_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    for k, rows, spread in ((2, 300, 0.5), (3, 400, 2.0), (5, 300, 8.0)):
        logits = (rng.normal(size=(rows, k)) * spread).astype(np.float32)
        ties = rng.choice(rows, size=rows // 20, replace=False)
        logits[ties, 1 % k] = logits[ties, 0]  # exact ties resolve to lowest index
        for t in (0.3, 0.6, 0.9):
            res = pseudo_label(logits, t)
            kept = {int(i): int(l) for i, l in zip(res.kept_indices, res.kept_labels)}
            for r in range(rows):
                keep, label = _row_oracle([float(v) for v in logits[r]], t)
                assert keep == (r in kept), f"row {r} keep mismatch at t={t}, K={k}"
                if keep:
                    assert kept[r] == label, f"row {r} label mismatch at t={t}, K={k}"
        checked += rows

    grid = [round(0.1 * j, 1) for j in range(11)]
    logits = (rng.normal(size=(1000, 3)) * 2.0).astype(np.float32)
    counts = [len(pseudo_label(logits, t).kept_indices) for t in grid]
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))
    report(
        4,
        checked == 1000 and monotone,
        f"{checked} rows x 3 thresholds match the row oracle exactly; keep counts "
        f"{counts[0]}->{counts[-1]} non-increasing over t in {{0,0.1,...,1.0}}",
    )


# ---------------------------------------------------------------------------
# criteria 5-8: the synthetic study protocol (shared run cache)


# The 21 protocol cells: (variant, lambda) per seed, plus one conditional run.
PROTOCOL_CELLS = [
    Cell(variant, 100, lam, seed)
    for seed in SEEDS
    for variant, lam in (("baseline", 0.0), ("ecgan", 0.1), ("shared", 0.1), ("ecgan", 1.0))
] + [Cell("ecgan_conditional", 100, 0.1, 0)]


@pytest.fixture(scope="session")
def protocol():
    p = PROTOCOL
    train_ds = synth_shapes(67, p["classes"], p["size"], p["noise_sigma"],
                            seed=p["train_seed"]).subset(range(200))
    test_ds = synth_shapes(167, p["classes"], p["size"], p["noise_sigma"],
                           seed=p["test_seed"]).subset(range(500))
    cfg = ExperimentConfig(hyperparams={"epochs": 15})  # HyperParams(lam, epochs=15, seed) per cell
    results = run_cells(cfg, train_ds, test_ds, PROTOCOL_CELLS)
    cache = {(c.variant, c.lam, c.seed): r for c, r in zip(PROTOCOL_CELLS, results)}
    wall = {key: r.seconds for key, r in cache.items()}

    def run(variant, lam, seed):
        return cache[(variant, lam, seed)]

    def final_acc(variant, lam, seed):
        return run(variant, lam, seed).history[-1]["test_acc"]

    return SimpleNamespace(run=run, acc=final_acc, wall=wall, test_ds=test_ds)


def test_criterion_5_directional_study(protocol):
    base = [protocol.acc("baseline", 0.0, s) for s in SEEDS]
    ec = [protocol.acc("ecgan", 0.1, s) for s in SEEDS]
    elapsed = sum(
        protocol.wall[(v, l, s)] for s in SEEDS for v, l in (("baseline", 0.0), ("ecgan", 0.1))
    )
    deltas = [e - b for e, b in zip(ec, base)]
    ok = (
        float(np.mean(ec)) >= float(np.mean(base))
        and float(np.median(deltas)) > 0.0
        and elapsed < 900
    )
    report(
        5,
        ok,
        f"mean acc ecgan {np.mean(ec):.4f} >= baseline {np.mean(base):.4f}, "
        f"median delta {np.median(deltas):+.4f} > 0 "
        f"(per-seed {['%+.3f' % d for d in deltas]}), {elapsed:.0f}s < 900s",
    )


def test_criterion_6_shared_architecture(protocol):
    ec = [protocol.acc("ecgan", 0.1, s) for s in SEEDS]
    shared = [protocol.acc("shared", 0.1, s) for s in SEEDS]
    ok = float(np.mean(ec)) >= float(np.mean(shared)) - 0.01
    report(
        6,
        ok,
        f"mean acc ecgan {np.mean(ec):.4f} >= shared {np.mean(shared):.4f} - 0.01",
    )


def test_criterion_7_lambda_sweep_shape(protocol):
    # lambda=0 trains identically to the baseline (criterion 3), so its
    # accuracy column reuses the cached baseline runs.
    lam0 = [protocol.acc("baseline", 0.0, s) for s in SEEDS]
    lam01 = [protocol.acc("ecgan", 0.1, s) for s in SEEDS]
    lam10 = [protocol.acc("ecgan", 1.0, s) for s in SEEDS]
    ok = float(np.mean(lam01)) > float(np.mean(lam0)) and float(np.mean(lam01)) > float(
        np.mean(lam10)
    )
    report(
        7,
        ok,
        f"mean acc lambda=0.1 {np.mean(lam01):.4f} > lambda=0 {np.mean(lam0):.4f} "
        f"and > lambda=1.0 {np.mean(lam10):.4f}",
    )


def test_criterion_8_conditional_balance(protocol):
    res = protocol.run("ecgan_conditional", 0.1, 0)
    gen = res.networks["generator"]
    cls = res.networks["classifier"]
    k = PROTOCOL["classes"]
    labels = balanced_labels(512, k)
    lv = conditional_latent(labels, k, Rng(512, "generate"))
    cls.mode = "eval"
    with no_grad():
        images = gen(lv, update_stats=False)
        logits = cls(images, update_stats=False)
    cls.mode = "train"
    freq = np.bincount(logits.data.argmax(axis=1), minlength=k) / 512.0
    spread = float(np.max(np.abs(freq - 1.0 / k)))
    report(
        8,
        spread <= 0.15,
        f"class frequencies {[round(float(f), 3) for f in freq]} within +/-15pp of uniform "
        f"(max dev {spread:.3f})",
    )


# ---------------------------------------------------------------------------
# criterion 9: byte-identical metrics from identical configs


def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "runs"
    cfg = {
        "dataset": {"source": "synth", "train_per_class": 4, "test_per_class": 4,
                     "classes": 3, "size": 16, "noise_sigma": 0.1, "data_seed": 3},
        "variant": "ecgan",
        "hyperparams": {"epochs": 2, "batch_size": 8, "base_width": 8, "depth": 1},
        "seeds": [0],
        "output_dir": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    cmd_train(str(cfg_path))
    first = (out / "metrics.csv").read_bytes()
    cmd_train(str(cfg_path))
    second = (out / "metrics.csv").read_bytes()
    report(9, first == second and len(first) > 0,
           f"two identical-config runs produced byte-identical metrics.csv ({len(first)} bytes)")


# ---------------------------------------------------------------------------
# criterion 10: format round-trips and rejections


def _good_idx(tmp_path, n=4, size=8):
    rng = np.random.default_rng(0)
    images = rng.uniform(0, 1, (n, 1, size, size)).astype(np.float32)
    labels = rng.integers(0, 3, size=n).astype(np.int64)
    ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    write_idx(ip, lp, images, labels)
    return ip, lp


def test_criterion_10_format_round_trips(tmp_path):
    # (a) checkpoint round trip is bit-exact, parameters and running statistics
    common = dict(image_size=16, channels=1, num_classes=3, base_width=8)
    gen = build_network(NetworkSpec(role="generator", **common), Rng(3, "init/g"))
    cls = build_network(NetworkSpec(role="classifier", depth=1, **common), Rng(3, "init/c"))
    with no_grad():
        gen(latent(4, Rng(8, "latent")))  # move BN running stats off init
    ck_path = str(tmp_path / "round.ckpt")
    save_checkpoint(ck_path, {"generator": gen, "classifier": cls})
    ck = load_checkpoint(ck_path)
    bit_exact = True
    for key, net in (("generator", gen), ("classifier", cls)):
        rebuilt = ck.build(key)
        for (name, p), (name2, q) in zip(net.parameters(), rebuilt.parameters()):
            bit_exact &= name == name2 and p.data.tobytes() == q.data.tobytes()

    # (b) the five canonical malformed IDX files raise the documented errors
    rejected = []
    ip, lp = _good_idx(tmp_path)
    ibuf, lbuf = open(ip, "rb").read(), open(lp, "rb").read()
    bad = tmp_path / "bad"
    bad.mkdir()

    def expect(name, ibytes, lbytes, match):
        i_path, l_path = str(bad / f"{name}.img"), str(bad / f"{name}.lab")
        open(i_path, "wb").write(ibytes)
        open(l_path, "wb").write(lbytes)
        try:
            load_idx(i_path, l_path)
        except FormatError as e:
            rejected.append((name, match in str(e)))
        else:
            rejected.append((name, False))

    expect("image-magic", b"\x00\x00\x08\x01" + ibuf[4:], lbuf, "bad image magic")
    expect("truncated-header", ibuf[:10], lbuf, "truncated image header")
    expect("truncated-pixels", ibuf[:-5], lbuf, "truncated pixel data")
    expect("label-magic", ibuf, b"\x00\x00\x08\x03" + lbuf[4:], "bad label magic")
    expect("count-mismatch", ibuf,
           lbuf[:4] + struct.pack(">I", 9) + lbuf[8:], "count mismatch")
    idx_ok = all(flag for _, flag in rejected) and len(rejected) == 5

    # (c) a generated color grid parses under the P6 grammar
    gen3 = build_network(
        NetworkSpec(role="generator", image_size=16, channels=3, num_classes=3, base_width=8),
        Rng(5, "init/g"),
    )
    ck3 = str(tmp_path / "gen3.ckpt")
    save_checkpoint(ck3, {"generator": gen3})
    grid_path = str(tmp_path / "grid.ppm")
    cmd_generate(ck3, 9, grid_path, seed=1)
    magic = open(grid_path, "rb").read(2)
    grid = pgm.read_image(grid_path)
    ppm_ok = magic == b"P6" and grid.shape == (48, 48, 3) and grid.dtype == np.uint8

    report(
        10,
        bit_exact and idx_ok and ppm_ok,
        f"checkpoint bit-exact={bit_exact}, IDX rejections "
        f"{[name for name, flag in rejected if flag]}, P6 grid {grid.shape} parsed",
    )
