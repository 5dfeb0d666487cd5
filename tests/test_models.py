"""Network architectures: shapes, initialization, routing, and gradients."""

import gc
import weakref

import numpy as np
import pytest

from ecgan import networks as N
from ecgan import tensor as T
from ecgan.errors import ContractError, InvalidLabelError, ShapeError, SpecError
from ecgan.tensor import Rng, Tensor
from gradcheck import check_directional_grid


def spec_for(role, size=32, channels=1, k=3, width=8, conditional=False, depth=1):
    return N.NetworkSpec(
        role=role, image_size=size, channels=channels, num_classes=k,
        base_width=width, conditional=conditional, depth=depth,
    )


def build(role, seed=0, **kw):
    return N.build_network(spec_for(role, **kw), Rng(seed, f"init/{role}"))


# ---------------------------------------------------------------------------
# spec


def test_spec_validation():
    with pytest.raises(SpecError):
        spec_for("painter")
    with pytest.raises(SpecError):
        spec_for("generator", size=24)
    with pytest.raises(SpecError):
        spec_for("generator", channels=4)
    with pytest.raises(SpecError):
        spec_for("classifier", k=1)
    with pytest.raises(SpecError):
        spec_for("classifier", width=4)
    with pytest.raises(SpecError):
        spec_for("classifier", depth=0)
    with pytest.raises(SpecError):
        spec_for("classifier", conditional=True)
    with pytest.raises(SpecError):
        spec_for("shared_discriminator", conditional=True)


def test_n_halvings():
    assert spec_for("generator", size=16).n_halvings == 2
    assert spec_for("generator", size=32).n_halvings == 3
    assert spec_for("generator", size=64).n_halvings == 4


# ---------------------------------------------------------------------------
# class encoding and latents


def test_encode_class_endpoints():
    assert np.allclose(N.encode_class([0, 1], 2), [-1.0, 1.0])
    assert np.allclose(N.encode_class([0, 1, 2], 3), [-1.0, 0.0, 1.0])
    assert np.allclose(N.encode_class([0, 1, 2, 3], 4), [-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
    with pytest.raises(InvalidLabelError):
        N.encode_class([2], 2)


def test_balanced_labels_cycle():
    assert np.array_equal(N.balanced_labels(7, 3), [0, 1, 2, 0, 1, 2, 0])
    labels = N.balanced_labels(512, 3)
    counts = np.bincount(labels, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_latent_shapes_and_determinism():
    z1 = N.latent(5, Rng(3, "latent"))
    z2 = N.latent(5, Rng(3, "latent"))
    assert z1.values.shape == (5, N.LATENT_DIM)
    assert z1.conditional_class is None
    assert np.array_equal(z1.values.data, z2.values.data)


def test_conditional_latent_class_slot():
    labels = np.array([0, 1, 2, 0])
    z = N.conditional_latent(labels, 3, Rng(0, "latent"))
    codes = np.array([-1.0, 0.0, 1.0, -1.0])
    block = z.values.data[:, N.LATENT_DIM - N.CLASS_SLOTS:]
    assert np.allclose(block, np.tile(codes[:, None], (1, N.CLASS_SLOTS)))
    assert np.array_equal(z.conditional_class, labels)
    # all other coordinates stay standard-normal draws, not constants
    assert z.values.data[:, : -N.CLASS_SLOTS].std() > 0.5


# ---------------------------------------------------------------------------
# shapes and output ranges


@pytest.mark.parametrize("size", [16, 32, 64])
def test_generator_output_shape_and_range(size):
    g = build("generator", size=size)
    out = g(N.latent(3, Rng(1, "latent")))
    assert out.shape == (3, 1, size, size)
    assert out.data.min() >= -1.0 and out.data.max() <= 1.0


def test_generator_rejects_bad_latent():
    g = build("generator")
    with pytest.raises(ShapeError):
        g(Tensor(np.zeros((2, 7), dtype=np.float32)))


@pytest.mark.parametrize("size", [16, 32])
def test_discriminator_output_is_probability(size):
    d = build("discriminator", size=size)
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, (4, 1, size, size)).astype(np.float32))
    out = d(x)
    assert out.shape == (4, 1)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_classifier_logit_shape():
    c = build("classifier", k=5)
    x = Tensor(np.zeros((2, 1, 32, 32), dtype=np.float32))
    assert c.class_logits(x).shape == (2, 5)


def test_shared_discriminator_two_heads():
    sd = build("shared_discriminator", k=4)
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 1, 32, 32)).astype(np.float32))
    logits, prob = sd(x)
    assert logits.shape == (3, 4) and prob.shape == (3, 1)
    assert np.all(prob.data > 0) and np.all(prob.data < 1)
    assert np.array_equal(sd.class_logits(x).data.shape, (3, 4))


# ---------------------------------------------------------------------------
# parameters and initialization


GENERATOR_16_SHAPES = [
    ("proj.w", (100, 256)),
    ("bn0.gamma", (16,)),
    ("bn0.beta", (16,)),
    ("bn0.running_mean", (16,)),
    ("bn0.running_var", (16,)),
    ("blocks.0.conv.w", (16, 8, 4, 4)),
    ("blocks.0.bn.gamma", (8,)),
    ("blocks.0.bn.beta", (8,)),
    ("blocks.0.bn.running_mean", (8,)),
    ("blocks.0.bn.running_var", (8,)),
    ("final.w", (8, 1, 4, 4)),
    ("final.b", (1,)),
]

DISCRIMINATOR_16_SHAPES = [
    ("blocks.0.conv.w", (8, 1, 4, 4)),
    ("blocks.0.conv.b", (8,)),
    ("blocks.1.conv.w", (16, 8, 4, 4)),
    ("blocks.1.bn.gamma", (16,)),
    ("blocks.1.bn.beta", (16,)),
    ("blocks.1.bn.running_mean", (16,)),
    ("blocks.1.bn.running_var", (16,)),
    ("final.w", (1, 16, 4, 4)),
    ("final.b", (1,)),
]


def test_parameter_shapes_frozen():
    g = build("generator", size=16)
    assert [(n, t.shape) for n, t in g.parameters()] == GENERATOR_16_SHAPES
    d = build("discriminator", size=16)
    assert [(n, t.shape) for n, t in d.parameters()] == DISCRIMINATOR_16_SHAPES


def test_conv_layer_kernel_layout_and_op(monkeypatch):
    # The op is looked up on the module at call time, so a tracer that
    # rebinds `conv2d` and `conv_transpose2d` there sees both.
    ops = []
    for name in ("conv2d", "conv_transpose2d"):
        original = getattr(N, name)
        monkeypatch.setattr(N, name, lambda *a, _name=name, _op=original, **k: ops.append(_name) or _op(*a, **k))
    net = N.Network(spec_for("generator"), Rng(0, "init/conv"))
    down = N._Conv(net, "down", 2, 3, 4, 2, 1, std=0.02, bias=False)
    up = N._Conv(net, "up", 2, 3, 4, 2, 1, std=0.02, bias=True, transposed=True)
    assert down.w.shape == (3, 2, 4, 4) and up.w.shape == (2, 3, 4, 4) and up.b.shape == (3,)
    x = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
    assert down(x).shape == (1, 3, 2, 2) and up(x).shape == (1, 3, 8, 8)
    assert ops == ["conv2d", "conv_transpose2d"]


@pytest.mark.parametrize("role", ["generator", "discriminator", "classifier", "shared_discriminator"])
def test_calling_a_network_runs_the_forward_bound_on_its_class(monkeypatch, role):
    # A tracer wraps `cls.forward`; `net(x)` must run the wrapper.
    net = build(role, size=16)
    cls = type(net)
    calls = []
    original = cls.forward
    monkeypatch.setattr(cls, "forward", lambda self, *a, **k: calls.append(1) or original(self, *a, **k))
    if role == "generator":
        x = N.latent(2, Rng(0, "latent")).values
    else:
        x = Tensor(np.zeros((2, 1, 16, 16), dtype=np.float32))
    with T.no_grad():
        net(x)
    assert calls == [1]


def test_eighteen_layer_parameter_count():
    # stem + 4 stages x 2 blocks x 2 convs + fc = 18 weight layers
    c = build("classifier", channels=3, k=10, width=64, depth=2)
    total = 0
    w = 64
    total += 3 * 9 * w + 2 * w  # stem conv + affine bn
    cin = w
    for s in range(4):
        cout = w << s
        for j in range(2):
            stride2 = s > 0 and j == 0
            total += cin * 9 * cout + 2 * cout      # conv1 + bn1
            total += cout * 9 * cout + 2 * cout     # conv2 + bn2
            if stride2 or cin != cout:
                total += cin * cout + 2 * cout      # 1x1 skip + bn
            cin = cout
    total += cin * 10 + 10  # fc
    assert total == 11_173_962
    assert c.parameter_count() == total


def test_dcgan_conv_init_scale():
    g = build("generator", size=32, width=16, seed=5)
    d = build("discriminator", size=32, width=16, seed=6)
    vals = np.concatenate(
        [t.data.ravel() for n, t in list(g.parameters()) + list(d.parameters()) if n.endswith("conv.w")]
    )
    assert abs(vals.std() - 0.02) < 0.002
    assert abs(vals.mean()) < 0.002


def test_bn_gamma_init_near_one():
    d = build("discriminator", size=64, width=32, seed=7)
    gammas = np.concatenate([t.data.ravel() for n, t in d.parameters() if n.endswith(".gamma")])
    assert abs(gammas.mean() - 1.0) < 0.01
    assert 0.005 < gammas.std() < 0.04


def test_classifier_he_init_scale():
    c = build("classifier", width=64, seed=8)
    w = c._params["stage0.block0.conv1.w"]
    expect = np.sqrt(2.0 / (64 * 9))
    assert abs(w.data.std() - expect) / expect < 0.05


def test_same_seed_same_parameters():
    a, b = build("classifier", seed=4), build("classifier", seed=4)
    for (n1, t1), (n2, t2) in zip(a.parameters(), b.parameters()):
        assert n1 == n2 and np.array_equal(t1.data, t2.data)
    c = build("classifier", seed=5)
    assert any(not np.array_equal(t1.data, t2.data) for (_, t1), (_, t2) in zip(a.parameters(), c.parameters()))


def test_parameter_names_unique_and_ordered():
    sd = build("shared_discriminator")
    names = [n for n, _ in sd.parameters()]
    assert len(names) == len(set(names))
    trainable = dict(sd.trainable_parameters())
    assert not any(n.endswith(("running_mean", "running_var")) for n in trainable)


def test_state_round_trip_and_errors():
    a, b = build("generator", seed=1), build("generator", seed=2)
    b.load_state(a.state())
    for (_, t1), (_, t2) in zip(a.parameters(), b.parameters()):
        assert np.array_equal(t1.data, t2.data)
    st = a.state()
    st.pop("final.b")
    with pytest.raises(ContractError):
        b.load_state(st)
    st = a.state()
    st["bogus"] = np.zeros(1)
    with pytest.raises(ContractError):
        b.load_state(st)
    st = a.state()
    st["final.b"] = np.zeros(7)
    with pytest.raises(ShapeError):
        b.load_state(st)


def test_train_eval_mode():
    c = build("classifier")
    assert c.training and c.mode == "train"
    assert not c.eval().training
    assert c.train().training


@pytest.mark.parametrize("role", N.ROLES)
def test_network_is_freed_by_reference_counting(role):
    """No part of a network points back at it: with the cyclic GC off, a
    network goes as soon as its last reference does."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        net = build(role)
        net.eval()(Tensor(np.zeros((2, N.LATENT_DIM) if role == "generator" else (2, 1, 32, 32), np.float32)))
        ref = weakref.ref(net)
        del net
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# behavior details


def test_residual_block_reduces_to_relu_identity():
    c = build("classifier", width=8, depth=1)
    # kill the residual branch of the first (stride-1, width-preserving) block
    c._params["stage0.block0.conv2.w"].data[...] = 0.0
    block = c.stages[0][0]
    x = Tensor(np.random.default_rng(0).normal(size=(2, 8, 8, 8)).astype(np.float32))
    out = block(x, c.training, update_stats=False)
    assert np.allclose(out.data, np.maximum(x.data, 0.0), atol=1e-6)


def test_shared_discriminator_gradient_routing():
    sd = build("shared_discriminator")
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (4, 1, 32, 32)).astype(np.float32))
    logits, prob = sd(x)
    T.backward(T.cross_entropy(logits, np.array([0, 1, 2, 0])))
    gots = {n: t.grad is not None for n, t in sd.trainable_parameters()}
    assert all(gots[n] for n in sd.trunk_parameter_names() if not n.endswith(("running_mean", "running_var")))
    assert all(gots[n] for n in sd.head_parameter_names("class"))
    assert not any(gots[n] for n in sd.head_parameter_names("disc"))

    for _, t in sd.trainable_parameters():
        t.grad = None
    logits, prob = sd(x)
    T.backward(T.bce(prob, 1.0))
    gots = {n: t.grad is not None for n, t in sd.trainable_parameters()}
    assert all(gots[n] for n in sd.head_parameter_names("disc"))
    assert not any(gots[n] for n in sd.head_parameter_names("class"))


def test_shared_trunk_matches_discriminator_trunk_size():
    sd = build("shared_discriminator", size=32, width=16)
    d = build("discriminator", size=32, width=16)
    trunk = sum(sd._params[n].size for n in sd.trunk_parameter_names() if sd._params[n].requires_grad)
    dtrunk = sum(t.size for n, t in d.trainable_parameters() if not n.startswith("final"))
    assert trunk == dtrunk == 41_424


def test_shared_trunk_equals_discriminator_blocks():
    # One trunk builder: same seed and stream give the same arrays, name for name.
    d = N.build_network(spec_for("discriminator"), Rng(7, "init/same"))
    sd = N.build_network(spec_for("shared_discriminator"), Rng(7, "init/same"))
    blocks = {n[len("blocks."):]: t for n, t in d.parameters() if n.startswith("blocks.")}
    trunk = {n[len("trunk."):]: t for n, t in sd.parameters() if n.startswith("trunk.")}
    assert list(blocks) == list(trunk) and len(blocks) == 12
    for name, t in blocks.items():
        np.testing.assert_array_equal(t.data, trunk[name].data, err_msg=name)


def test_conditional_discriminator_label_channel():
    d = build("discriminator", conditional=True)
    x = Tensor(np.random.default_rng(2).uniform(-1, 1, (3, 1, 32, 32)).astype(np.float32))
    out0 = d(x, labels=np.array([0, 0, 0]))
    out1 = d(x, labels=np.array([2, 2, 2]))
    assert not np.allclose(out0.data, out1.data)  # the label plane must matter
    with pytest.raises(ContractError):
        d(x)
    with pytest.raises(ShapeError):
        d(x, labels=np.array([0, 1]))
    du = build("discriminator")
    with pytest.raises(ContractError):
        du(x, labels=np.array([0, 1, 2]))


def test_conditional_generator_uses_class_slot():
    g = build("generator", conditional=True)
    za = N.conditional_latent(np.array([0, 0]), 3, Rng(5, "latent"))
    zb = N.conditional_latent(np.array([2, 2]), 3, Rng(5, "latent"))
    assert not np.allclose(g(za).data, g(zb).data)


def test_generator_eval_uses_running_stats():
    g = build("generator")
    z = N.latent(2, Rng(0, "latent"))
    g.eval()
    a = g(z).data.copy()
    b = g(z).data.copy()
    assert np.array_equal(a, b)  # eval forward is a pure function


def test_update_stats_flag_isolates_state():
    d = build("discriminator")
    x = Tensor(np.random.default_rng(3).uniform(-1, 1, (4, 1, 32, 32)).astype(np.float32))
    before = {n: t.data.copy() for n, t in d.parameters() if "running" in n}
    d(x, update_stats=False)
    for n, t in d.parameters():
        if "running" in n:
            assert np.array_equal(t.data, before[n])
    d(x)  # default updates
    assert any(
        not np.array_equal(t.data, before[n]) for n, t in d.parameters() if "running" in n
    )


# ---------------------------------------------------------------------------
# eval-mode batch norm folded into the conv before it


def _off_init_stats(net, seed):
    """Move every batch norm's affine and running statistics off their init,
    so that folding them into a conv is not the identity."""
    rng = np.random.default_rng(seed)
    for name, t in net.parameters():
        if name.endswith(("gamma", "running_var")):
            t.data[...] = rng.uniform(0.5, 2.0, t.shape)
        elif name.endswith(("beta", "running_mean")):
            t.data[...] = rng.normal(0.0, 0.3, t.shape)
    return net.eval()


def _conv_then_bn(conv, bn, x):
    return T.batchnorm2d(T.conv2d(x, conv.w, conv.b, stride=conv.stride, pad=conv.pad),
                         bn.gamma, bn.beta, bn.rm, bn.rv, training=False)


def _unfolded_classifier(c, x):
    """The classifier's eval forward written out as conv2d -> batchnorm2d."""
    h = T.relu(_conv_then_bn(c.stem, c.stem_bn, x))
    for blocks in c.stages:
        for b in blocks:
            r = _conv_then_bn(b.conv2, b.bn2, T.relu(_conv_then_bn(b.conv1, b.bn1, h)))
            h = T.relu(T.add(r, h if b.proj is None else _conv_then_bn(b.proj, b.proj_bn, h)))
    return c.fc(T.spatial_mean(h))


def _count_batchnorm_calls(monkeypatch):
    """A list that grows by one for each batch norm the networks run from now on."""
    calls = []
    original = N.batchnorm2d

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(N, "batchnorm2d", counted)
    return calls


@pytest.mark.parametrize("role,conditional", [
    ("classifier", False), ("shared_discriminator", False), ("discriminator", False), ("discriminator", True),
])
def test_eval_fold_matches_conv_then_batchnorm(monkeypatch, role, conditional):
    net = _off_init_stats(build(role, width=16, conditional=conditional), seed=1)
    x = Tensor(np.random.default_rng(2).normal(size=(8, 1, 32, 32)).astype(np.float32))
    kwargs = {"labels": np.arange(8) % 3} if conditional else {}

    def outputs():
        out = net(x, **kwargs)
        return [o.data for o in (out if isinstance(out, tuple) else (out,))]

    unfolded = outputs()  # an eval forward that records a graph does not fold
    calls = _count_batchnorm_calls(monkeypatch)
    with T.no_grad():
        folded = outputs()
    assert calls == []
    for a, b in zip(folded, unfolded):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)
    if role != "discriminator":
        np.testing.assert_array_equal(folded[0].argmax(axis=1), unfolded[0].argmax(axis=1))
    if role == "classifier":
        with T.no_grad():
            np.testing.assert_allclose(folded[0], _unfolded_classifier(net, x).data, rtol=1e-5, atol=1e-5)


def test_eval_fold_reads_the_current_parameters():
    c = _off_init_stats(build("classifier"), seed=3)
    x = Tensor(np.random.default_rng(4).normal(size=(4, 1, 32, 32)).astype(np.float32))
    with T.no_grad():
        before = c(x).data.copy()
        c.stem_bn.gamma.data[0] *= 3.0
        after_gamma = c(x).data.copy()
        c.stages[1][0].bn2.rv.data[:] *= 4.0
        after_var = c(x).data.copy()
        unfolded = _unfolded_classifier(c, x).data
    assert not np.allclose(before, after_gamma) and not np.allclose(after_gamma, after_var)
    np.testing.assert_allclose(after_var, unfolded, rtol=1e-5, atol=1e-5)


def test_eval_fold_carries_a_conv_bias():
    net = N.Network(spec_for("discriminator"))
    net._init_rng = Rng(0, "init/fold")
    conv = N._Conv(net, "conv", 2, 3, 3, 1, 1, std=0.5, bias=True)
    bn = N._Bn(net, "bn", 3)
    _off_init_stats(net, seed=5)
    conv.b.data[...] = [0.5, -1.0, 2.0]
    x = Tensor(np.random.default_rng(6).normal(size=(2, 2, 5, 5)).astype(np.float32))
    with T.no_grad():
        folded = N._conv_bn(conv, bn, x, training=False)
        np.testing.assert_allclose(folded.data, _conv_then_bn(conv, bn, x).data, rtol=1e-5, atol=1e-5)


def test_eval_forward_with_a_graph_keeps_conv_then_batchnorm_gradients():
    c = _off_init_stats(build("classifier", size=16), seed=7)
    x = Tensor(np.random.default_rng(8).normal(size=(4, 1, 16, 16)).astype(np.float32))
    labels = np.array([0, 1, 2, 1])
    params = [t for _, t in c.trainable_parameters()]
    grads = []
    for forward in (c, lambda x: _unfolded_classifier(c, x)):
        for p in params:
            p.grad = None
        T.backward(T.cross_entropy(forward(x), labels))
        grads.append([p.grad for p in params])
    for (name, _), a, b in zip(c.trainable_parameters(), *grads):
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_generator_eval_is_not_folded(monkeypatch):
    g = _off_init_stats(build("generator"), seed=9)
    z = N.latent(4, Rng(0, "latent")).values
    calls = _count_batchnorm_calls(monkeypatch)
    with T.no_grad():
        out = g(z).data
        h = T.relu(T.batchnorm2d(T.reshape(g.proj(z), (4, g.w0, 4, 4)), g.bn0.gamma, g.bn0.beta,
                                 g.bn0.rm, g.bn0.rv, training=False))
        for conv, bn in g.blocks:
            h = T.relu(T.batchnorm2d(conv(h), bn.gamma, bn.beta, bn.rm, bn.rv, training=False))
        expected = T.tanh(g.final(h)).data
    assert len(calls) == 1 + len(g.blocks)
    np.testing.assert_array_equal(out, expected)


# ---------------------------------------------------------------------------
# whole-network gradients (32-bit, directional)


def test_generator_16_directional_grads():
    g = build("generator", size=16)
    z = N.latent(4, Rng(2, "latent"))
    params = [t for _, t in g.trainable_parameters()]
    check_directional_grid(lambda: T.sum_all(T.tanh(g(z, update_stats=False))), params, seed=2)


def test_discriminator_16_directional_grads():
    d = build("discriminator", size=16)
    x = Tensor(np.random.default_rng(4).uniform(-1, 1, (4, 1, 16, 16)).astype(np.float32))
    params = [t for _, t in d.trainable_parameters()]
    check_directional_grid(lambda: T.sum_all(d(x, update_stats=False)), params, seed=4)


def test_classifier_directional_grads():
    c = build("classifier", size=16, width=8)
    x = Tensor(np.random.default_rng(5).uniform(-1, 1, (4, 1, 16, 16)).astype(np.float32))
    labels = np.array([0, 1, 2, 1])
    params = [t for _, t in c.trainable_parameters()]
    check_directional_grid(lambda: T.cross_entropy(c(x, update_stats=False), labels), params, seed=5)


def test_shared_discriminator_directional_grads():
    sd = build("shared_discriminator", size=16)
    x = Tensor(np.random.default_rng(6).uniform(-1, 1, (4, 1, 16, 16)).astype(np.float32))
    labels = np.array([0, 1, 2, 1])
    params = [t for _, t in sd.trainable_parameters()]

    def build_loss():
        logits, prob = sd(x, update_stats=False)
        return T.add(T.cross_entropy(logits, labels), T.sum_all(prob))

    check_directional_grid(build_loss, params, seed=6)
