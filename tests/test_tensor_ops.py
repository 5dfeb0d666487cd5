"""Elementwise ops, losses, and the autodiff engine itself.

Loss values are checked against 50-digit mpmath evaluations of the same
formulas; gradients against central finite differences in 64-bit.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecgan import tensor as T
from ecgan.errors import ContractError, InvalidLabelError, ShapeError
from gradcheck import check_grads, rel_err, sum_all

mpmath.mp.dps = 50


@pytest.fixture(autouse=True)
def _f64():
    with T.precision(np.float64):
        yield


def t(x, grad=True):
    return T.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# engine behavior


def test_backward_requires_scalar():
    x = t([[1.0, 2.0]])
    with pytest.raises(ContractError):
        T.backward(T.relu(x))
    # a scalar leaf is its own loss: grad 1 when it requires grad, else untouched
    leaf = t([3.0])
    T.backward(leaf)
    assert np.array_equal(leaf.grad, np.array([1.0]))
    const = t([3.0], grad=False)
    T.backward(const)
    assert const.grad is None


def test_grad_accumulates_across_calls():
    x = t([1.0, 2.0, 3.0])
    T.backward(sum_all(x))
    T.backward(sum_all(x))
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_diamond_graph_sums_both_paths():
    x = t([3.0])
    y = T.add(x, x)  # dy/dx = 2
    T.backward(sum_all(y))
    assert np.array_equal(x.grad, np.array([2.0]))


def test_shared_subexpression_fans_out():
    x = t([[1.0, -2.0], [0.5, 4.0]])
    h = T.relu(x)
    loss = T.add(sum_all(h), sum_all(T.tanh(h)))
    T.backward(loss)
    r = np.maximum(x.data, 0)
    np.testing.assert_allclose(x.grad, (x.data > 0) * (1.0 + (1.0 - np.tanh(r) ** 2)), atol=1e-15)
    assert h.grad is None  # only leaves get gradients
    check_grads(lambda: T.add(sum_all(T.relu(x)), sum_all(T.tanh(T.relu(x)))), [x], eps=1e-6, tol=1e-7)


def test_no_grad_suppresses_graph():
    x = t([1.0])
    assert T.grad_enabled()
    with T.no_grad():
        assert not T.grad_enabled()
        y = T.relu(x)
    assert T.grad_enabled()
    assert y.node is None and not y.requires_grad


def test_detach_breaks_history():
    # A tensor made of another's data, as `pseudo_label` makes one, shares
    # the data and none of its graph.
    x = t([2.0])
    z = T.relu(x)
    y = T.Tensor(z.data)
    assert y.node is None and not y.requires_grad
    assert y.data is z.data and float(y.data[0]) == 2.0  # not copied


def test_precision_context_switches_and_restores():
    assert T.default_dtype() is np.float64  # inside the autouse fixture
    with T.precision(np.float32):
        assert T.Tensor(np.zeros(2, dtype=np.int32)).data.dtype == np.float32
    assert T.default_dtype() is np.float64
    with pytest.raises(ValueError, match="float32 or float64"):
        with T.precision(np.float16):
            pass
    assert T.default_dtype() is np.float64


def test_non_float_input_cast_to_default():
    assert T.Tensor([1, 2, 3]).data.dtype == np.float64


# ---------------------------------------------------------------------------
# structural ops


def test_add_shapes_and_grads():
    a, b = t([[1.0, 2.0], [3.0, 4.0]]), t([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal(T.add(a, b).data, a.data + b.data)
    check_grads(lambda: sum_all(T.tanh(T.add(a, b))), [a, b], eps=1e-6, tol=1e-7)


def test_add_bias_broadcast():
    a, b = t(np.ones((3, 2))), t([1.0, -1.0])
    out = T.add(a, b)
    assert np.array_equal(out.data, np.array([[2.0, 0.0]] * 3))
    T.backward(sum_all(out))
    assert np.array_equal(b.grad, np.array([3.0, 3.0]))


def test_add_rejects_mismatched():
    with pytest.raises(ShapeError):
        T.add(t(np.ones((2, 3))), t(np.ones((3, 2))))


def test_scale_and_operators():
    a = t([1.0, -2.0])
    assert np.array_equal(T.scale(a, 2.0).data, [2.0, -4.0])
    with pytest.raises(TypeError):  # `scale` and `add` are the only spellings
        a * 2.0
    check_grads(lambda: sum_all(T.tanh(T.scale(a, -1.5))), [a], eps=1e-6, tol=1e-7)


def test_reshape_round_trip():
    a = t(np.arange(12.0).reshape(3, 4))
    out = T.reshape(a, (2, 6))
    assert out.shape == (2, 6)
    T.backward(sum_all(out))
    assert a.grad.shape == (3, 4)


def test_concat_channels_splits_grad():
    a, b = t(np.ones((2, 3, 4, 4))), t(np.full((2, 1, 4, 4), 2.0))
    out = T.concat_channels(a, b)
    assert out.shape == (2, 4, 4, 4)
    T.backward(sum_all(out))
    assert a.grad.shape == (2, 3, 4, 4) and b.grad.shape == (2, 1, 4, 4)
    with pytest.raises(ShapeError):
        T.concat_channels(a, t(np.ones((2, 1, 5, 5))))


def test_take_rows_scatter_adds_duplicates():
    a = t(np.arange(6.0).reshape(3, 2))
    out = T.take_rows(a, [0, 0, 2])
    assert np.array_equal(out.data, a.data[[0, 0, 2]])
    T.backward(sum_all(out))
    assert np.array_equal(a.grad, np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]))


def test_spatial_mean_value_and_grad():
    a = t(np.arange(16.0).reshape(1, 1, 4, 4))
    out = T.spatial_mean(a)
    assert out.shape == (1, 1) and float(out.data[0, 0]) == 7.5
    check_grads(lambda: sum_all(T.tanh(T.spatial_mean(a))), [a], eps=1e-6, tol=1e-7)


def test_matmul_value_and_grads(rng):
    a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 2)))
    assert np.allclose(T.matmul(a, b).data, a.data @ b.data)
    check_grads(lambda: sum_all(T.tanh(T.matmul(a, b))), [a, b], eps=1e-6, tol=1e-7)
    with pytest.raises(ShapeError):
        T.matmul(a, t(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# activations


def test_relu_leaky_values(rng):
    x = t([[-2.0, 0.0, 3.0]])
    assert np.array_equal(T.relu(x).data, [[0.0, 0.0, 3.0]])
    assert np.allclose(T.leaky_relu(x).data, [[-0.4, 0.0, 3.0]])
    a = t(rng.normal(size=(4, 5)) + 0.05)  # keep clear of the kink
    check_grads(lambda: sum_all(T.tanh(T.relu(a))), [a], eps=1e-6, tol=1e-6)
    check_grads(lambda: sum_all(T.tanh(T.leaky_relu(a))), [a], eps=1e-6, tol=1e-6)


def test_tanh_sigmoid_grads(rng):
    a = t(rng.normal(size=(3, 3)))
    check_grads(lambda: sum_all(T.tanh(a)), [a], eps=1e-6, tol=1e-7)
    check_grads(lambda: sum_all(T.sigmoid(a)), [a], eps=1e-6, tol=1e-7)


def test_sigmoid_saturated_tails():
    y = T.sigmoid(t([[-500.0, 500.0]], grad=False))
    assert np.all(np.isfinite(y.data))
    assert 0.0 < y.data[0, 0] < 1e-100
    assert y.data[0, 1] == 1.0  # rounds to 1 in finite precision, never above


def test_softmax_rows_and_shift_invariance(rng):
    x = rng.normal(size=(6, 4))
    p = T.softmax(t(x, grad=False)).data
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    q = T.softmax(t(x + 123.0, grad=False)).data
    assert np.allclose(p, q, atol=1e-12)
    with pytest.raises(ShapeError):
        T.softmax(t(np.ones((3, 1))))


@given(st.integers(0, 2**32 - 1))
def test_softmax_rows_sum_to_one(seed):
    with T.precision(np.float32):
        x = np.random.default_rng(seed).normal(scale=8.0, size=(4, 5)).astype(np.float32)
        p = T.softmax(T.Tensor(x)).data
    assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-6)
    assert p.min() >= 0.0


def test_softmax_grads(rng):
    a = t(rng.normal(size=(4, 5)))
    w = rng.normal(size=(4, 5))
    check_grads(lambda: sum_all(T.tanh(T.softmax(a))), [a], eps=1e-6, tol=1e-6)


# ---------------------------------------------------------------------------
# cross-entropy


def _ce_mpmath(z, labels):
    n, k = z.shape
    total = mpmath.mpf(0)
    for i in range(n):
        lse = mpmath.log(mpmath.fsum(mpmath.e ** mpmath.mpf(z[i, j]) for j in range(k)))
        total += lse - mpmath.mpf(z[i, labels[i]])
    return total / n


def test_cross_entropy_uniform_logits_is_log_k():
    for k in (2, 3, 10):
        loss = T.cross_entropy(t(np.zeros((4, k))), np.zeros(4, dtype=np.int64))
        assert abs(loss.item() - math.log(k)) < 1e-12


def test_cross_entropy_matches_mpmath(rng):
    z = rng.normal(scale=5.0, size=(8, 6))
    labels = rng.integers(0, 6, 8)
    got = T.cross_entropy(t(z), labels).item()
    want = float(_ce_mpmath(z, labels))
    assert rel_err(got, want) < 1e-12


def test_cross_entropy_float32_matches_mpmath(rng):
    with T.precision(np.float32):
        z = rng.normal(scale=5.0, size=(8, 6)).astype(np.float32)
        labels = rng.integers(0, 6, 8)
        got = T.cross_entropy(T.Tensor(z), labels).item()
    want = float(_ce_mpmath(z.astype(np.float64), labels))
    assert rel_err(got, want) < 1e-5


def test_cross_entropy_empty_batch_is_zero():
    loss = T.cross_entropy(t(np.zeros((0, 4))), np.zeros(0, dtype=np.int64))
    assert loss.item() == 0.0


def test_cross_entropy_grad_is_softmax_minus_onehot(rng):
    z = t(rng.normal(size=(6, 4)))
    labels = rng.integers(0, 4, 6)
    T.backward(T.cross_entropy(z, labels))
    p = T.softmax(T.Tensor(z.data)).data.copy()
    p[np.arange(6), labels] -= 1.0
    assert np.allclose(z.grad, p / 6.0, atol=1e-12)


def test_cross_entropy_fd_grads(rng):
    z = t(rng.normal(size=(5, 3)))
    labels = rng.integers(0, 3, 5)
    check_grads(lambda: T.cross_entropy(z, labels), [z], eps=1e-6, tol=1e-7)


def test_cross_entropy_rejects_bad_labels():
    z = t(np.zeros((2, 3)))
    with pytest.raises(InvalidLabelError):
        T.cross_entropy(z, np.array([0, 3]))
    with pytest.raises(InvalidLabelError):
        T.cross_entropy(z, np.array([-1, 0]))
    with pytest.raises(ShapeError):
        T.cross_entropy(z, np.array([0, 1, 2]))


# ---------------------------------------------------------------------------
# binary cross-entropy


def _bce_mpmath(z, y):
    # mean of softplus(z) - y*z over all elements, in 50-digit arithmetic
    total = mpmath.fsum(
        mpmath.log(1 + mpmath.e ** mpmath.mpf(zi)) - mpmath.mpf(yi) * mpmath.mpf(zi)
        for zi, yi in zip(np.ravel(z), np.ravel(y))
    )
    return total / np.size(z)


def test_bce_half_is_log_two():
    z = t(np.zeros((4, 1)))
    assert abs(T.bce(z, 1.0).item() - math.log(2.0)) < 1e-12
    assert abs(T.bce(z, 0.0).item() - math.log(2.0)) < 1e-12


def test_bce_logit_path_matches_mpmath(rng):
    z = rng.normal(scale=30.0, size=(8, 1))
    y = rng.integers(0, 2, (8, 1)).astype(np.float64)
    got = T.bce(t(z), y).item()
    assert rel_err(got, float(_bce_mpmath(z, y))) < 1e-12


def test_bce_float32_matches_mpmath(rng):
    with T.precision(np.float32):
        z = rng.normal(scale=3.0, size=(16, 1)).astype(np.float32)
        y = rng.integers(0, 2, (16, 1)).astype(np.float32)
        got = T.bce(T.Tensor(z), y).item()
    want = float(_bce_mpmath(z.astype(np.float64), y.astype(np.float64)))
    assert rel_err(got, want) < 1e-5


def test_bce_logit_path_saturated_is_finite(rng):
    z = t(np.array([[-200.0], [200.0]]))
    y = np.array([[1.0], [0.0]])  # the worst case: confidently wrong
    loss = T.bce(z, y)
    assert np.isfinite(loss.item()) and loss.item() > 99.0
    T.backward(loss)
    assert np.all(np.isfinite(z.grad))


def test_bce_logit_grad_is_sigmoid_minus_target(rng):
    z = t(rng.normal(scale=4.0, size=(6, 1)))
    y = rng.integers(0, 2, (6, 1)).astype(np.float64)
    T.backward(T.bce(z, y))
    s = 1.0 / (1.0 + np.exp(-z.data))
    assert np.allclose(z.grad, (s - y) / 6.0, atol=1e-12)


def test_bce_is_the_same_with_and_without_a_graph():
    # A discriminator's logits against target 1. With a graph the loss read
    # 6.84; under no_grad a clamped-probability path took over and read 5.55.
    z = np.array([[-20.0], [3.0], [0.5]])
    y = np.ones_like(z)
    recorded = t(z)
    loss = T.bce(recorded, 1.0)
    assert loss.node is not None
    T.backward(loss)
    with T.no_grad():
        unrecorded = T.bce(t(z), 1.0)
    assert unrecorded.node is None
    assert loss.item() == unrecorded.item()
    assert rel_err(loss.item(), float(_bce_mpmath(z, y))) < 1e-12
    assert abs(loss.item() - 6.84) < 0.01
    assert np.allclose(recorded.grad, (1.0 / (1.0 + np.exp(-z)) - y) / 3.0, atol=1e-12)


def test_bce_raw_fd_grads(rng):
    z = t(rng.normal(scale=2.0, size=(5, 1)))
    y = rng.integers(0, 2, (5, 1)).astype(np.float64)
    check_grads(lambda: T.bce(z, y), [z], eps=1e-6, tol=1e-7)


def test_bce_rejects_empty():
    with pytest.raises(ShapeError):
        T.bce(t(np.zeros((0, 1))), 1.0)


# ---------------------------------------------------------------------------
# rng


def test_rng_streams_are_deterministic_and_distinct():
    a = T.Rng(7, "latent").normal((4,))
    b = T.Rng(7, "latent").normal((4,))
    c = T.Rng(7, "data").normal((4,))
    d = T.Rng(8, "latent").normal((4,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_dtype_follows_default():
    with T.precision(np.float32):
        assert T.Rng(0, "x").normal((2,)).dtype == np.float32
    assert T.Rng(0, "x").normal((2,)).dtype == np.float64


# Every stream name the lab draws from.
LAB_STREAMS = [
    "data", "latent", "init/generator", "init/discriminator", "init/classifier", "init/shared",
    "generate", "subsample", "synth_shapes",
]


@pytest.mark.parametrize("seed", [0, 1, 2**53 - 1, 2**53])
def test_rng_takes_seeds_from_zero_to_two_to_the_53(seed):
    assert T.Rng(seed, "data").seed == seed


@pytest.mark.parametrize("seed", [-1, -2, 2**53 + 1, 2**63, 2**64])
def test_rng_refuses_seeds_outside_zero_to_two_to_the_53(seed):
    # -1 and -2 drew the same latent and init streams, 2**64 drew seed 0's
    # streams, and 2**53 + 1 drew 2**53's data stream.
    with pytest.raises(ContractError, match=rf"seed must be in \[0, 2\*\*53\], got {seed}"):
        T.Rng(seed, "latent")


@pytest.mark.parametrize("stream", LAB_STREAMS)
@pytest.mark.parametrize("a, b", [(0, 1), (2**53 - 1, 2**53)])
def test_neighbouring_seeds_draw_distinct_streams(stream, a, b):
    assert not np.array_equal(T.Rng(a, stream).integers(0, 2**62, 4), T.Rng(b, stream).integers(0, 2**62, 4))
