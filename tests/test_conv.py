"""Convolution, transposed convolution, and batch normalization.

The forward pass is checked against a six-loop reference convolution;
the transposed convolution against the adjoint identity
<conv(x), y> == <x, conv_T(y)> with the identical kernel array; gradients
against central differences.
"""

import numpy as np
import pytest

from ecgan import tensor as T
from ecgan.errors import ContractError, ShapeError
from gradcheck import check_grads, rel_err


@pytest.fixture(autouse=True)
def _f64():
    with T.precision(np.float64):
        yield


def t(x, grad=True):
    return T.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def conv_reference(x, w, bias, stride, pad):
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for b in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, o, i, j] = np.sum(patch * w[o])
    if bias is not None:
        out += bias[None, :, None, None]
    return out


# ---------------------------------------------------------------------------
# conv2d


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 2)])
def test_conv2d_matches_reference(rng, stride, pad):
    x = rng.normal(size=(2, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=(4,))
    got = T.conv2d(t(x), t(w), t(b), stride=stride, pad=pad).data
    want = conv_reference(x, w, b, stride, pad)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-12


def test_conv2d_rectangular_kernel(rng):
    x = rng.normal(size=(1, 2, 8, 8))
    w = rng.normal(size=(3, 2, 3, 2))  # kh != kw catches axis swaps
    got = T.conv2d(t(x), t(w), stride=2, pad=1).data
    assert np.abs(got - conv_reference(x, w, None, 2, 1)).max() < 1e-12


def test_conv2d_float32_close_to_reference(rng):
    with T.precision(np.float32):
        x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), stride=2, pad=1).data
    want = conv_reference(x.astype(np.float64), w.astype(np.float64), None, 2, 1)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-5


def test_conv2d_one_by_one_identity(rng):
    x = rng.normal(size=(2, 3, 5, 5))
    eye = np.zeros((3, 3, 1, 1))
    eye[np.arange(3), np.arange(3), 0, 0] = 1.0
    out = T.conv2d(t(x), t(eye)).data
    assert np.array_equal(out, x)


def test_conv2d_output_shape_formula(rng):
    for h, k, s, p in [(8, 3, 1, 1), (8, 4, 2, 1), (9, 3, 2, 0), (16, 4, 2, 1), (7, 7, 1, 0)]:
        x = t(np.zeros((1, 1, h, h)), grad=False)
        w = t(np.zeros((1, 1, k, k)), grad=False)
        out = T.conv2d(x, w, stride=s, pad=p)
        expect = (h + 2 * p - k) // s + 1
        assert out.shape == (1, 1, expect, expect)


@pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1)])
def test_conv2d_fd_grads(rng, stride, pad):
    x = t(rng.normal(size=(2, 2, 6, 6)))
    w = t(rng.normal(size=(3, 2, 3, 3)))
    b = t(rng.normal(size=(3,)))
    check_grads(
        lambda: T.sum_all(T.tanh(T.conv2d(x, w, b, stride=stride, pad=pad))),
        [x, w, b],
        eps=1e-5,
        tol=1e-6,
    )


def test_conv2d_shape_errors(rng):
    with pytest.raises(ShapeError):
        T.conv2d(t(np.zeros((1, 2, 4, 4))), t(np.zeros((1, 3, 3, 3))))
    with pytest.raises(ShapeError):
        T.conv2d(t(np.zeros((2, 4, 4))), t(np.zeros((1, 1, 3, 3))))
    with pytest.raises(ShapeError):
        T.conv2d(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 3))))  # kernel exceeds input


# ---------------------------------------------------------------------------
# conv_transpose2d


@pytest.mark.parametrize("stride,pad,hin,k", [(1, 0, 8, 3), (2, 1, 8, 4), (2, 1, 16, 4), (1, 1, 9, 3)])
def test_conv_transpose_is_adjoint_of_conv(rng, stride, pad, hin, k):
    # the same kernel array serves both ops; true adjointness is exact
    x = t(rng.normal(size=(2, 3, hin, hin)), grad=False)
    w = rng.normal(size=(5, 3, k, k))
    ho = (hin + 2 * pad - k) // stride + 1
    y = t(rng.normal(size=(2, 5, ho, ho)), grad=False)
    lhs = float(np.sum(T.conv2d(x, t(w, grad=False), stride=stride, pad=pad).data * y.data))
    rhs = float(np.sum(x.data * T.conv_transpose2d(y, t(w, grad=False), stride=stride, pad=pad).data))
    assert rel_err(lhs, rhs) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_pad2d_equals_np_pad(rng, pad, dtype):
    x = rng.normal(size=(2, 3, 5, 4)).astype(dtype)
    got = T._pad2d(x, pad)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))))


def test_conv_transpose_output_shape_formula():
    for h, k, s, p in [(4, 4, 2, 1), (8, 4, 2, 1), (5, 3, 1, 1), (4, 4, 4, 0)]:
        x = t(np.zeros((1, 2, h, h)), grad=False)
        w = t(np.zeros((2, 3, k, k)), grad=False)
        out = T.conv_transpose2d(x, w, stride=s, pad=p)
        expect = (h - 1) * s - 2 * p + k
        assert out.shape == (1, 3, expect, expect)


def test_conv_transpose_doubles_dcgan_block(rng):
    # k=4, s=2, p=1: the upsampling block used throughout the generator
    x = t(rng.normal(size=(2, 8, 4, 4)), grad=False)
    w = t(rng.normal(size=(8, 4, 4, 4)), grad=False)
    assert T.conv_transpose2d(x, w, stride=2, pad=1).shape == (2, 4, 8, 8)


def test_conv_transpose_fd_grads(rng):
    x = t(rng.normal(size=(2, 4, 5, 5)))
    w = t(rng.normal(size=(4, 3, 4, 4)))
    b = t(rng.normal(size=(3,)))
    check_grads(
        lambda: T.sum_all(T.tanh(T.conv_transpose2d(x, w, b, stride=2, pad=1))),
        [x, w, b],
        eps=1e-5,
        tol=1e-6,
    )


def test_conv_transpose_stride_one_equals_full_correlation(rng):
    # stride 1, no pad: conv_T(x, w) == conv(pad(x, k-1), flip(w).swap-io)
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(2, 3, 3, 3))
    got = T.conv_transpose2d(t(x, grad=False), t(w, grad=False)).data
    wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).copy()
    want = T.conv2d(t(x, grad=False), t(wf, grad=False), pad=2).data
    assert np.abs(got - want).max() < 1e-12


def test_conv_transpose_shape_errors():
    with pytest.raises(ShapeError):
        T.conv_transpose2d(t(np.zeros((1, 2, 4, 4))), t(np.zeros((3, 2, 4, 4))))
    with pytest.raises(ShapeError):
        T.conv_transpose2d(t(np.zeros((1, 1, 1, 1))), t(np.zeros((1, 1, 1, 1))), pad=1)


# ---------------------------------------------------------------------------
# batchnorm2d


def _bn_state(c):
    gamma = t(np.ones(c))
    beta = t(np.zeros(c))
    rmean = T.Tensor(np.zeros(c))
    rvar = T.Tensor(np.ones(c))
    return gamma, beta, rmean, rvar


def test_batchnorm_train_normalizes(rng):
    x = t(rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5)), grad=False)
    gamma, beta, rmean, rvar = _bn_state(4)
    out = T.batchnorm2d(x, gamma, beta, rmean, rvar, training=True).data
    assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-10
    assert np.abs(out.std(axis=(0, 2, 3)) - 1.0).max() < 1e-4  # eps shifts it slightly


def test_batchnorm_running_stats_ema(rng):
    x = rng.normal(loc=1.5, scale=3.0, size=(4, 2, 3, 3))
    gamma, beta, rmean, rvar = _bn_state(2)
    T.batchnorm2d(t(x, grad=False), gamma, beta, rmean, rvar, training=True, momentum=0.1)
    count = 4 * 3 * 3
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3)) * count / (count - 1)
    assert np.allclose(rmean.data, 0.9 * 0.0 + 0.1 * mu, atol=1e-12)
    assert np.allclose(rvar.data, 0.9 * 1.0 + 0.1 * var, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 4, 5, 5), (1, 3, 4, 7), (1, 2, 1, 1), (3, 1, 2, 9)])
def test_batchnorm_train_stats_equal_numpy(rng, shape, dtype):
    x = rng.normal(loc=2.0, scale=3.0, size=shape).astype(dtype)
    c = shape[1]
    count = shape[0] * shape[2] * shape[3]
    rmean, rvar = T.Tensor(np.zeros(c, dtype)), T.Tensor(np.ones(c, dtype))
    one = T.Tensor(np.ones(c, dtype))
    zero = T.Tensor(np.zeros(c, dtype))
    out = T.batchnorm2d(T.Tensor(x), one, zero, rmean, rvar, training=True, momentum=1.0).data
    mu = x.mean(axis=(0, 2, 3))
    var = np.var(x, axis=(0, 2, 3))
    np.testing.assert_array_equal(rmean.data, mu)
    np.testing.assert_array_equal(rvar.data, var * (count / (count - 1)) if count > 1 else var)
    inv = 1.0 / np.sqrt(var + 1e-5)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, (x - mu[None, :, None, None]) * inv[None, :, None, None])


def test_batchnorm_update_flag_freezes_stats(rng):
    x = t(rng.normal(size=(4, 2, 3, 3)), grad=False)
    gamma, beta, rmean, rvar = _bn_state(2)
    before = (rmean.data.copy(), rvar.data.copy())
    T.batchnorm2d(x, gamma, beta, rmean, rvar, training=True, update_running=False)
    assert np.array_equal(rmean.data, before[0]) and np.array_equal(rvar.data, before[1])


def test_batchnorm_eval_uses_running_stats(rng):
    x = rng.normal(size=(4, 2, 3, 3))
    gamma, beta, rmean, rvar = _bn_state(2)
    rmean.data[:] = [1.0, -1.0]
    rvar.data[:] = [4.0, 0.25]
    out = T.batchnorm2d(t(x, grad=False), gamma, beta, rmean, rvar, training=False).data
    want = (x - rmean.data[None, :, None, None]) / np.sqrt(rvar.data[None, :, None, None] + 1e-5)
    assert np.allclose(out, want, atol=1e-12)


def test_batchnorm_train_fd_grads(rng):
    x = t(rng.normal(size=(4, 3, 4, 4)))
    gamma = t(rng.uniform(0.5, 1.5, 3))
    beta = t(rng.normal(size=3))
    rmean, rvar = T.Tensor(np.zeros(3)), T.Tensor(np.ones(3))
    check_grads(
        lambda: T.sum_all(
            T.tanh(T.batchnorm2d(x, gamma, beta, rmean, rvar, training=True, update_running=False))
        ),
        [x, gamma, beta],
        eps=1e-5,
        tol=1e-6,
    )


def test_batchnorm_eval_fd_grads(rng):
    x = t(rng.normal(size=(4, 3, 4, 4)))
    gamma = t(rng.uniform(0.5, 1.5, 3))
    beta = t(rng.normal(size=3))
    rmean = T.Tensor(rng.normal(size=3))
    rvar = T.Tensor(rng.uniform(0.5, 2.0, 3))
    check_grads(
        lambda: T.sum_all(T.tanh(T.batchnorm2d(x, gamma, beta, rmean, rvar, training=False))),
        [x, gamma, beta],
        eps=1e-5,
        tol=1e-6,
    )


def test_batchnorm_single_element_batch_biased_var():
    x = t(np.ones((1, 2, 1, 1)), grad=False)
    gamma, beta, rmean, rvar = _bn_state(2)
    T.batchnorm2d(x, gamma, beta, rmean, rvar, training=True)  # count == 1: no unbias factor
    assert np.allclose(rvar.data, 0.9 * 1.0 + 0.1 * 0.0, atol=1e-12)


def test_batchnorm_contract_errors(rng):
    x = t(rng.normal(size=(2, 3, 4, 4)))
    gamma, beta, rmean, rvar = _bn_state(3)
    with pytest.raises(ShapeError):
        T.batchnorm2d(x, t(np.ones(2)), beta, rmean, rvar, training=True)
    bad_mean = T.Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ContractError):
        T.batchnorm2d(x, gamma, beta, bad_mean, rvar, training=True)
    with pytest.raises(ShapeError):
        T.batchnorm2d(T.Tensor(np.zeros((2, 3, 4))), gamma, beta, rmean, rvar, training=True)
