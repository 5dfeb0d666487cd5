"""Convolution, transposed convolution, and batch normalization.

The forward pass is checked against a six-loop reference convolution;
the transposed convolution against the adjoint identity
<conv(x), y> == <x, conv_T(y)> with the identical kernel array; gradients
against central differences.
"""

import itertools

import numpy as np
import pytest

from ecgan import tensor as T
from ecgan.errors import ContractError, ShapeError
from gradcheck import check_grads, rel_err, sum_all


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
        lambda: sum_all(T.tanh(T.conv2d(x, w, b, stride=stride, pad=pad))),
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


@pytest.mark.parametrize("stride,pad,k", [(2, 1, 4), (1, 1, 3)])
def test_conv_input_gradients_are_each_others_forward(rng, stride, pad, k):
    # conv2d's input gradient is conv_transpose2d of the upstream gradient with
    # the same kernel, and the other way round, bit for bit in float32, at the
    # lab's stride-2/pad-1 (DCGAN, k=4) and stride-1/pad-1 (residual, k=3) shapes.
    def f32(a, grad=False):
        return T.Tensor(a.astype(np.float32), requires_grad=grad)

    w = f32(rng.normal(size=(5, 3, k, k)))
    x = f32(rng.normal(size=(2, 3, 16, 16)), grad=True)
    out = T.conv2d(x, w, stride=stride, pad=pad)
    g = rng.normal(size=out.shape).astype(np.float32)
    gx = out.node.backward_fn(g)[0]
    assert gx.shape == x.shape
    np.testing.assert_array_equal(gx, T.conv_transpose2d(f32(g), w, stride=stride, pad=pad).data)

    y = f32(rng.normal(size=out.shape), grad=True)
    out_t = T.conv_transpose2d(y, w, stride=stride, pad=pad)
    g_t = rng.normal(size=out_t.shape).astype(np.float32)
    gy = out_t.node.backward_fn(g_t)[0]
    assert gy.shape == y.shape
    np.testing.assert_array_equal(gy, T.conv2d(f32(g_t), w, stride=stride, pad=pad).data)


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
        lambda: sum_all(T.tanh(T.conv_transpose2d(x, w, b, stride=2, pad=1))),
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
# the flat patch layout of `_conv`


@pytest.fixture(scope="module")
def network_conv_shapes():
    """(op, input shape without the batch, kernel shape, stride, pad) of every
    conv the four networks run, conditional or not, at image sizes 16 and 32
    and 1 and 3 channels."""
    from ecgan import networks as N

    shapes = set()
    conv = T._conv

    def record(op, x, w, bias, stride, pad):
        shapes.add((op, x.shape[1:], w.shape, stride, pad))
        return conv(op, x, w, bias, stride, pad)

    T._conv = record
    try:
        with T.precision(np.float32), T.no_grad():
            for size, channels, role in itertools.product((16, 32), (1, 3), N.ROLES):
                for cond in (False, True) if role in ("generator", "discriminator") else (False,):
                    spec = N.NetworkSpec(role=role, image_size=size, channels=channels, num_classes=3,
                                         base_width=8, conditional=cond)
                    net = N.build_network(spec, T.Rng(0, "init"))
                    if role == "generator":
                        net(N.draw_latent(2, 3, cond, T.Rng(1, "z")).values)
                    else:
                        x = T.Tensor(np.zeros((2, channels, size, size), np.float32))
                        net(x, labels=np.zeros(2, np.int64)) if cond else net(x)
    finally:
        T._conv = conv
    return sorted(shapes)


def big_and_small(op, in_shape, kernel, stride, pad):
    """(big-side [C,H,W], small-side [C,H,W]) of a conv: the image and its
    output for conv2d, the other way round for conv_transpose2d."""
    c, h, w = in_shape
    small, big, kh, kw = kernel
    if op == "conv2d":
        return (big, h, w), (small, (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1)
    return (big, (h - 1) * stride - 2 * pad + kh, (w - 1) * stride - 2 * pad + kw), (small, h, w)


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def pad2d(x, pad):
    """Zero-pad the last two axes of [N,C,H,W] by `pad` on each side."""
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def test_every_network_conv_shape_is_seen(network_conv_shapes):
    ops = {(op, kernel[2:], stride) for op, _, kernel, stride, _ in network_conv_shapes}
    assert ops == {
        ("conv2d", (3, 3), 1), ("conv2d", (3, 3), 2), ("conv2d", (1, 1), 2), ("conv2d", (4, 4), 2),
        ("conv2d", (4, 4), 1), ("conv_transpose2d", (4, 4), 2),
    }


@pytest.mark.parametrize("n", [1, 4, 16])
def test_flat_patches_equal_im2col_on_every_network_shape(rng, network_conv_shapes, n):
    # The gather must equal `_im2col` of the padded `x` bit for bit wherever `_conv`
    # takes it, and the stride-1 scatter `_col2im` plus the crop, so that
    # every GEMM reads the same operands. Float32, as the networks run.
    flat = 0
    for op, in_shape, kernel, stride, pad in network_conv_shapes:
        (big, hb, wb), (_, hs, ws) = big_and_small(op, in_shape, kernel, stride, pad)
        kh, kw = kernel[2:]
        if min(kh, kw) == 1 or (hb, wb) != (stride * hs, stride * ws):
            continue
        flat += 1
        x = rng.normal(size=(n, big, hb, wb)).astype(np.float32)
        want = T._im2col(pad2d(x, pad), kh, kw, stride, hs, ws)
        got = T._flat_im2col(x, kh, kw, stride, pad, hs, ws)
        assert got.shape == want.shape and got.dtype == want.dtype and got.flags.c_contiguous
        assert bits(got) == bits(want), (op, in_shape, kernel)
        if stride == 1:
            cols = rng.normal(size=want.shape).astype(np.float32)
            full = T._col2im(cols, n, big, hb + 2 * pad, wb + 2 * pad, kh, kw, 1, hs, ws)
            got = T._flat_col2im(cols.copy(), n, big, kh, kw, pad, hb, wb)
            assert got.shape == (n, big, hb, wb)
            assert bits(got) == bits(full[:, :, pad : pad + hb, pad : pad + wb]), (op, in_shape, kernel)
    assert flat == 34


@pytest.mark.parametrize("stride,k", [(1, 3), (2, 4)])
def test_flat_patches_zero_the_entries_that_wrap_a_row(rng, monkeypatch, stride, k):
    # An image of ones: a tap one column left of output column 0 reads the
    # zero padding, but its flat run reads the last pixel of the row above.
    x = np.ones((2, 3, 4 * stride, 4 * stride))
    want = T._im2col(pad2d(x, 1), k, k, stride, 4, 4)
    assert bits(T._flat_im2col(x, k, k, stride, 1, 4, 4)) == bits(want)
    cols = rng.normal(size=(2, 3 * k * k, 16))
    scattered = T._flat_col2im(cols.copy(), 2, 3, k, k, 1, 4, 4) if stride == 1 else None
    monkeypatch.setattr(T, "_zero_wrapped", lambda cols, *args: cols)
    assert bits(T._flat_im2col(x, k, k, stride, 1, 4, 4)) != bits(want)
    if stride == 1:
        assert bits(T._flat_col2im(cols.copy(), 2, 3, k, k, 1, 4, 4)) != bits(scattered)


def _no_flat(*args):
    raise AssertionError("this shape must take `_im2col` and `_col2im`")


@pytest.mark.parametrize("op, h, k, stride, pad", [
    ("conv2d", 9, 5, 2, 2),  # 9 is not twice the 5-wide output
    ("conv2d", 4, 4, 1, 0),  # the discriminator's full-window head
    ("conv2d", 8, 1, 2, 0),  # the residual blocks' 1x1 projection
    ("conv_transpose2d", 5, 5, 2, 2),  # the adjoint of the first
])
def test_other_shapes_fall_back_to_im2col(rng, monkeypatch, op, h, k, stride, pad):
    monkeypatch.setattr(T, "_flat_im2col", _no_flat)
    monkeypatch.setattr(T, "_flat_col2im", _no_flat)
    x = t(rng.normal(size=(2, 3, h, h)))
    w = t(rng.normal(size=(4, 3, k, k) if op == "conv2d" else (3, 4, k, k)))
    out = getattr(T, op)(x, w, stride=stride, pad=pad)
    if op == "conv2d":
        assert np.abs(out.data - conv_reference(x.data, w.data, None, stride, pad)).max() < 1e-12
    T.backward(sum_all(out))
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_empty_batch_conv_has_empty_output_and_gradients(rng):
    x = t(np.zeros((0, 3, 8, 8)))
    w = t(rng.normal(size=(4, 3, 3, 3)))
    out = T.conv2d(x, w, pad=1)
    T.backward(sum_all(out))
    assert out.shape == (0, 4, 8, 8) and x.grad.shape == x.shape
    assert np.array_equal(w.grad, np.zeros(w.shape))


def test_stride_two_scatter_keeps_col2im(rng, monkeypatch):
    # A stride-2 conv gathers from phase planes, but its input gradient
    # scatters through `_col2im`.
    monkeypatch.setattr(T, "_flat_col2im", _no_flat)
    x = t(rng.normal(size=(2, 3, 8, 8)))
    out = T.conv2d(x, t(rng.normal(size=(4, 3, 4, 4))), stride=2, pad=1)
    T.backward(sum_all(out))
    assert out.shape == (2, 4, 4, 4) and x.grad.shape == x.shape


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
    T.batchnorm2d(t(x, grad=False), gamma, beta, rmean, rvar, training=True)
    count = 4 * 3 * 3
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3)) * count / (count - 1)
    assert np.allclose(rmean.data, 0.9 * 0.0 + 0.1 * mu, atol=1e-12)
    assert np.allclose(rvar.data, 0.9 * 1.0 + 0.1 * var, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 4, 5, 5), (1, 3, 4, 7), (1, 2, 1, 1), (3, 1, 2, 9)])
def test_batchnorm_train_stats_equal_numpy(rng, monkeypatch, shape, dtype):
    monkeypatch.setattr(T, "BN_MOMENTUM", 1.0)
    x = rng.normal(loc=2.0, scale=3.0, size=shape).astype(dtype)
    c = shape[1]
    count = shape[0] * shape[2] * shape[3]
    rmean, rvar = T.Tensor(np.zeros(c, dtype)), T.Tensor(np.ones(c, dtype))
    one = T.Tensor(np.ones(c, dtype))
    zero = T.Tensor(np.zeros(c, dtype))
    out = T.batchnorm2d(T.Tensor(x), one, zero, rmean, rvar, training=True).data
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
        lambda: sum_all(
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
        lambda: sum_all(T.tanh(T.batchnorm2d(x, gamma, beta, rmean, rvar, training=False))),
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


def bn_train_reference(x, gamma, beta, g):
    """Train-mode batch norm's output, gradients and batch statistics, by
    the formulas the op used before its means were `np.add.reduce` sums."""
    axes = (0, 2, 3)
    count = x.shape[0] * x.shape[2] * x.shape[3]
    mu = x.mean(axis=axes)
    d = x - mu[None, :, None, None]
    var = (d * d).sum(axis=axes) / count
    inv = 1.0 / np.sqrt(var + T.BN_EPS)
    xhat = d * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    dxhat = g * gamma[None, :, None, None]
    m1 = dxhat.mean(axis=axes)
    m2 = (dxhat * xhat).mean(axis=axes)
    gx = inv[None, :, None, None] * (dxhat - m1[None, :, None, None] - xhat * m2[None, :, None, None])
    return out, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes), mu, var


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 8, 32, 32), (16, 64, 4, 4), (3, 5, 7, 2), (1, 2, 1, 1)])
def test_batchnorm_train_equals_its_formulas_bit_for_bit(rng, monkeypatch, shape, dtype):
    monkeypatch.setattr(T, "BN_MOMENTUM", 1.0)
    c = shape[1]
    x = rng.normal(loc=1.0, scale=2.0, size=shape).astype(dtype)
    gamma, beta = rng.uniform(0.5, 1.5, c).astype(dtype), rng.normal(size=c).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    tx, tgamma, tbeta = (T.Tensor(a, requires_grad=True) for a in (x, gamma, beta))
    rmean, rvar = T.Tensor(np.zeros(c, dtype)), T.Tensor(np.zeros(c, dtype))
    out = T.batchnorm2d(tx, tgamma, tbeta, rmean, rvar, training=True)
    got = (out.data, *out.node.backward_fn(g), rmean.data)
    want = bn_train_reference(x, gamma, beta, g)
    for a, b in zip(got, want):
        assert a.dtype == dtype and bits(a) == bits(b)
    count = shape[0] * shape[2] * shape[3]
    assert bits(rvar.data) == bits(want[5] * (count / (count - 1)) if count > 1 else want[5])
