"""Dense real tensors with reverse-mode automatic differentiation.

The operation set is exactly what the networks and losses in this package
need: matmul, strided (transposed) convolution, batch norm, the usual
activations, softmax, cross-entropy and binary cross-entropy. Arrays are
numpy ndarrays (row-major); scalars default to 32-bit floats, with a
64-bit switch used by the gradient-check oracles.

Graphs are recorded implicitly: every op whose inputs require gradients
attaches a `Node` to its output, and `backward(loss)` orders the tensors
below the loss topologically and sweeps their nodes once in reverse. Only
leaves (tensors that require gradients and carry no node) get gradients;
they accumulate additively into `Tensor.grad` until the owner zeroes them.
A node holds its inputs and never its output, so a graph has no reference
cycle: it is freed by reference counting as soon as its last output goes.

Tensors and graphs are confined to a single execution context; nothing in
here is safe to share across concurrent training runs. The one exception
is forward passes under `no_grad` that leave running statistics alone:
they only read shared tensors, so threads may run them on one network at
once while the caller holds `no_grad` (see `training.evaluate`).
"""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np

from .errors import ContractError, InvalidLabelError, ShapeError

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True

# Probability clamp for binary cross-entropy on raw probabilities.
BCE_EPS = 1e-7


def default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the scalar dtype of new tensors to float32 or
    float64 (used by 64-bit test oracles)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ValueError("default dtype must be float32 or float64")
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dtype
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Rng:
    """Deterministic random stream.

    Backed by numpy's Philox 4x64 counter-based generator, keyed by
    (seed, stream) where the stream id is a 64-bit BLAKE2s digest of the
    stream name. The same (seed, stream) always yields the same scalar
    sequence within one build of this package; cross-library bit
    equality is not promised.
    """

    def __init__(self, seed, stream=""):
        self.seed = int(seed)
        self.stream = stream
        sid = int.from_bytes(
            hashlib.blake2s(stream.encode("utf-8"), digest_size=8).digest(), "little"
        )
        self._gen = np.random.Generator(np.random.Philox(key=[self.seed & (2**64 - 1), sid]))

    def normal(self, shape=None, loc=0.0, scale=1.0):
        out = self._gen.normal(loc, scale, shape)
        return np.asarray(out, dtype=_DEFAULT_DTYPE)

    def uniform(self, low=0.0, high=1.0, shape=None):
        out = self._gen.uniform(low, high, shape)
        return np.asarray(out, dtype=_DEFAULT_DTYPE)

    def integers(self, low, high, shape=None):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n):
        return self._gen.permutation(n)


class Node:
    """One recorded operation: op kind, input tensors, and a backward closure.

    ``backward_fn(grad_out)`` returns one gradient array (or None) per input.
    """

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """An n-dimensional real array, optionally carrying a gradient."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.item())

    def detach(self):
        """A view of the same data with no graph history."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.requires_grad = False
        out.grad = None
        out.node = None
        return out

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, scalar):
        return scale(self, scalar)

    def __rmul__(self, scalar):
        return scale(self, scalar)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _attach(out, op, inputs, backward_fn):
    if _GRAD_ENABLED and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = Node(op, tuple(inputs), backward_fn)
    return out


def _topological_order(root):
    """Tensors below ``root`` that carry a node, each after the ones its node reads."""
    order = []
    if root.node is None:
        return order
    seen = set()
    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if t in seen:
            continue
        seen.add(t)
        stack.append((t, True))
        for x in t.node.inputs:
            if x.node is not None and x not in seen:
                stack.append((x, False))
    return order


def backward(loss):
    """Add the gradient of ``loss`` into ``grad`` of every leaf below it.

    ``loss`` must be a scalar. Leaves are the tensors that require
    gradients and carry no node; interior tensors get no ``grad``.
    Gradients add into any existing ``grad`` buffers, so repeated calls
    accumulate until the caller zeroes them.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {tuple(loss.shape)}")
    flow = {loss: np.ones_like(loss.data)}  # tensor -> gradient reaching it so far
    for t in reversed(_topological_order(loss)):
        g_out = flow.pop(t, None)
        if g_out is None:
            continue
        for x, g in zip(t.node.inputs, t.node.backward_fn(g_out)):
            if g is None:
                continue
            flow[x] = flow[x] + g if x in flow else g
    # every tensor with a node has been popped: what is left belongs to leaves
    for t, g in flow.items():
        if t.requires_grad:
            _accumulate(t, g)


def _accumulate(t, g):
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a, b):
    """a + b for matching shapes, or a[N,K] + bias[K]."""
    if a.shape == b.shape:
        out = Tensor(a.data + b.data)

        def back(g):
            return g, g

    elif a.ndim == 2 and b.shape == (a.shape[1],):
        out = Tensor(a.data + b.data)

        def back(g):
            return g, g.sum(axis=0)

    else:
        raise ShapeError(f"add() shapes {a.shape} and {b.shape} are incompatible")
    return _attach(out, "add", (a, b), back)


def scale(a, c):
    """Multiply by a python scalar."""
    c = float(c)
    out = Tensor(a.data * c)

    def back(g):
        return (g * c,)

    return _attach(out, "scale", (a,), back)


def sum_all(a):
    """Sum of every element, as a scalar tensor."""
    out = Tensor(a.data.sum())

    def back(g):
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype),)

    return _attach(out, "sum", (a,), back)


def reshape(a, shape):
    shape = tuple(int(d) for d in shape)
    out = Tensor(a.data.reshape(shape))

    def back(g):
        return (g.reshape(a.shape),)

    return _attach(out, "reshape", (a,), back)


def concat_channels(a, b):
    """Concatenate along axis 1 of [N,C,H,W] tensors."""
    if a.ndim != 4 or b.ndim != 4 or a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels() got {a.shape} and {b.shape}")
    split = a.shape[1]
    out = Tensor(np.concatenate([a.data, b.data], axis=1))

    def back(g):
        return g[:, :split], g[:, split:]

    return _attach(out, "concat_channels", (a, b), back)


def take_rows(a, indices):
    """Select rows of a 2-d tensor; backward scatters into the source."""
    indices = np.asarray(indices, dtype=np.int64)
    out = Tensor(a.data[indices])

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, indices, g)
        return (full,)

    return _attach(out, "take_rows", (a,), back)


def spatial_mean(a):
    """Mean over the H and W axes of an [N,C,H,W] tensor."""
    if a.ndim != 4:
        raise ShapeError(f"spatial_mean() needs [N,C,H,W], got {a.shape}")
    n = a.shape[2] * a.shape[3]
    out = Tensor(a.data.mean(axis=(2, 3)))

    def back(g):
        return (np.broadcast_to(g[:, :, None, None] / n, a.shape).astype(a.data.dtype),)

    return _attach(out, "spatial_mean", (a,), back)


# ---------------------------------------------------------------------------
# activations


def relu(a):
    out = Tensor(np.maximum(a.data, 0))

    def back(g):
        return (g * (a.data > 0),)

    return _attach(out, "relu", (a,), back)


def leaky_relu(a, slope=0.2):
    out = Tensor(np.where(a.data > 0, a.data, slope * a.data))

    def back(g):
        return (g * np.where(a.data > 0, 1.0, slope).astype(a.data.dtype),)

    return _attach(out, "leaky_relu", (a,), back)


def tanh(a):
    y = np.tanh(a.data)
    out = Tensor(y)

    def back(g):
        return (g * (1.0 - y * y),)

    return _attach(out, "tanh", (a,), back)


def sigmoid(a):
    # stable on both tails
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    y = y.astype(x.dtype)
    out = Tensor(y)

    def back(g):
        return (g * y * (1.0 - y),)

    return _attach(out, "sigmoid", (a,), back)


def softmax(a):
    """Row softmax of [N,K] logits, max-subtracted for stability."""
    if a.ndim != 2 or a.shape[1] < 2:
        raise ShapeError(f"softmax() needs [N,K] with K >= 2, got {a.shape}")
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def back(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return _attach(out, "softmax", (a,), back)


# ---------------------------------------------------------------------------
# losses


def cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[label].

    Labels are integer class indices; an empty batch yields exactly 0.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy() needs [N,K] logits, got {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy() got {n} rows but {labels.shape} labels")
    if n == 0:
        return Tensor(np.zeros((), dtype=logits.data.dtype))
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidLabelError(f"labels must lie in [0,{k}), got range [{labels.min()},{labels.max()}]")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    picked = logp[np.arange(n), labels]
    out = Tensor((-picked.sum() / n).astype(logits.data.dtype))

    def back(g):
        grad = np.exp(logp)
        grad[np.arange(n), labels] -= 1.0
        return (grad * (g / n),)

    return _attach(out, "cross_entropy", (logits,), back)


def _softplus(x):
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def bce(prob, target):
    """Binary cross-entropy on probabilities, mean over all elements.

    ``target`` is 0/1 (scalar or per-element array). When ``prob`` is the
    direct output of `sigmoid`, the loss is computed from the saved
    pre-sigmoid values in log-sum-exp form, which stays finite however
    saturated the sigmoid is. Raw probability inputs are clamped to
    [BCE_EPS, 1 - BCE_EPS] first; the clamp bounds each term away from
    infinity and contributes zero gradient where it engages.
    """
    y = np.asarray(target, dtype=prob.data.dtype)
    y = np.broadcast_to(y, prob.shape)
    n = prob.size
    if n == 0:
        raise ShapeError("bce() needs at least one element")

    if prob.node is not None and prob.node.op == "sigmoid":
        logits = prob.node.inputs[0]
        z = logits.data
        out = Tensor(((_softplus(z) - y * z).sum() / n).astype(z.dtype))

        def back(g):
            s = prob.data
            return ((s - y) * (g / n),)

        return _attach(out, "bce_logits", (logits,), back)

    p = np.clip(prob.data, BCE_EPS, 1.0 - BCE_EPS)
    out = Tensor((-(y * np.log(p) + (1.0 - y) * np.log1p(-p)).sum() / n).astype(p.dtype))

    def back(g):
        inside = (prob.data > BCE_EPS) & (prob.data < 1.0 - BCE_EPS)
        grad = (p - y) / (p * (1.0 - p)) * inside
        return (grad * (g / n),)

    return _attach(out, "bce", (prob,), back)


# ---------------------------------------------------------------------------
# linear algebra and convolution


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul() shapes {a.shape} x {b.shape} do not chain")
    out = Tensor(a.data @ b.data)

    def back(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _attach(out, "matmul", (a, b), back)


def _pad2d(a, pad):
    """Zero-pad the last two axes of [N,C,H,W] by `pad` on each side; equals
    `np.pad` and costs about a third of it at the sizes used here."""
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=a.dtype)
    out[:, :, pad : pad + h, pad : pad + w] = a
    return out


def _im2col(xp, kh, kw, stride, hout, wout):
    """(N,C,Hp,Wp) -> (N, C*kh*kw, hout*wout) patch matrix (reshape is a view)."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, hout, wout), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * hout : stride, j : j + stride * wout : stride]
    return cols.reshape(n, c * kh * kw, hout * wout)


def _col2im(cols, n, c, hp, wp, kh, kw, stride, hout, wout):
    """Adjoint of `_im2col`: scatter-add (N, C*kh*kw, hout*wout) patches into (N,C,Hp,Wp)."""
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = np.ascontiguousarray(cols).reshape(n, c, kh, kw, hout, wout)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * hout : stride, j : j + stride * wout : stride] += cols6[:, :, i, j]
    return xp


def conv2d(x, w, bias=None, stride=1, pad=0):
    """Cross-correlation of [N,Cin,H,W] with [Cout,Cin,kh,kw], zero padding.

    Output spatial size is floor((H + 2*pad - kh)/stride) + 1 per axis.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d() needs 4-d input and kernel, got {x.shape}, {w.shape}")
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d() channel mismatch: input {cin}, kernel {cin_w}")
    if stride < 1:
        raise ShapeError("conv2d() stride must be >= 1")
    if h + 2 * pad < kh or wd + 2 * pad < kw:
        raise ShapeError(f"conv2d() kernel {kh}x{kw} exceeds padded input {h + 2 * pad}x{wd + 2 * pad}")
    hout = (h + 2 * pad - kh) // stride + 1
    wout = (wd + 2 * pad - kw) // stride + 1

    xp = _pad2d(x.data, pad) if pad else x.data
    cols = _im2col(xp, kh, kw, stride, hout, wout)
    w2 = w.data.reshape(cout, -1)
    out3 = np.matmul(w2, cols)  # [N, Cout, hout*wout]
    if bias is not None:
        out3 += bias.data[:, None]
    out = Tensor(out3.reshape(n, cout, hout, wout))

    def back(g):
        g3 = g.reshape(n, cout, hout * wout)
        gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape) if w.requires_grad else None
        gx = None
        if x.requires_grad:
            gcols = np.matmul(w2.T, g3)
            gxp = _col2im(gcols, n, cin, h + 2 * pad, wd + 2 * pad, kh, kw, stride, hout, wout)
            gx = gxp[:, :, pad : pad + h, pad : pad + wd] if pad else gxp
        if bias is not None:
            gb = g.sum(axis=(0, 2, 3)) if bias.requires_grad else None
            return gx, gw, gb
        return gx, gw

    inputs = (x, w) if bias is None else (x, w, bias)
    return _attach(out, "conv2d", inputs, back)


def conv_transpose2d(x, w, bias=None, stride=1, pad=0):
    """Transposed convolution: the adjoint of `conv2d` with the same kernel.

    Input is [N,Cin,H,W], kernel is [Cin,Cout,kh,kw]; output spatial size is
    (H - 1)*stride - 2*pad + kh per axis.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv_transpose2d() needs 4-d input and kernel, got {x.shape}, {w.shape}")
    n, cin, h, wd = x.shape
    cin_w, cout, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv_transpose2d() channel mismatch: input {cin}, kernel {cin_w}")
    if stride < 1:
        raise ShapeError("conv_transpose2d() stride must be >= 1")
    hout = (h - 1) * stride - 2 * pad + kh
    wout = (wd - 1) * stride - 2 * pad + kw
    if hout <= 0 or wout <= 0:
        raise ShapeError(f"conv_transpose2d() output {hout}x{wout} is empty")

    w2 = w.data.reshape(cin, cout * kh * kw)
    x3 = x.data.reshape(n, cin, h * wd)
    cols = np.matmul(w2.T, x3)  # [N, Cout*kh*kw, h*wd]
    full = _col2im(cols, n, cout, hout + 2 * pad, wout + 2 * pad, kh, kw, stride, h, wd)
    out_data = full[:, :, pad : pad + hout, pad : pad + wout] if pad else full
    if bias is not None:
        out_data = out_data + bias.data[None, :, None, None]
    out = Tensor(np.ascontiguousarray(out_data))

    def back(g):
        gp = _pad2d(g, pad) if pad else g
        gcols = _im2col(gp, kh, kw, stride, h, wd)
        gx = np.matmul(w2, gcols).reshape(x.shape) if x.requires_grad else None
        gw = np.matmul(x3, gcols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape) if w.requires_grad else None
        if bias is not None:
            gb = g.sum(axis=(0, 2, 3)) if bias.requires_grad else None
            return gx, gw, gb
        return gx, gw

    inputs = (x, w) if bias is None else (x, w, bias)
    return _attach(out, "conv_transpose2d", inputs, back)


def batchnorm2d(x, gamma, beta, running_mean, running_var, training, momentum=0.1, eps=1e-5, update_running=True):
    """Per-channel batch normalization with affine scale/shift.

    Train mode normalizes by the batch mean/variance over (N,H,W) and,
    when ``update_running`` is set, folds them into the running stats by
    exponential moving average (new = (1-momentum)*old + momentum*batch,
    unbiased variance when the batch has more than one element). Eval
    mode normalizes by the running stats. ``running_mean``/``running_var``
    are plain state tensors and must not require gradients.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d() needs [N,C,H,W], got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm2d() affine shapes {gamma.shape}/{beta.shape} != ({c},)")
    if running_mean.requires_grad or running_var.requires_grad:
        raise ContractError("running statistics must not require gradients")

    axes = (0, 2, 3)
    count = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        if count < 1:
            raise ShapeError("batchnorm2d() needs at least one element per channel in train mode")
        mu = x.data.mean(axis=axes)
        d = x.data - mu[None, :, None, None]
        var = (d * d).sum(axis=axes) / count
        if update_running:
            bump = var * (count / (count - 1)) if count > 1 else var
            running_mean.data[:] = (1.0 - momentum) * running_mean.data + momentum * mu
            running_var.data[:] = (1.0 - momentum) * running_var.data + momentum * bump
    else:
        d = x.data - running_mean.data[None, :, None, None]
        var = running_var.data

    inv = 1.0 / np.sqrt(var + eps)
    xhat = d * inv[None, :, None, None]
    out = Tensor(gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None])

    def back(g):
        ggamma = (g * xhat).sum(axis=axes) if gamma.requires_grad else None
        gbeta = g.sum(axis=axes) if beta.requires_grad else None
        gx = None
        if x.requires_grad:
            dxhat = g * gamma.data[None, :, None, None]
            if training:
                m1 = dxhat.mean(axis=axes)
                m2 = (dxhat * xhat).mean(axis=axes)
                gx = inv[None, :, None, None] * (
                    dxhat - m1[None, :, None, None] - xhat * m2[None, :, None, None]
                )
            else:
                gx = dxhat * inv[None, :, None, None]
            gx = gx.astype(x.data.dtype)
        return gx, ggamma, gbeta

    return _attach(out, "batchnorm2d", (x, gamma, beta), back)
