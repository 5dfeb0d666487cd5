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

Convolutions lower to one batched GEMM per direction over a patch matrix
(`_conv`). Where the input is exactly `stride` times the output, the
patches are copied in whole-plane runs out of flat phase planes; the
GEMMs see the same operands either way. Batch norm takes its means as
`np.add.reduce` sums over the count, which is what `ndarray.mean` computes.

Tensors and graphs are confined to a single execution context; nothing in
here is safe to share across concurrent training runs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib

import numpy as np

from .errors import ContractError, InvalidLabelError, ShapeError

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True

# Added to the variance under batch norm's square root.
BN_EPS = 1e-5
# Weight of the batch statistics in batch norm's running averages.
BN_MOMENTUM = 0.1
# The largest seed `Rng` takes. Numpy turns a Philox key with one entry of
# 2**63 or more into float64, which holds every integer up to 2**53 exactly.
MAX_SEED = 2**53
# The largest float setting (a learning rate, lambda, weight decay, noise
# sigma): training works in float32, where a larger one overflows.
MAX_FLOAT = float(np.finfo(np.float32).max)


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


def grad_enabled():
    """Whether ops record a graph (False inside `no_grad`)."""
    return _GRAD_ENABLED


class Rng:
    """Deterministic random stream.

    Backed by numpy's Philox 4x64 counter-based generator, keyed by
    (seed, stream) where the stream id is a 64-bit BLAKE2s digest of the
    stream name. The same (seed, stream) always yields the same scalar
    sequence within one build of this package; cross-library bit
    equality is not promised. A seed outside [0, MAX_SEED] is a
    ContractError: beyond it two seeds could share a key.
    """

    def __init__(self, seed, stream=""):
        self.seed = int(seed)
        if not 0 <= self.seed <= MAX_SEED:
            raise ContractError(f"seed must be in [0, 2**53], got {seed}")
        self.stream = stream
        sid = int.from_bytes(
            hashlib.blake2s(stream.encode("utf-8"), digest_size=8).digest(), "little"
        )
        self._gen = np.random.Generator(np.random.Philox(key=[self.seed, sid]))

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

    def item(self):
        return float(self.data.item())


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


def _sigmoid(x):
    """Logistic function of an array, stable on both tails."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)


def sigmoid(a):
    y = _sigmoid(a.data)
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


def bce(logits, target):
    """Binary cross-entropy of sigmoid(logits) against 0/1 `target` (scalar
    or per-element array), mean over all elements. It is computed from the
    logits in log-sum-exp form, mean(softplus(z) - y*z), which stays finite
    however saturated the sigmoid is; the gradient is (sigmoid(z) - y) / n.
    """
    z = logits.data
    y = np.broadcast_to(np.asarray(target, dtype=z.dtype), z.shape)
    n = z.size
    if n == 0:
        raise ShapeError("bce() needs at least one element")
    softplus = np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(((softplus - y * z).sum() / n).astype(z.dtype))

    def back(g):
        return ((_sigmoid(z) - y) * (g / n),)

    return _attach(out, "bce", (logits,), back)


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


@functools.lru_cache(maxsize=None)
def _flat_plan(kh, kw, stride, pad, wout):
    """The flat layout of a kh x kw conv at `stride` and `pad` with outputs
    `wout` wide: (margin, phases, wrapped). Per axis, output o's tap i reads
    input index stride*o + i - pad = stride*(o + shift) + phase, and `rows`
    and `cols` hold each tap's (shift, phase). `margin` is the zero run on
    both sides of a phase plane. `phases` holds, per phase pair that some tap
    reads, (row phase, column phase, tap-row slice, tap-column slice, their
    lengths, flat offset of the first tap); the taps of one phase pair step
    their offset by wout per row and 1 per column. `wrapped` holds
    (tap column, output columns) whose runs cross a row end."""
    rows = [divmod(i - pad, stride) for i in range(kh)]
    cols = [divmod(j - pad, stride) for j in range(kw)]
    margin = max(abs(q) for q, _ in rows) * wout + max(abs(q) for q, _ in cols)
    phases = []
    for ri in range(stride):
        for rj in range(stride):
            ii = [i for i, (_, r) in enumerate(rows) if r == ri]
            jj = [j for j, (_, r) in enumerate(cols) if r == rj]
            if ii and jj:
                taps = slice(ii[0], None, stride), slice(jj[0], None, stride), len(ii), len(jj)
                phases.append((ri, rj, *taps, rows[ii[0]][0] * wout + cols[jj[0]][0]))
    wrapped = [(j, slice(max(wout - q, 0), None) if q > 0 else slice(None, -q)) for j, (q, _) in enumerate(cols) if q]
    return margin, phases, wrapped


def _zero_wrapped(cols, wrapped, hout, wout):
    """Zero, in place, the `wrapped` entries of (N, C, kh, kw, hout*wout) patches."""
    cols6 = cols.reshape(cols.shape[:4] + (hout, wout))
    for j, columns in wrapped:
        cols6[:, :, :, j, :, columns] = 0
    return cols


def _flat_im2col(x, kh, kw, stride, pad, hout, wout):
    """`_im2col` of `x` zero-padded by `pad`, bit for bit, for an [N,C,H,W]
    input of exactly `stride` times the output per axis, copied in
    contiguous runs out of flat phase planes (see `_conv`)."""
    n, c = x.shape[:2]
    hw = hout * wout
    margin, phases, wrapped = _flat_plan(kh, kw, stride, pad, wout)
    span = hw + 2 * margin
    planes = np.zeros((n, c, stride, stride, span), dtype=x.dtype)
    planes[..., margin : margin + hw].reshape(n, c, stride, stride, hout, wout)[...] = x.reshape(
        n, c, hout, stride, wout, stride
    ).transpose(0, 1, 3, 5, 2, 4)
    cols = np.empty((n, c, kh, kw, hw), dtype=x.dtype)
    e = planes.itemsize
    strides = planes.strides[:2] + (wout * e, e, e)  # a tap row steps one output row, a tap column one pixel
    for ri, rj, tap_rows, tap_cols, n_rows, n_cols, offset in phases:
        start = ((ri * stride + rj) * span + margin + offset) * e
        cols[:, :, tap_rows, tap_cols] = np.ndarray((n, c, n_rows, n_cols, hw), x.dtype, planes, start, strides)
    return _zero_wrapped(cols, wrapped, hout, wout).reshape(n, c * kh * kw, hw)


def _flat_col2im(cols, n, c, kh, kw, pad, h, w):
    """`_col2im` of stride-1 patches, cropped by `pad` to [N,C,h,w], bit for
    bit. `cols` must be a fresh array: its wrapped entries are zeroed in place."""
    hw = h * w
    margin, _, wrapped = _flat_plan(kh, kw, 1, pad, w)
    cols = _zero_wrapped(cols.reshape(n, c, kh, kw, hw), wrapped, h, w)
    acc = np.zeros((n, c, hw + 2 * margin), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            start = margin + (i - pad) * w + j - pad
            acc[:, :, start : start + hw] += cols[:, :, i, j]
    return acc[:, :, margin : margin + hw].reshape(n, c, h, w)


def conv2d(x, w, bias=None, stride=1, pad=0):
    """Cross-correlation of [N,Cin,H,W] with [Cout,Cin,kh,kw], zero padding.

    Output spatial size is floor((H + 2*pad - kh)/stride) + 1 per axis.
    """
    return _conv("conv2d", x, w, bias, stride, pad)


def conv_transpose2d(x, w, bias=None, stride=1, pad=0):
    """Transposed convolution: the adjoint of `conv2d` with the same kernel.

    Input is [N,Cin,H,W], kernel is [Cin,Cout,kh,kw]; output spatial size is
    (H - 1)*stride - 2*pad + kh per axis.
    """
    return _conv("conv_transpose2d", x, w, bias, stride, pad)


def _conv(op, x, w, bias, stride, pad):
    """The core of `conv2d` and `conv_transpose2d`, each the other's input
    gradient (Dumoulin & Visin 2016, arXiv 1603.07285, section 4). The kernel
    is read as [small, big, kh, kw] channels: `down` (pad, `_im2col`, GEMM)
    takes a big-side image [N,big,hb,wb] to the small side [N,small,hs*ws],
    and `up` (GEMM, `_col2im`, crop) is its adjoint. conv2d runs `down`
    forward and `up` for its input gradient, conv_transpose2d the reverse.
    The weight gradient is the small side times the big side's patches.

    When the kernel is larger than 1x1 and the big side is exactly `stride`
    times the small side per axis (every 3x3 and 4x4 conv of the networks
    but the 4x4 full-window heads), the patches are copied in contiguous
    runs instead of `hs` rows of `ws` (im2col unrolling, Chellapilla et al.
    2006). The image is laid out once as stride**2 flat phase planes per
    (sample, channel), plane (a, b) holding pixels [stride*r + a, stride*c + b],
    each plane with a zero margin on both sides. Tap (i, j) then reads plane
    ((i - pad) mod stride, (j - pad) mod stride) from flat offset
    qi*ws + qj, with qi = floor((i - pad) / stride) and qj likewise: one run
    of hs*ws per plane, whose rows shifted out of the image land in the
    margin. A column shift qj != 0 wraps into the next or previous row
    instead; those entries, the last qj output columns (qj > 0) or the first
    -qj (qj < 0), are zeroed after the copy. The patches equal `_im2col`
    of the padded image bit for bit. At stride 1 `up` scatters the same
    way: it zeroes the wrapped entries of the fresh GEMM output, adds each
    tap's run into a flat buffer with margins in (i, j) order, and slices
    the margins away, so each pixel sums the same terms in the same order
    plus exact +0.0s onto a +0.0 start. The 1x1 projections, the heads and
    other shapes take `np.pad` and `_im2col`, and every stride-2 `up` takes
    `_col2im`, which measured faster than a phase split there."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"{op}() needs 4-d input and kernel, got {x.shape}, {w.shape}")
    transposed = op == "conv_transpose2d"
    n, cin, h, wd = x.shape
    small, big, kh, kw = w.shape
    if cin != (small if transposed else big):
        raise ShapeError(f"{op}() channel mismatch: input {cin}, kernel {w.shape}")
    if stride < 1:
        raise ShapeError(f"{op}() stride must be >= 1")
    if transposed:
        (hs, ws), (hb, wb) = (h, wd), ((h - 1) * stride - 2 * pad + kh, (wd - 1) * stride - 2 * pad + kw)
    else:
        (hb, wb), (hs, ws) = (h, wd), ((h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1)
    if min(hs, ws, hb, wb) < 1:
        raise ShapeError(f"{op}() of {h}x{wd} by a {kh}x{kw} kernel at stride {stride}, pad {pad} is empty")
    w2 = w.data.reshape(small, -1)
    flat = n > 0 and min(kh, kw) > 1 and (hb, wb) == (stride * hs, stride * ws)  # an empty batch has no planes to view

    def down(big_img):
        """(w2 @ patches, patches) of a big-side image."""
        if flat:
            patches = _flat_im2col(big_img, kh, kw, stride, pad, hs, ws)
        else:
            padded = np.pad(big_img, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else big_img
            patches = _im2col(padded, kh, kw, stride, hs, ws)
        return np.matmul(w2, patches), patches

    def up(small3):
        cols = np.matmul(w2.T, small3)
        if flat and stride == 1:
            return _flat_col2im(cols, n, big, kh, kw, pad, hb, wb)
        full = _col2im(cols, n, big, hb + 2 * pad, wb + 2 * pad, kh, kw, stride, hs, ws)
        return full[:, :, pad : pad + hb, pad : pad + wb] if pad else full

    if transposed:
        x3 = x.data.reshape(n, small, hs * ws)
        out_data = up(x3)
    else:
        out3, x_patches = down(x.data)
        out_data = out3.reshape(n, small, hs, ws)
    if bias is not None:
        out_data += bias.data[:, None, None]  # in place: `down` and `up` return fresh arrays
    out = Tensor(out_data)

    def back(g):
        if transposed:
            gx3, patches = down(g)
            gx, small3 = gx3.reshape(x.shape), x3
        else:
            patches, small3 = x_patches, g.reshape(n, small, hs * ws)
            gx = up(small3) if x.requires_grad else None
        gw = np.matmul(small3, patches.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape) if w.requires_grad else None
        gb = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        return (gx, gw) if bias is None else (gx, gw, gb)

    return _attach(out, op, (x, w) if bias is None else (x, w, bias), back)


def batchnorm2d(x, gamma, beta, running_mean, running_var, training, update_running=True):
    """Per-channel batch normalization with affine scale/shift.

    Train mode normalizes by the batch mean/variance over (N,H,W) and,
    when ``update_running`` is set, folds them into the running stats by
    exponential moving average (new = (1-BN_MOMENTUM)*old + BN_MOMENTUM*batch,
    unbiased variance when the batch has more than one element). Eval
    mode normalizes by the running stats. Both divide by
    sqrt(variance + BN_EPS). ``running_mean``/``running_var`` are plain
    state tensors and must not require gradients.
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
        mu = np.add.reduce(x.data, axis=axes) / count
        d = x.data - mu[None, :, None, None]
        var = np.add.reduce(np.square(d), axis=axes) / count
        if update_running:
            bump = var * (count / (count - 1)) if count > 1 else var
            running_mean.data[:] = (1.0 - BN_MOMENTUM) * running_mean.data + BN_MOMENTUM * mu
            running_var.data[:] = (1.0 - BN_MOMENTUM) * running_var.data + BN_MOMENTUM * bump
    else:
        d = x.data - running_mean.data[None, :, None, None]
        var = running_var.data

    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = d * inv[None, :, None, None]
    out_data = xhat * gamma.data[None, :, None, None]
    out_data += beta.data[None, :, None, None]
    out = Tensor(out_data)

    def back(g):
        ggamma = (g * xhat).sum(axis=axes) if gamma.requires_grad else None
        gbeta = g.sum(axis=axes) if beta.requires_grad else None
        gx = None
        if x.requires_grad:
            dxhat = g * gamma.data[None, :, None, None]
            if training:
                m1 = np.add.reduce(dxhat, axis=axes) / count
                m2 = np.add.reduce(dxhat * xhat, axis=axes) / count
                gx = dxhat - m1[None, :, None, None]
                gx -= xhat * m2[None, :, None, None]
                gx *= inv[None, :, None, None]
            else:
                gx = dxhat * inv[None, :, None, None]
            gx = gx.astype(x.data.dtype, copy=False)
        return gx, ggamma, gbeta

    return _attach(out, "batchnorm2d", (x, gamma, beta), back)
