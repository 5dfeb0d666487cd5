"""Network builders: DCGAN generator/discriminator, a residual classifier,
and a two-headed shared discriminator, plus class-conditional plumbing.

All four roles are built from a `NetworkSpec` and an `Rng`; parameter
creation order is fixed, so two builds from the same spec and seed are
identical. Parameters (including batch-norm running statistics) live in
a named, ordered registry that optimizers and checkpoints consume.
Calling a network runs its class's `forward`, as rebound by any wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InvalidLabelError, ShapeError, SpecError
from .tensor import (
    BN_EPS,
    Tensor,
    add,
    batchnorm2d,
    concat_channels,
    conv2d,
    conv_transpose2d,
    default_dtype,
    grad_enabled,
    leaky_relu,
    matmul,
    relu,
    reshape,
    sigmoid,
    spatial_mean,
    tanh,
)

LATENT_DIM = 100
CLASS_SLOTS = 8  # latent coordinates reserved for the class code when conditional

ROLES = ("generator", "discriminator", "classifier", "shared_discriminator")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture hyperparameters for one network role.

    image_size must be 16, 32, or 64 (the stride-2 stacks halve or double
    between 4x4 and the image). `depth` is residual blocks per stage and
    only affects classifiers. `conditional` marks generators whose latent
    carries a class code and discriminators that take a label channel.
    """

    role: str
    image_size: int = 32
    channels: int = 3
    num_classes: int = 10
    base_width: int = 16
    conditional: bool = False
    depth: int = 1

    def __post_init__(self):
        if self.role not in ROLES:
            raise SpecError(f"unknown role {self.role!r}")
        if self.image_size not in (16, 32, 64):
            raise SpecError(f"image_size must be 16, 32, or 64, got {self.image_size}")
        if self.channels not in (1, 3):
            raise SpecError(f"channels must be 1 or 3, got {self.channels}")
        if self.num_classes < 2:
            raise SpecError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.base_width < 8:
            raise SpecError(f"base_width must be >= 8, got {self.base_width}")
        if self.depth < 1:
            raise SpecError(f"depth must be >= 1, got {self.depth}")
        if self.conditional and self.role in ("classifier", "shared_discriminator"):
            raise SpecError(f"{self.role} has no conditional form")

    @property
    def n_halvings(self):
        """Stride-2 steps between 4x4 and image_size."""
        return int(np.log2(self.image_size // 4))


def encode_class(labels, num_classes):
    """Map class k to a scalar code in [-1, 1], evenly spaced.

    k=0 maps to -1 and k=K-1 to +1 (K=2 gives -1/+1; K=3 gives -1/0/+1).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise InvalidLabelError(
            f"labels must lie in [0,{num_classes}), got range [{labels.min()},{labels.max()}]"
        )
    return (2.0 * labels - (num_classes - 1)) / (num_classes - 1)


def balanced_labels(n, num_classes):
    """n labels cycling 0..K-1, as close to perfectly balanced as n allows."""
    return np.arange(n, dtype=np.int64) % num_classes


@dataclass
class LatentVector:
    """A batch of latent draws, with the encoded class when conditional."""

    values: Tensor
    conditional_class: np.ndarray | None = None


def latent(n, rng):
    """Unconditional latent batch [n, LATENT_DIM]."""
    return LatentVector(Tensor(rng.normal((n, LATENT_DIM))))


def conditional_latent(labels, num_classes, rng):
    """Latent batch whose final CLASS_SLOTS dimensions store the encoded class.

    Repeating the scalar code over a block of coordinates gives the
    class signal enough weight in the generator's input projection that
    it cannot be drowned out by the noise dimensions.
    """
    labels = np.asarray(labels, dtype=np.int64)
    z = rng.normal((labels.shape[0], LATENT_DIM))
    z[:, LATENT_DIM - CLASS_SLOTS:] = encode_class(labels, num_classes)[:, None]
    return LatentVector(Tensor(z), conditional_class=labels)


def draw_latent(n, num_classes, conditional, rng):
    """n latent draws; conditional ones cycle through the classes (`balanced_labels`)."""
    if conditional:
        return conditional_latent(balanced_labels(n, num_classes), num_classes, rng)
    return latent(n, rng)


class Network:
    """Base: a named, ordered parameter registry plus a train/eval mode.
    A subclass builds its layers from `rng`, the init stream, then drops it."""

    role = None

    def __init__(self, spec, rng=None):
        self.spec = spec
        self.mode = "train"
        self._params = {}
        self._init_rng = rng

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def add_param(self, name, array, requires_grad=True):
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(array, dtype=default_dtype()), requires_grad=requires_grad)
        self._params[name] = t
        return t

    def parameters(self):
        """All named tensors, creation-ordered, running stats included."""
        return list(self._params.items())

    def trainable_parameters(self):
        return [(n, t) for n, t in self._params.items() if t.requires_grad]

    def parameter_count(self):
        return sum(t.size for _, t in self.trainable_parameters())

    def train(self):
        self.mode = "train"
        return self

    def eval(self):
        self.mode = "eval"
        return self

    @property
    def training(self):
        return self.mode == "train"

    def state(self):
        """Copies of every parameter array, keyed by name."""
        return {n: t.data.copy() for n, t in self._params.items()}

    def load_state(self, state):
        missing = [n for n in self._params if n not in state]
        extra = [n for n in state if n not in self._params]
        if missing or extra:
            raise ContractError(f"state mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
        for n, t in self._params.items():
            arr = np.asarray(state[n], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ShapeError(f"parameter {n!r}: checkpoint shape {arr.shape} != {t.data.shape}")
            t.data[...] = arr


class _Conv:
    """A conv, or with `transposed` a transposed conv with a [cin, cout, k, k]
    kernel. Its op is looked up by name per call, so a rebinding takes effect."""

    def __init__(self, net, name, cin, cout, k, stride, pad, std, bias, transposed=False):
        self.stride, self.pad, self.transposed = stride, pad, transposed
        shape = (cin, cout, k, k) if transposed else (cout, cin, k, k)
        self.w = net.add_param(f"{name}.w", net._init_rng.normal(shape, scale=std))
        self.b = net.add_param(f"{name}.b", np.zeros(cout)) if bias else None

    def __call__(self, x):
        op = conv_transpose2d if self.transposed else conv2d
        return op(x, self.w, self.b, stride=self.stride, pad=self.pad)


class _Linear:
    def __init__(self, net, name, fan_in, fan_out, std, bias):
        self.w = net.add_param(f"{name}.w", net._init_rng.normal((fan_in, fan_out), scale=std))
        self.b = net.add_param(f"{name}.b", np.zeros(fan_out)) if bias else None

    def __call__(self, x):
        y = matmul(x, self.w)
        return add(y, self.b) if self.b is not None else y


class _Bn:
    """Batch norm over channels. The network passes its train/eval mode in
    each call: a reference back to the network would make every network a
    reference cycle, freed only by the cyclic garbage collector."""

    def __init__(self, net, name, c, gamma_std=0.0):
        gamma = np.ones(c) if gamma_std == 0 else net._init_rng.normal((c,), loc=1.0, scale=gamma_std)
        self.gamma = net.add_param(f"{name}.gamma", gamma)
        self.beta = net.add_param(f"{name}.beta", np.zeros(c))
        self.rm = net.add_param(f"{name}.running_mean", np.zeros(c), requires_grad=False)
        self.rv = net.add_param(f"{name}.running_var", np.ones(c), requires_grad=False)

    def __call__(self, x, training, update_stats=True):
        return batchnorm2d(
            x,
            self.gamma,
            self.beta,
            self.rm,
            self.rv,
            training=training,
            update_running=update_stats and training,
        )


def _conv_bn(conv, bn, x, training, update_stats=True):
    """`bn(conv(x))`. In eval mode with no graph to record, batch norm is a
    fixed per-channel affine map, folded into the conv's weight and bias
    (Ioffe & Szegedy 2015, arXiv 1502.03167, section 3.1), so the pair runs
    as one conv2d. The fold is taken from the current parameters each call."""
    if training or grad_enabled():
        return bn(conv(x), training, update_stats)
    s = bn.gamma.data / np.sqrt(bn.rv.data + BN_EPS)
    shift = bn.beta.data - bn.rm.data * s
    if conv.b is not None:
        shift += conv.b.data * s
    w = Tensor(conv.w.data * s[:, None, None, None])
    return conv2d(x, w, Tensor(shift), stride=conv.stride, pad=conv.pad)


DCGAN_STD = 0.02
BN_GAMMA_STD = 0.02


def _dcgan_trunk(net, prefix, extra_channels=0):
    """The discriminator's stride-2 conv stack from the image down to 4x4,
    as (conv, bn) pairs named `<prefix>.<i>.*`; the first has no batch norm.
    `extra_channels` widen the second conv's input (the label plane).
    Returns the pairs and the channel count of the 4x4 map."""
    spec = net.spec
    w = spec.base_width
    blocks = [(_Conv(net, f"{prefix}.0.conv", spec.channels, w, 4, 2, 1, std=DCGAN_STD, bias=True), None)]
    cin = w + extra_channels
    for i in range(1, spec.n_halvings):
        cout = w << i
        conv = _Conv(net, f"{prefix}.{i}.conv", cin, cout, 4, 2, 1, std=DCGAN_STD, bias=False)
        blocks.append((conv, _Bn(net, f"{prefix}.{i}.bn", cout, gamma_std=BN_GAMMA_STD)))
        cin = cout
    return blocks, cin


def _trunk_forward(blocks, h, training, update_stats):
    for conv, bn in blocks:
        h = leaky_relu(conv(h) if bn is None else _conv_bn(conv, bn, h, training, update_stats))
    return h


class Generator(Network):
    """Latent [N,100] -> image [N,C,S,S] in [-1,1].

    Linear projection to a 4x4 map, then stride-2 transposed-conv blocks
    (each conv_transpose -> batchnorm -> relu) doubling the spatial size,
    and a final transposed conv to `channels` maps under tanh.
    """

    role = "generator"

    def __init__(self, spec, rng):
        super().__init__(spec, rng)
        m = spec.n_halvings
        w0 = spec.base_width * (1 << (m - 1))
        self.w0 = w0
        self.proj = _Linear(self, "proj", LATENT_DIM, w0 * 16, std=DCGAN_STD, bias=False)
        self.bn0 = _Bn(self, "bn0", w0, gamma_std=BN_GAMMA_STD)
        self.blocks = []
        cin = w0
        for i in range(m - 1):
            cout = w0 >> (i + 1)
            conv = _Conv(self, f"blocks.{i}.conv", cin, cout, 4, 2, 1, std=DCGAN_STD, bias=False, transposed=True)
            bn = _Bn(self, f"blocks.{i}.bn", cout, gamma_std=BN_GAMMA_STD)
            self.blocks.append((conv, bn))
            cin = cout
        self.final = _Conv(self, "final", cin, spec.channels, 4, 2, 1, std=DCGAN_STD, bias=True, transposed=True)
        del self._init_rng

    def forward(self, z, update_stats=True):
        if isinstance(z, LatentVector):
            z = z.values
        if z.ndim != 2 or z.shape[1] != LATENT_DIM:
            raise ShapeError(f"generator expects [N,{LATENT_DIM}] latents, got {z.shape}")
        h = reshape(self.proj(z), (z.shape[0], self.w0, 4, 4))
        h = relu(self.bn0(h, self.training, update_stats))
        for conv, bn in self.blocks:
            h = relu(bn(conv(h), self.training, update_stats))
        return tanh(self.final(h))


class Discriminator(Network):
    """Image [N,C,S,S] -> probability of being real, shape [N,1].

    Stride-2 conv blocks (batch norm skipped on the first) with LeakyReLU
    halve the map to 4x4; a 4x4 conv reduces to one sigmoid unit. When
    conditional, a constant channel carrying the encoded class label is
    concatenated after the first block.
    """

    role = "discriminator"

    def __init__(self, spec, rng):
        super().__init__(spec, rng)
        self.blocks, cin = _dcgan_trunk(self, "blocks", 1 if spec.conditional else 0)
        self.final = _Conv(self, "final", cin, 1, 4, 1, 0, std=DCGAN_STD, bias=True)
        del self._init_rng

    def forward(self, x, labels=None, update_stats=True):
        if self.spec.conditional and labels is None:
            raise ContractError("conditional discriminator requires labels")
        if not self.spec.conditional and labels is not None:
            raise ContractError("labels passed to an unconditional discriminator")
        h = _trunk_forward(self.blocks[:1], x, self.training, update_stats)
        if self.spec.conditional:
            code = encode_class(labels, self.spec.num_classes)
            n, _, hh, ww = h.shape
            if code.shape[0] != n:
                raise ShapeError(f"{code.shape[0]} labels for batch of {n}")
            plane = np.broadcast_to(
                code.astype(h.data.dtype)[:, None, None, None], (n, 1, hh, ww)
            )
            h = concat_channels(h, Tensor(np.ascontiguousarray(plane)))
        out = self.final(_trunk_forward(self.blocks[1:], h, self.training, update_stats))
        return sigmoid(reshape(out, (out.shape[0], 1)))


class _ResBlock:
    def __init__(self, net, name, cin, cout, stride):
        def he(cin_, k):
            return float(np.sqrt(2.0 / (cin_ * k * k)))

        self.conv1 = _Conv(net, f"{name}.conv1", cin, cout, 3, stride, 1, std=he(cin, 3), bias=False)
        self.bn1 = _Bn(net, f"{name}.bn1", cout)
        self.conv2 = _Conv(net, f"{name}.conv2", cout, cout, 3, 1, 1, std=he(cout, 3), bias=False)
        self.bn2 = _Bn(net, f"{name}.bn2", cout)
        if stride != 1 or cin != cout:
            self.proj = _Conv(net, f"{name}.skip.conv", cin, cout, 1, stride, 0, std=he(cin, 1), bias=False)
            self.proj_bn = _Bn(net, f"{name}.skip.bn", cout)
        else:
            self.proj = None

    def __call__(self, x, training, update_stats=True):
        h = relu(_conv_bn(self.conv1, self.bn1, x, training, update_stats))
        h = _conv_bn(self.conv2, self.bn2, h, training, update_stats)
        skip = x if self.proj is None else _conv_bn(self.proj, self.proj_bn, x, training, update_stats)
        return relu(add(h, skip))


class Classifier(Network):
    """Image [N,C,S,S] -> class logits [N,K].

    A 3x3 stem, four stages of `depth` residual blocks with widths
    base_width * 2^stage (stages 1-3 open with a stride-2 projection
    block), global average pooling, and a fully-connected head. depth=2
    with base_width=64 gives the classic 18-layer configuration.
    """

    role = "classifier"

    def __init__(self, spec, rng):
        super().__init__(spec, rng)
        w = spec.base_width
        self.stem = _Conv(self, "stem.conv", spec.channels, w, 3, 1, 1,
                          std=float(np.sqrt(2.0 / (spec.channels * 9))), bias=False)
        self.stem_bn = _Bn(self, "stem.bn", w)
        self.stages = []
        cin = w
        for s in range(4):
            cout = w << s
            blocks = []
            for j in range(spec.depth):
                stride = 2 if (s > 0 and j == 0) else 1
                blocks.append(_ResBlock(self, f"stage{s}.block{j}", cin, cout, stride))
                cin = cout
            self.stages.append(blocks)
        self.fc = _Linear(self, "fc", cin, spec.num_classes,
                          std=float(np.sqrt(1.0 / cin)), bias=True)
        del self._init_rng

    def forward(self, x, update_stats=True):
        h = relu(_conv_bn(self.stem, self.stem_bn, x, self.training, update_stats))
        for blocks in self.stages:
            for block in blocks:
                h = block(h, self.training, update_stats)
        return self.fc(spatial_mean(h))

    def class_logits(self, x, update_stats=True):
        return self.forward(x, update_stats)


class SharedDiscriminator(Network):
    """Image -> (class logits [N,K], real-probability [N,1]).

    The trunk is the discriminator's conv stack down to the 4x4 map; two
    private 4x4-conv heads sit on top: a K-logit classification head and
    a one-unit sigmoid discrimination head.
    """

    role = "shared_discriminator"

    def __init__(self, spec, rng):
        super().__init__(spec, rng)
        self.blocks, cin = _dcgan_trunk(self, "trunk")
        self.head_c = _Conv(self, "head_c", cin, spec.num_classes, 4, 1, 0, std=DCGAN_STD, bias=True)
        self.head_d = _Conv(self, "head_d", cin, 1, 4, 1, 0, std=DCGAN_STD, bias=True)
        del self._init_rng

    def forward(self, x, update_stats=True):
        h = _trunk_forward(self.blocks, x, self.training, update_stats)
        logits = self.head_c(h)
        logits = reshape(logits, (logits.shape[0], self.spec.num_classes))
        prob = self.head_d(h)
        prob = sigmoid(reshape(prob, (prob.shape[0], 1)))
        return logits, prob

    def class_logits(self, x, update_stats=True):
        logits, _ = self.forward(x, update_stats)
        return logits

    def trunk_parameter_names(self):
        return [n for n, _ in self._params.items() if n.startswith("trunk.")]

    def head_parameter_names(self, head):
        prefix = {"class": "head_c", "disc": "head_d"}[head]
        return [n for n, _ in self._params.items() if n.startswith(prefix)]


def build_network(spec, rng):
    """Dispatch on spec.role."""
    classes = (Generator, Discriminator, Classifier, SharedDiscriminator)
    return {cls.role: cls for cls in classes}[spec.role](spec, rng)
