"""Per-layer tracing of the ecgan package, installed from outside it.

`install(tracer)` replaces the public functions and methods of the
layers with timing wrappers, in every ecgan module that holds them, so
the spans cover the calls as the callers make them (`networks` and
`training` import the tensor ops by name). A tensor op's backward time
is taken by wrapping the `backward_fn` of the node the op returns.
Nothing under `src/` changes; without `install` the package runs
untouched.

Spans stay in memory as (op, name, start, end, parent) tuples and are
written out once the run ends. `layer_metrics` turns the spans and
counters of one operation into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

# The tensor ops the package calls, by the metric group they report under.
OP_GROUPS = {
    "conv2d": "conv2d",
    "conv_transpose2d": "conv_transpose2d",
    "matmul": "matmul",
    "batchnorm2d": "batchnorm2d",
    "cross_entropy": "loss",
    "bce": "loss",
    **{op: "elementwise" for op in (
        "add", "scale", "reshape", "concat_channels", "take_rows",
        "spatial_mean", "relu", "leaky_relu", "tanh", "sigmoid", "softmax",
    )},
}

NETWORKS = ("Generator", "Discriminator", "Classifier", "SharedDiscriminator")
TRAINING_STEPS = ("discriminator_step", "generator_step", "classifier_step", "shared_step")


def _conv_macs(out, x, w, *args, **kwargs):
    return out.data.size * w.shape[1] * w.shape[2] * w.shape[3]


def _conv_transpose_macs(out, x, w, *args, **kwargs):
    return x.data.size * w.shape[1] * w.shape[2] * w.shape[3]


def _matmul_macs(out, a, b):
    return a.shape[0] * a.shape[1] * b.shape[1]


# Work counted per call: (counter suffix, scale, function of the output and arguments).
OP_WORK = {
    "conv2d": ("gmac", 1e-9, _conv_macs),
    "conv_transpose2d": ("gmac", 1e-9, _conv_transpose_macs),
    "matmul": ("gmac", 1e-9, _matmul_macs),
    "batchnorm2d": ("melems", 1e-6, lambda out, x, *args, **kwargs: x.data.size),
}


class Tracer:
    """Spans and counters of the operation currently being traced.

    `op` is the index of that operation, or None while tracing is off;
    wrappers then call straight through.
    """

    def __init__(self):
        self.op = None
        self.spans = []
        self.counts = defaultdict(float)  # (op, counter name) -> total
        self._stack = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (self.op, name, start, end, parent)

    def add(self, name, value):
        self.counts[(self.op, name)] += value

    def write(self, path):
        """Write every span as one JSON line: op, name, start, end, parent index."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _traced(tracer, name, fn, counters=None):
    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        out = tracer.call(name, fn, args, kwargs)
        if counters is not None:
            for key, value in counters(out, *args, **kwargs).items():
                tracer.add(key, value)
        return out

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _traced_op(tracer, op, fn):
    fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"
    work = OP_WORK.get(op)

    def timed_backward(backward_fn):
        return lambda g: tracer.call(bwd, backward_fn, (g,), {})

    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        out = tracer.call(fwd, fn, args, kwargs)
        if work is not None:
            suffix, unit, count = work
            tracer.add(f"tensor.{OP_GROUPS[op]}.{suffix}", unit * count(out, *args, **kwargs))
        if out.node is not None:
            out.node.backward_fn = timed_backward(out.node.backward_fn)
        return out

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _traced_batches(tracer, fn):
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        if tracer.op is None:
            yield from it
            return
        while True:
            try:
                batch = tracer.call("data.batches", next, (it,), {})
            except StopIteration:
                return
            tracer.add("data.batches.batches", 1)
            yield batch

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _replace_everywhere(modules, original, replacement):
    """Point every module attribute that holds `original` at `replacement`."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap the public calls of each ecgan layer with spans and counters."""
    from ecgan import checkpoint, data, harness, networks, optim, pgm, tensor, training

    modules = (checkpoint, data, harness, networks, optim, pgm, tensor, training)

    def replace(original, replacement):
        _replace_everywhere(modules, original, replacement)

    for op in OP_GROUPS:
        original = getattr(tensor, op)
        replace(original, _traced_op(tracer, op, original))
    replace(tensor.backward, _traced(tracer, "tensor.backward", tensor.backward))

    for cls_name in NETWORKS:
        cls = getattr(networks, cls_name)
        original = cls.forward
        wrapped = _traced(tracer, f"networks.{cls_name}.forward", original)
        cls.forward = wrapped
        if cls.__dict__.get("__call__") is original:
            cls.__call__ = wrapped

    optim.Adam.step = _traced(tracer, "optim.Adam.step", optim.Adam.step)
    replace(optim.apply_weight_decay,
            _traced(tracer, "optim.apply_weight_decay", optim.apply_weight_decay))

    for step in TRAINING_STEPS:
        original = getattr(training, step)
        replace(original, _traced(tracer, f"training.{step}", original))
    replace(training.pseudo_label, _traced(
        tracer, "training.pseudo_label", training.pseudo_label,
        lambda out, logits, threshold: {
            "training.pseudo_label.generated": logits.shape[0],
            "training.pseudo_label.kept": out.count,
        },
    ))
    replace(training.evaluate, _traced(
        tracer, "training.evaluate", training.evaluate,
        lambda out, net, dataset, *args, **kwargs: {"training.evaluate.img": len(dataset)},
    ))

    replace(data.synth_shapes, _traced(
        tracer, "data.synth_shapes", data.synth_shapes,
        lambda out, *args, **kwargs: {"data.synth_shapes.img": len(out)},
    ))
    replace(data.batches, _traced_batches(tracer, data.batches))

    for name in ("run_cell", "cmd_eval", "cmd_generate"):
        original = getattr(harness, name)
        replace(original, _traced(tracer, f"harness.{name}", original))

    def file_bytes(key):
        return lambda out, path, *args, **kwargs: {key: os.path.getsize(path)}

    replace(checkpoint.save_checkpoint, _traced(
        tracer, "checkpoint.save_checkpoint", checkpoint.save_checkpoint,
        file_bytes("checkpoint.save_checkpoint.bytes"),
    ))
    replace(checkpoint.load_checkpoint, _traced(
        tracer, "checkpoint.load_checkpoint", checkpoint.load_checkpoint,
        file_bytes("checkpoint.load_checkpoint.bytes"),
    ))
    replace(pgm.write_grid, _traced(tracer, "pgm.write_grid", pgm.write_grid))


def span_times(tracer, op):
    """Per span name: inclusive seconds, self seconds (for spans with
    children), and calls in one operation; plus the summed duration of the
    operation's top-level spans."""
    inclusive = defaultdict(float)
    children = defaultdict(float)
    calls = defaultdict(int)
    own = [(i, s) for i, s in enumerate(tracer.spans) if s[0] == op]
    for _, (_, name, start, end, parent) in own:
        inclusive[name] += end - start
        calls[name] += 1
        children[parent] += end - start
    self_time = defaultdict(float)
    for i, (_, name, start, end, _) in own:
        if i in children:
            self_time[name] += (end - start) - children[i]
    return inclusive, self_time, calls, children.get(-1, 0.0)


def layer_metrics(tracer, op, wall_s):
    """Per-layer metrics of operation `op`, which took `wall_s`; a layer the
    operation never entered is absent."""
    inclusive, self_time, calls, top_level = span_times(tracer, op)
    values = defaultdict(float)
    for name in inclusive:
        values[f"{name}.s"] = inclusive[name]
        values[f"{name}.calls"] = calls[name]
        if name in self_time:
            values[f"{name}.self_s"] = self_time[name]
        parts = name.split(".")
        if parts[0] == "tensor" and parts[-1] in ("fwd", "bwd"):
            group = OP_GROUPS[parts[1]]
            values[f"tensor.{group}.{parts[-1]}_s"] += inclusive[name]
            if parts[-1] == "fwd":
                values[f"tensor.{group}.calls"] += calls[name]
            else:
                values["tensor.backward.nodes"] += calls[name]
    for (count_op, name), value in tracer.counts.items():
        if count_op == op:
            values[name] += value
    generated = values["training.pseudo_label.generated"]
    values["training.pseudo_label.keep_ratio"] = (
        values["training.pseudo_label.kept"] / generated if generated else 0.0
    )
    values["trace.unaccounted_frac"] = 1.0 - top_level / wall_s
    return dict(values)
