"""Adam updates and L2 weight decay over named parameter lists.

State is keyed by parameter name, so the update is invariant to the
order in which parameters are listed. Decay is the coupled form (added
into the gradient before the Adam step) and skips biases and batch-norm
scale/shift.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

# Biases and batch-norm affine parameters are not decayed.
_EXEMPT_SUFFIXES = (".b", ".gamma", ".beta")


def apply_weight_decay(params, coefficient):
    """Add coefficient * theta into the gradient of each non-exempt param.

    Parameters without a gradient are skipped; they are not taking part
    in the current step. A coefficient of 0 leaves gradients bit-exactly
    untouched.
    """
    if coefficient == 0:
        return
    for name, p in params:
        if p.grad is None or name.endswith(_EXEMPT_SUFFIXES):
            continue
        p.grad += (coefficient * p.data).astype(p.grad.dtype)


class Adam:
    """Adam with bias correction over a list of (name, tensor) pairs.

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)
    """

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = [(n, p) for n, p in params if p.requires_grad]
        if len({n for n, _ in self.params}) != len(self.params):
            raise ContractError("duplicate parameter names")
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.step_count = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params}

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def step(self):
        missing = [n for n, p in self.params if p.grad is None]
        if missing:
            raise ContractError(f"missing gradient for {missing[0]!r} (and {len(missing) - 1} more)")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        for n, p in self.params:
            g = p.grad
            m = self.m[n]
            v = self.v[n]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
