"""Adam and weight-decay behaviour against hand-computed oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ecgan.tensor as T
from ecgan.errors import ContractError
from ecgan.optim import Adam, apply_weight_decay
from ecgan.tensor import Tensor


def _param(value, name="w"):
    p = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    return name, p


def adam_scalar_oracle(theta, grads, lr, beta1, beta2, eps):
    """Reference Adam on one scalar, written straight from the update rule."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


# -- single steps -----------------------------------------------------------


def test_first_step_moves_by_lr():
    # After one step m_hat == g and v_hat == g^2, so the move is
    # lr * g / (|g| + eps): almost exactly lr in magnitude, sign of g.
    name, p = _param([2.0, -3.0])
    p.grad = np.array([0.5, -4.0])
    Adam([(name, p)], lr=0.01).step()
    np.testing.assert_allclose(p.data, [2.0 - 0.01, -3.0 + 0.01], atol=1e-9)


def test_zero_grad_step_is_noop():
    name, p = _param([1.0, -1.0])
    p.grad = np.zeros(2)
    opt = Adam([(name, p)], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -1.0])


def test_five_step_trace_matches_scalar_oracle():
    grads = [0.3, -1.2, 0.05, 2.0, -0.7]
    name, p = _param([10.0])
    opt = Adam([(name, p)], lr=0.05, betas=(0.9, 0.999))
    for g in grads:
        p.grad = np.array([g])
        opt.step()
    expect = adam_scalar_oracle(10.0, grads, 0.05, 0.9, 0.999, 1e-8)
    np.testing.assert_allclose(p.data, [expect], rtol=1e-12)


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8),
       st.floats(0.1, 0.95), st.floats(0.9, 0.9999))
def test_adam_matches_oracle_for_any_schedule(grads, beta1, beta2):
    name, p = _param([0.5])
    opt = Adam([(name, p)], lr=0.01, betas=(beta1, beta2))
    for g in grads:
        p.grad = np.array([g])
        opt.step()
    expect = adam_scalar_oracle(0.5, grads, 0.01, beta1, beta2, 1e-8)
    np.testing.assert_allclose(p.data, [expect], rtol=1e-10, atol=1e-12)


def test_update_invariant_to_parameter_order():
    rng = np.random.default_rng(0)
    values = {f"p{i}": rng.normal(size=(3,)) for i in range(4)}
    grads = {n: rng.normal(size=(3,)) for n in values}

    def run(order):
        params = [(n, Tensor(values[n].copy(), requires_grad=True)) for n in order]
        opt = Adam(params, lr=0.01)
        for _ in range(3):
            for n, p in params:
                p.grad = grads[n].copy()
            opt.step()
        return {n: p.data.copy() for n, p in params}

    fwd = run(["p0", "p1", "p2", "p3"])
    rev = run(["p3", "p2", "p1", "p0"])
    for n in values:
        np.testing.assert_array_equal(fwd[n], rev[n])


def test_step_without_grad_raises():
    name, p = _param([1.0])
    opt = Adam([(name, p)], lr=0.1)
    with pytest.raises(ContractError, match="missing gradient"):
        opt.step()


def test_duplicate_names_rejected():
    _, p = _param([1.0])
    _, q = _param([2.0])
    with pytest.raises(ContractError, match="duplicate"):
        Adam([("w", p), ("w", q)], lr=0.1)


def test_zero_grad_clears_all():
    name, p = _param([1.0])
    p.grad = np.ones(1)
    opt = Adam([(name, p)], lr=0.1)
    opt.zero_grad()
    assert p.grad is None


def test_non_trainable_params_are_dropped():
    _, p = _param([1.0])
    q = Tensor(np.zeros(1), requires_grad=False)
    opt = Adam([("w", p), ("stat", q)], lr=0.1)
    assert [n for n, _ in opt.params] == ["w"]


def test_descends_quadratic():
    # Minimize (theta - 3)^2; Adam should land near 3 from far away.
    name, p = _param([-5.0])
    opt = Adam([(name, p)], lr=0.1)
    for _ in range(500):
        p.grad = 2.0 * (p.data - 3.0)
        opt.step()
    assert abs(p.data[0] - 3.0) < 1e-2


# -- weight decay -----------------------------------------------------------


def test_default_exemptions():
    names = ["blocks.0.conv.b", "blocks.1.bn.gamma", "bn0.beta", "blocks.0.conv.w", "proj.w"]
    params = [_param([1.0], name=n) for n in names]
    for _, p in params:
        p.grad = np.zeros(1)
    apply_weight_decay(params, 0.5)
    decayed = [n for n, p in params if p.grad[0] != 0.0]
    assert decayed == ["blocks.0.conv.w", "proj.w"]


def test_decay_adds_scaled_weights_to_grad():
    name, p = _param([[1.0, -2.0]], name="fc.w")
    p.grad = np.array([[0.5, 0.5]])
    apply_weight_decay([(name, p)], 0.001)
    np.testing.assert_allclose(p.grad, [[0.5 + 0.001, 0.5 - 0.002]], rtol=1e-12)


def test_decay_skips_exempt_and_gradless():
    nb, b = _param([1.0], name="fc.b")
    b.grad = np.array([0.25])
    nw, w = _param([1.0], name="fc.w")
    w.grad = None
    apply_weight_decay([(nb, b), (nw, w)], 0.5)
    np.testing.assert_array_equal(b.grad, [0.25])
    assert w.grad is None


def test_zero_coefficient_is_bit_exact_noop():
    name, p = _param([3.0], name="fc.w")
    g = np.array([0.125])
    p.grad = g
    apply_weight_decay([(name, p)], 0.0)
    assert p.grad is g  # early return: same object, not merely equal


def test_decay_equivalent_to_l2_gradient():
    # Adam(decayed grad) == Adam(grad of loss + c/2 * ||w||^2).
    rng = np.random.default_rng(1)
    w0 = rng.normal(size=(4,))
    g0 = rng.normal(size=(4,))
    c = 0.01

    name, p = _param(w0, name="fc.w")
    p.grad = g0.copy()
    apply_weight_decay([(name, p)], c)
    opt = Adam([(name, p)], lr=0.05)
    opt.step()

    name2, q = _param(w0, name="fc.w")
    q.grad = g0 + c * w0  # analytic gradient of the penalized loss
    Adam([(name2, q)], lr=0.05).step()
    np.testing.assert_allclose(p.data, q.data, rtol=1e-14)


def test_decay_keeps_grad_dtype():
    with T.precision(np.float32):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        p.grad = np.ones(2, dtype=np.float32)
        apply_weight_decay([("fc.w", p)], 0.001)
        assert p.grad.dtype == np.float32
