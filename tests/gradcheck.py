"""Central-difference gradient checking shared by the op and network tests.

Two flavors: per-coordinate checks for individual ops (sample a handful of
entries, nudge each one) and directional-derivative checks for whole
networks (perturb every trainable parameter along one random direction,
compare the two scalars). Both use central differences, so truncation
error is O(eps^2).
"""

import numpy as np

from ecgan import tensor as T


def sum_all(a):
    """Sum of every element of `a` as a scalar tensor, built from ops the
    package keeps: `a` as one row, times a column of ones."""
    n = a.data.size
    ones = T.Tensor(np.ones((n, 1), dtype=a.data.dtype))
    return T.reshape(T.matmul(T.reshape(a, (1, n)), ones), ())


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def check_grads(build, leaves, eps=1e-3, tol=1e-6, samples=5, seed=0):
    """Per-coordinate check: autodiff grad of ``build()`` vs central differences.

    ``build`` must recompute the scalar loss from the current contents of
    ``leaves`` (tensors with requires_grad=True) on every call. Returns the
    worst relative error seen; asserts it stays under ``tol``.
    """
    rng = np.random.default_rng(seed)
    for t in leaves:
        t.grad = None
    T.backward(build())
    worst = 0.0
    for t in leaves:
        assert t.grad is not None, "no gradient reached a leaf"
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        for k in rng.choice(flat.size, size=min(samples, flat.size), replace=False):
            old = flat[k]
            flat[k] = old + eps
            with T.no_grad():
                lp = build().item()
            flat[k] = old - eps
            with T.no_grad():
                lm = build().item()
            flat[k] = old
            numeric = (lp - lm) / (2.0 * eps)
            worst = max(worst, rel_err(numeric, float(gflat[k])))
    assert worst < tol, f"worst relative gradient error {worst:.3e} >= {tol:g}"
    return worst


def check_directional_grid(build, params, eps_grid=(1e-4, 3e-5, 1e-5), tol=1e-3, seed=0):
    """Directional FD check over an eps grid; the instance passes at its best eps.

    In 32-bit, no single step size is artifact-free: larger steps cross
    relu kinks (error shrinking with eps), smaller ones hit the rounding
    floor (error growing as eps falls). A correct gradient passes
    somewhere on the grid; a wrong one (scale, sign, transposed buffer)
    fails everywhere, since those errors dwarf both artifacts.
    """
    best = None
    for eps in eps_grid:
        try:
            err = check_directional(build, params, eps=eps, tol=tol, seed=seed)
        except AssertionError:
            continue
        best = err if best is None else min(best, err)
    assert best is not None, f"directional check failed at every eps in {eps_grid}"
    return best


def check_directional(build, params, eps=3e-5, tol=1e-3, seed=0):
    """Directional check: <grad, d> vs (L(p + eps d) - L(p - eps d)) / (2 eps).

    Perturbs every parameter at once along one unit direction, which
    exercises the full network backward in a single comparison. The
    direction is mostly the gradient itself with a random admixture, so
    the derivative stands well clear of the 32-bit rounding floor while
    off-gradient coordinates still participate.
    """
    rng = np.random.default_rng(seed)

    for p in params:
        p.grad = None
    T.backward(build())

    dirs = []
    gnorm = np.sqrt(sum(float((p.grad * p.grad).sum()) for p in params if p.grad is not None))
    rand = [rng.normal(size=p.shape) for p in params]
    rnorm = np.sqrt(sum(float((d * d).sum()) for d in rand))
    for p, r in zip(params, rand):
        g = p.grad if p.grad is not None else 0.0
        dirs.append(g / max(gnorm, 1e-30) + 0.25 * r / rnorm)
    norm = np.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / norm for d in dirs]

    # Quantize the perturbed points first and take the analytic derivative
    # along the direction that was *actually applied*, else float32
    # rounding of p +- eps*d shows up as a constant-in-eps discrepancy.
    saved = [p.data.copy() for p in params]
    plus = [(s.astype(np.float64) + eps * d).astype(p.data.dtype) for p, s, d in zip(params, saved, dirs)]
    minus = [(s.astype(np.float64) - eps * d).astype(p.data.dtype) for p, s, d in zip(params, saved, dirs)]
    analytic = sum(
        float((p.grad * (pp.astype(np.float64) - pm.astype(np.float64))).sum()) / (2.0 * eps)
        for p, pp, pm in zip(params, plus, minus)
        if p.grad is not None
    )

    for p, pp in zip(params, plus):
        p.data[...] = pp
    with T.no_grad():
        lp = build().item()
    for p, pm in zip(params, minus):
        p.data[...] = pm
    with T.no_grad():
        lm = build().item()
    for p, s in zip(params, saved):
        p.data[...] = s

    numeric = (lp - lm) / (2.0 * eps)
    err = rel_err(numeric, analytic)
    assert err < tol, f"directional derivative error {err:.3e} >= {tol:g} (fd {numeric:.6g}, ad {analytic:.6g})"
    return err
