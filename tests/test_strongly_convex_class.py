"""The paper proves convergence for every differentiable mu-strongly convex
f, not only for the two families with closed-form minimizers and lines of
their own.  The objectives here (``conftest.RegularizedLoss``) have no
``along``, so every method runs on the generic line.  Huber's second
derivative jumps, so the parabola symmetry behind the quadratic proof fails
there.

Each run must converge to within |g| / mu of the minimizer, and every ME step
must meet the strong-convexity certificates: f_mid <= f - (mu / 8) (t |g|)^2
at the chord midpoint, and f_next <= f_mid.

Kept out of this file because they take seconds (m = 120, n = 40, eps 1e-6,
seeds 0-2, both ME variants): Huber with cond 1, mu 1e-2 and delta 1e-3
(6586-11437 iterations) and with cond 30 and delta 1 (2401-10992).  With
cond 30 and delta 1e-3, ME stops at a 20,000-iteration cap.
"""
import functools
import math

import numpy as np
import pytest

from conftest import AffineLogSumExp, Huber, Logistic
from ellipcenters import SolverConfig, Termination, run_method

EPS = float(np.finfo(float).eps)
ROUNDING = 8.0 * EPS  # times (1 + |f|): the slack for rounding
LEVEL_TOL = 1e-10  # times (1 + |f|): the level step's tolerance
EPSILON = 1e-6
METHODS = [("me", "semiline-min"), ("me", "decrease-search"), ("bb-long", "semiline-min"),
           ("bb-short", "semiline-min"), ("gd", "semiline-min")]
PROBLEMS = (
    [(cls, 200, 50, mu, seed, {}) for cls in (Logistic, AffineLogSumExp)
     for mu in (1.0, 1e-2, 1e-4) for seed in range(4)]
    + [(Huber, 120, 40, mu, seed, dict(delta=delta)) for mu, delta in
       [(1.0, 1.0), (1e-2, 1.0), (1.0, 1e-3)] for seed in range(3)])


def _id(case):
    cls, m, n, mu, seed, extra = case
    return "-".join([cls.__name__, f"mu{mu:g}", *(f"{k}{v:g}" for k, v in extra.items()),
                     f"seed{seed}"])


@functools.lru_cache(maxsize=None)
def _problem(case_id):
    cls, m, n, mu, seed, extra = next(c for c in PROBLEMS if _id(c) == case_id)
    return cls(m, n, mu, seed, **extra)


@functools.lru_cache(maxsize=None)
def _minimizer(case_id):
    """x* from L-BFGS-B, and the norm of the gradient there."""
    optimize = pytest.importorskip("scipy.optimize")
    p = _problem(case_id)
    res = optimize.minimize(p.value, p.x0, jac=p.gradient, method="L-BFGS-B",
                            options=dict(gtol=1e-13, ftol=0.0, maxiter=10_000))
    return res.x, float(np.linalg.norm(p.gradient(res.x)))


@pytest.mark.parametrize("method,variant", METHODS, ids=lambda v: v)
@pytest.mark.parametrize("case", PROBLEMS, ids=_id)
def test_converges_within_the_strong_convexity_bound(case, method, variant):
    p = _problem(_id(case))
    run = run_method(method, p, p.x0, SolverConfig(epsilon=EPSILON, variant=variant))
    assert run.termination is Termination.CONVERGED, run.message
    # |x - x_true| <= |g(x)| / mu, and x* is within |g(x*)| / mu of x_true
    x_star, g_star = _minimizer(_id(case))
    assert np.linalg.norm(run.x_final - x_star) <= (run.grad_norm_final + g_star) / p.mu
    if method != "me":
        return
    for rec, nxt in zip(run.iterates[:-1], run.iterates[1:]):
        # t is a level step and f_mid the value at the chord midpoint, both
        # taken pointwise; a semiline-min step that did not stay at the
        # midpoint took no f_mid, and records NaN
        g = p.gradient(rec.x)
        assert abs(p.value(rec.x - rec.t * g) - rec.f) <= LEVEL_TOL * (1.0 + abs(rec.f))
        slack = ROUNDING * (1.0 + abs(rec.f))
        f_mid = p.value(rec.x - 0.5 * rec.t * g)
        assert math.isnan(rec.f_mid) or abs(f_mid - rec.f_mid) <= slack
        assert f_mid <= rec.f - p.mu / 8.0 * (rec.t * rec.grad_norm) ** 2 + slack
        assert nxt.f <= f_mid + slack
