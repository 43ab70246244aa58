"""Checks that share no code with the solver and pin no bits.

An optimality oracle holds every converged benchmark run of every method to
the strong-convexity bounds around a minimizer computed with numpy alone;
``test_invariance.py`` holds the property-based checks.
"""
import numpy as np
import pytest

from conftest import Transformed
from ellipcenters import (BenchConfig, GenParams, SolverConfig, Termination,
                          generate_instance, minimize, run_benchmark)

METHODS = ("me", "bb-long", "bb-short", "gd")


def numpy_oracle(problem):
    """(x*, f*, mu, f, grad f) of a generated instance, from numpy alone."""
    if hasattr(problem, "a"):
        a, b = np.asarray(problem.a), problem.b
        x_star = np.linalg.solve(a, b)
        return (x_star, -0.5 * float(b @ x_star), float(np.linalg.eigvalsh(a)[0]),
                lambda x: 0.5 * float(x @ (a @ x)) - float(b @ x),
                lambda x: a @ x - b)
    alpha, beta = problem.alpha, problem.beta

    def f(x):
        z = alpha * x * x
        return float(z.max() + np.log(np.exp(z - z.max()).sum()) + beta @ (x * x))

    def grad(x):
        z = alpha * x * x
        w = np.exp(z - z.max())
        return 2.0 * x * (alpha * w / w.sum() + beta)

    n = alpha.size
    return np.zeros(n), float(np.log(n)), 2.0 * float(beta.min()), f, grad


@pytest.mark.parametrize("kind,params", [
    ("quadratic", GenParams(kappa=30.0)),
    ("logsumexp", GenParams()),
])
def test_every_method_meets_the_optimality_bounds(kind, params):
    # |x - x*| <= |g|/mu and f* <= f <= f* + |g|^2 / (2 mu) for a
    # mu-strongly convex f, with g and f recomputed at the returned point
    cfg = BenchConfig(kind=kind, sizes=(30,), instances_per_size=3, epsilon=1e-6,
                      base_seed=5, methods=METHODS, params=params, max_iterations=5000)
    _, details = run_benchmark(cfg)
    assert sorted({d.method for d in details}) == sorted(METHODS)
    for d in details:
        problem, _ = generate_instance(kind, d.n, d.seed, params)
        x_star, f_star, mu, f, grad = numpy_oracle(problem)
        x = d.run.x_final
        gnorm = float(np.linalg.norm(grad(x)))
        slack = 1e-12 * (1.0 + abs(f_star))
        label = f"{d.method} seed {d.seed}"
        assert d.termination == "converged", label
        # the oracle's own gradient meets epsilon up to its rounding
        assert gnorm <= 1e-6 * (1.0 + 1e-12), label
        assert np.linalg.norm(x - x_star) <= gnorm / mu + 1e-12, label
        assert f_star - slack <= f(x) <= f_star + gnorm**2 / (2.0 * mu) + slack, label
        assert d.run.f_final == pytest.approx(f(x), rel=1e-12, abs=1e-12), label


def test_large_shift_keeps_the_iteration_count():
    # at f + 1e10 the value equation of the level step drowns in rounding,
    # and the slope path carries the run
    p, x0 = generate_instance("quadratic", 20, 0, GenParams(kappa=100.0))
    plain = minimize(Transformed(p), x0, SolverConfig(epsilon=1e-6))
    shifted = minimize(Transformed(p, shift=1e10), x0, SolverConfig(epsilon=1e-6))
    assert plain.termination is shifted.termination is Termination.CONVERGED
    assert shifted.iterations <= 1.2 * plain.iterations
