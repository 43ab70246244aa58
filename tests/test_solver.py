import hashlib

import numpy as np
import pytest

from conftest import NaNGradientAfter
from ellipcenters import (GenParams, QuadraticProblem, SolverConfig,
                          StationaryPointError, Termination, Variant,
                          generate_instance, me_step, minimize, run_method,
                          semiline_search)
from ellipcenters.objectives import restrict


class TestMeStep:
    def test_radial_symmetry_takes_midpoint_to_minimizer(self):
        p = QuadraticProblem(np.eye(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        x_next, diag = me_step(p, x)
        assert diag.branch == "midpoint"  # grad at y = -x is collinear
        assert np.linalg.norm(x_next) <= 1e-8

    def test_two_dimensional_quadratic_one_shot(self):
        p = QuadraticProblem(np.diag([1.0, 4.0]), np.zeros(2))
        x_next, diag = me_step(p, np.array([1.0, 1.0]))
        assert diag.branch == "ellipse"
        assert np.linalg.norm(x_next) <= 1e-10

    def test_descent_contract_both_branches(self):
        for kind in ("quadratic", "logsumexp"):
            p, x0 = generate_instance(kind, 10, 3, GenParams(kappa=100))
            x_next, diag = me_step(p, x0)
            f0 = p.value(x0)
            assert diag.f_next <= diag.f_mid
            assert diag.f_mid < f0
            assert p.value(x_next) == pytest.approx(diag.f_next, abs=1e-12)

    def test_rejects_already_converged_point(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        with pytest.raises(StationaryPointError):
            me_step(p, np.array([1e-6, 0.0]))

    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_next_gradient_comes_from_the_searched_line(self, kind):
        p, x0 = generate_instance(kind, 10, 3, GenParams(kappa=100))
        x_next, diag = me_step(p, x0)
        assert diag.branch == "ellipse"
        g = p.gradient(x_next)
        if kind == "quadratic":
            assert np.linalg.norm(diag.g_next - g) <= 1e-12 * np.linalg.norm(g)
        else:  # the generic line evaluates at the same bits as x_next
            assert np.array_equal(diag.g_next, g)

    def test_level_point_gradient_never_uphill_along_ray(self):
        # the ray re-crosses the level set going uphill, so the gradients at
        # x and at the level point have a nonpositive inner product
        p, x = generate_instance("logsumexp", 12, 8)
        for _ in range(6):
            g = p.gradient(x)
            if np.linalg.norm(g) <= 0.01:
                break
            x_next, diag = me_step(p, x)
            assert p.gradient(diag.y) @ g <= 1e-9
            x = x_next


def search(p, base, d, variant, scale=1.0):
    """The semiline search's v on the line {base + v d} of p, from v = scale."""
    line = restrict(p, base, d)
    v, _ = semiline_search(line, variant, SolverConfig(), scale=scale,
                           f_base=line.value(0.0))
    return v


class TestSemilineSearch:
    def test_sphere_lands_at_origin(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        v = search(p, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), Variant.SEMILINE_MIN)
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_ascent_direction_returns_zero(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        v = search(p, np.array([1.0, 0.0]), np.array([1.0, 0.0]), Variant.SEMILINE_MIN)
        assert v == pytest.approx(0.0, abs=1e-6)

    def test_shifted_quadratic_vertex(self):
        # f restricted to the ray is (v - 0.7)^2 + 1
        p = QuadraticProblem(np.diag([2.0, 2.0]), np.array([1.4, 0.0]))
        base = np.zeros(2)
        d = np.array([1.0, 0.0])
        v = search(p, base, d, Variant.SEMILINE_MIN)
        assert v == pytest.approx(0.7, abs=1e-8)

    def test_decrease_search_beats_the_base(self):
        p, x0 = generate_instance("logsumexp", 8, 1)
        base = 0.9 * x0
        d = -p.gradient(base)
        d = d / np.linalg.norm(d)
        v = search(p, base, d, Variant.DECREASE_SEARCH, scale=1.0)
        assert v > 0.0
        assert p.value(base + v * d) < p.value(base)


def krylov_plane_step(a, b, x):
    """Minimizer of 0.5 x'Ax - b'x over x + span{g, Ag} and the decrease in f
    it achieves: a 2x2 solve on an orthonormal basis of the plane, numpy only."""
    g = a @ x - b
    q, _ = np.linalg.qr(np.column_stack([g, a @ g]))
    qg = q.T @ g
    c = np.linalg.solve(q.T @ (a @ q), qg)
    return x - q @ c, 0.5 * float(qg @ c)


class TestKrylovPlaneOracle:
    # on a quadratic the exact semiline step minimizes f over x + span{g, Ag};
    # checked on the kappa = 1000 instances of acceptance criterion 6 and on
    # mildly conditioned ones
    @pytest.mark.parametrize("kappa", [1000.0, 10.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_semiline_min_matches_plane_minimizer(self, seed, kappa):
        p, x0 = generate_instance("quadratic", 100, seed, GenParams(kappa=kappa))
        a, b = p.a, p.b

        def f(x):
            return 0.5 * float(x @ (a @ x)) - float(b @ x)

        run = minimize(p, x0, SolverConfig(epsilon=0.01, max_iterations=2000))
        assert run.termination is Termination.CONVERGED
        worst = np.inf
        for rec, nxt in zip(run.iterates[:-1], run.iterates[1:]):
            assert rec.branch == "ellipse"
            _, oracle_decrease = krylov_plane_step(a, b, rec.x)
            worst = min(worst, (f(rec.x) - f(nxt.x)) / oracle_decrease)
        assert worst >= 1.0 - 1e-5

        x, oracle_iterations = x0, 0
        while np.linalg.norm(a @ x - b) > 0.01 and oracle_iterations < 2000:
            x, _ = krylov_plane_step(a, b, x)
            oracle_iterations += 1
        assert run.iterations == oracle_iterations


class ValueAndGradientOnly:
    """Exposes only dimension, value and gradient, so every query along a ray
    takes the generic line even when the wrapped objective has a cheaper one."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def dimension(self):
        return self.inner.dimension

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        return self.inner.gradient(x)


class TestFastPathMatchesGeneric:
    # a quadratic's own line restriction must reproduce the iterates of the
    # generic value/gradient line; x and f are compared relative to 1 + |.|
    # because f crosses zero on the way to its minimum
    @pytest.mark.parametrize("variant,n,kappa,seed", [
        *[(Variant.SEMILINE_MIN, 100, kappa, seed)
          for kappa in (10.0, 1000.0) for seed in (0, 1, 2)],
        *[(Variant.SEMILINE_MIN, 2, 50.0, seed) for seed in (0, 1, 2)],
        # decrease-search accepts the first sample below the midpoint value,
        # so at kappa = 1000 rounding can flip a sample and the runs part
        *[(Variant.DECREASE_SEARCH, 100, 10.0, seed) for seed in (0, 1, 2)],
    ])
    def test_quadratic_iterates(self, variant, n, kappa, seed):
        p, x0 = generate_instance("quadratic", n, seed, GenParams(kappa=kappa))
        cfg = SolverConfig(epsilon=0.01, max_iterations=2000, variant=variant)
        fast = minimize(p, x0, cfg)
        generic = minimize(ValueAndGradientOnly(p), x0, cfg)
        assert fast.termination is generic.termination is Termination.CONVERGED
        assert fast.iterations == generic.iterations
        assert [r.branch for r in fast.iterates] == [r.branch for r in generic.iterates]
        for a, b in zip(fast.iterates, generic.iterates):
            assert np.linalg.norm(a.x - b.x) <= 1e-6 * (1.0 + np.linalg.norm(b.x))
            assert abs(a.f - b.f) <= 1e-6 * (1.0 + abs(b.f))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_logsumexp_bit_identical(self, variant):
        p, x0 = generate_instance("logsumexp", 50, 4)
        cfg = SolverConfig(epsilon=1e-8, variant=variant)
        direct = minimize(p, x0, cfg)
        generic = minimize(ValueAndGradientOnly(p), x0, cfg)
        assert (direct.iterations, direct.n_value_evals, direct.n_grad_evals) == (
            generic.iterations, generic.n_value_evals, generic.n_grad_evals)
        for a, b in zip(direct.iterates, generic.iterates):
            assert np.array_equal(a.x, b.x)
            assert a.f == b.f and a.branch == b.branch


class CallCounter:
    """Counts the objective's pointwise value and gradient calls and passes
    its line restriction through."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.calls = {"value": 0, "gradient": 0}

    def value(self, x):
        self.calls["value"] += 1
        return self.inner.value(x)

    def gradient(self, x):
        self.calls["gradient"] += 1
        return self.inner.gradient(x)

    def along(self, x, d, f=None, g=None):
        return self.inner.along(x, d, f, g)


class TestMatvecBudget:
    # an ellipse iteration on a quadratic takes A grad f(x) for the level
    # line, and A base and A d for the semiline; every gradient along the
    # way comes from those lines
    @pytest.mark.parametrize("variant", list(Variant))
    def test_three_products_per_ellipse_iteration(self, variant, count_products):
        p, x0 = generate_instance("quadratic", 40, 1, GenParams(kappa=10))
        matrix = count_products(p)
        obj = CallCounter(p)
        run = minimize(obj, x0, SolverConfig(epsilon=1e-6, variant=variant))
        assert run.termination is Termination.CONVERGED
        assert run.iterations >= 5
        assert all(r.branch == "ellipse" for r in run.iterates[:-1])
        assert matrix.products == 2 + 3 * run.iterations
        assert obj.calls == {"value": 1, "gradient": 1}


def test_evaluations_per_iteration_budget():
    # the level step and the semiline search are root finds on r(t)/t and on
    # the slope; with bisection and golden section they took 81.5
    # evaluations per iteration here
    p, x0 = generate_instance("logsumexp", 1000, 7)
    run = minimize(p, x0, SolverConfig(epsilon=0.01))
    assert run.termination is Termination.CONVERGED
    assert run.evaluations <= 21 * run.iterations


class TestPinnedLogSumExpRuns:
    # recorded when every one-dimensional search moved onto the one
    # root-finding kernel; a change to a search's arithmetic shows here
    # first (the pins also hold numpy's exp and log rounding on this platform)
    @pytest.mark.parametrize("variant,iterations,digest", [
        (Variant.SEMILINE_MIN, 9,
         "864777358bcc9481a7f4a2808781480bb1256288b32511590bf0259d0803237b"),
        (Variant.DECREASE_SEARCH, 10,
         "fd28b417db0f40700d558d88d67f458970139a40d2925a2c88480926cd0f8c87"),
    ])
    def test_iterates_bit_identical(self, variant, iterations, digest):
        p, x0 = generate_instance("logsumexp", 50, 4)
        run = minimize(p, x0, SolverConfig(epsilon=1e-8, variant=variant))
        assert run.termination is Termination.CONVERGED
        assert run.iterations == iterations
        x_bytes = b"".join(r.x.tobytes() for r in run.iterates)
        assert hashlib.sha256(x_bytes).hexdigest() == digest
        assert run.f_final.hex() == "0x1.f4bd2b7ac1bafp+1"


class TestPinnedBaselineRuns:
    # on the instance TestPinnedLogSumExpRuns pins; the exact steps solve
    # for a zero slope, which stays accurate below f's rounding floor, so gd
    # reaches eps = 1e-8 too
    @pytest.mark.parametrize("method,iterations,n_value,n_grad,termination", [
        ("bb-long", 18, 19, 24, Termination.CONVERGED),
        ("bb-short", 17, 18, 23, Termination.CONVERGED),
        ("gd", 24, 25, 87, Termination.CONVERGED),
    ])
    def test_counts_and_final_value(self, method, iterations, n_value, n_grad,
                                    termination):
        p, x0 = generate_instance("logsumexp", 50, 4)
        run = run_method(method, p, x0, epsilon=1e-8)
        assert run.termination is termination
        assert (run.iterations, run.n_value_evals, run.n_grad_evals) == (
            iterations, n_value, n_grad)
        assert run.f_final.hex() == "0x1.f4bd2b7ac1bafp+1"


class InfiniteAtStart:
    """x.x everywhere except at the start point, where it is +inf."""

    dimension = 2

    def __init__(self, x0):
        self.x0 = x0

    def value(self, x):
        return float("inf") if np.array_equal(x, self.x0) else float(x @ x)

    def gradient(self, x):
        return 2.0 * np.asarray(x)


class TestMinimize:
    def test_nonfinite_start_value_named(self):
        x0 = np.array([1.0, -2.0])
        run = minimize(InfiniteAtStart(x0), x0)
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message == "non-finite objective value"
        assert run.iterations == 0

    def test_stationary_start_reports_zero_iterations(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        run = minimize(p, np.array([1e-8, 0.0]))
        assert run.termination is Termination.CONVERGED
        assert run.iterations == 0
        assert len(run.iterates) == 1

    def test_two_dimensional_newton_equivalence(self):
        for seed in range(20):
            p, x0 = generate_instance("quadratic", 2, seed, GenParams(kappa=50))
            run = minimize(p, x0, SolverConfig(epsilon=1e-8, max_iterations=4))
            assert run.termination is Termination.CONVERGED
            assert run.iterations <= 2
            first_ellipse = next(k for k, r in enumerate(run.iterates[:-1])
                                 if r.branch == "ellipse")
            xs = np.linalg.solve(p.a, p.b)
            assert np.linalg.norm(run.iterates[first_ellipse + 1].x - xs) <= 1e-8

    def test_quadratic_convergence_and_distance_bound(self):
        p, x0 = generate_instance("quadratic", 100, 0, GenParams(kappa=1000))
        run = minimize(p, x0, SolverConfig(epsilon=0.01, max_iterations=2000))
        assert run.termination is Termination.CONVERGED
        values = [r.f for r in run.iterates]
        assert all(b < a for a, b in zip(values, values[1:]))
        xs = p.solution()
        assert np.linalg.norm(run.x_final - xs) <= run.grad_norm_final / p.mu + 1e-8

    def test_logsumexp_converges_with_sandwich_descent(self):
        p, x0 = generate_instance("logsumexp", 50, 4)
        run = minimize(p, x0)
        assert run.termination is Termination.CONVERGED
        f_start = run.iterates[0].f
        for rec, nxt in zip(run.iterates[:-1], run.iterates[1:]):
            assert rec.branch in ("ellipse", "midpoint")
            assert nxt.f <= rec.f_mid + 1e-12 * (1.0 + abs(rec.f))
            assert rec.f_mid <= rec.f
            assert rec.f <= f_start  # level-set containment
            gain = p.mu * rec.t**2 / 8.0 * rec.grad_norm**2
            assert rec.f_mid <= rec.f - gain + 1e-9 * (1.0 + abs(rec.f))

    def test_decrease_search_variant_converges(self):
        p, x0 = generate_instance("logsumexp", 30, 6)
        run = minimize(p, x0, SolverConfig(variant=Variant.DECREASE_SEARCH))
        assert run.termination is Termination.CONVERGED
        values = [r.f for r in run.iterates]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_max_iterations_reported(self):
        p, x0 = generate_instance("quadratic", 20, 2, GenParams(kappa=1000))
        run = minimize(p, x0, SolverConfig(epsilon=1e-6, max_iterations=3))
        assert run.termination is Termination.MAX_ITERATIONS
        assert run.iterations == 3

    def test_evaluation_counters_track_work(self):
        p, x0 = generate_instance("quadratic", 10, 5, GenParams(kappa=10))
        run = minimize(p, x0)
        assert run.n_grad_evals >= run.iterations + 1
        assert run.n_value_evals > run.iterations  # level step + line search work
        assert run.evaluations == run.n_value_evals + run.n_grad_evals

    def test_trace_records_steps(self):
        p, x0 = generate_instance("quadratic", 6, 9, GenParams(kappa=10))
        run = minimize(p, x0)
        for rec in run.iterates[:-1]:
            assert rec.t > 0.0
            assert rec.branch in ("ellipse", "midpoint", "stationary")
        assert run.iterates[-1].branch == "final"
        assert np.isnan(run.iterates[-1].t)

    @pytest.mark.parametrize("finite_calls,iterations", [(0, 0), (2, 1)])
    def test_nonfinite_gradient_named(self, finite_calls, iterations):
        # at the start, and after a step (x0 and the level point use two calls)
        p, x0 = generate_instance("quadratic", 10, 1, GenParams(kappa=100))
        run = minimize(NaNGradientAfter(p, finite_calls), x0)
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message == "non-finite gradient"
        assert run.iterations == iterations

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(tau_level=-1.0)
