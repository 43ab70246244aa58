import numpy as np
import pytest

from ellipcenters import (GenParams, NumericError, QuadraticProblem,
                          SolverConfig, Termination, bb_minimize, bb_step_size,
                          gd_exact_minimize, generate_instance, minimize)


class TestBBStepSize:
    def test_known_rayleigh_values(self):
        # s = (1,1), A = diag(1,4) gives g_diff = (1,4):
        # long = <s,s>/<s,g> = 2/5, short = <s,g>/<g,g> = 5/17
        s = np.array([1.0, 1.0])
        g_diff = np.array([1.0, 4.0])
        assert bb_step_size(s, g_diff, "long") == pytest.approx(0.4)
        assert bb_step_size(s, g_diff, "short") == pytest.approx(5.0 / 17.0)

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(NumericError):
            bb_step_size(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), "long")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bb_step_size(np.ones(2), np.ones(2), "medium")


class NaNGradientAfter:
    """A quadratic whose gradient turns NaN after ``calls`` finite ones."""

    def __init__(self, inner, calls: int):
        self.inner = inner
        self.calls = calls
        self.dimension = inner.dimension

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        self.calls -= 1
        return self.inner.gradient(x) if self.calls >= 0 else np.full(self.dimension, np.nan)


class TestBBMinimize:
    def test_identity_quadratic_one_iteration(self):
        # the exact first line search already lands on the minimizer
        p = QuadraticProblem(np.eye(4), np.array([1.0, -2.0, 0.5, 3.0]))
        run = bb_minimize(p, np.zeros(4))
        assert run.termination is Termination.CONVERGED
        assert run.iterations == 1

    @pytest.mark.parametrize("kind", ["long", "short"])
    def test_steps_within_rayleigh_bounds(self, kind):
        p, x0 = generate_instance("quadratic", 20, 3, GenParams(kappa=100))
        run = bb_minimize(p, x0, kind, epsilon=1e-4, max_iterations=500)
        assert run.termination is Termination.CONVERGED
        eigs = np.linalg.eigvalsh(p.a)
        for rec in run.iterates[1:-1]:  # skip the line-search first step
            assert 1.0 / eigs.max() - 1e-9 <= rec.t <= 1.0 / eigs.min() + 1e-9

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_curvature_failure_is_flagged_not_raised(self):
        class Concave:
            dimension = 2

            def value(self, x):
                return -float(x @ x)

            def gradient(self, x):
                return -2.0 * np.asarray(x)

        run = bb_minimize(Concave(), np.array([1.0, 1.0]), max_iterations=50)
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message

    def test_converges_on_logsumexp(self):
        p, x0 = generate_instance("logsumexp", 100, 7)
        for kind in ("long", "short"):
            run = bb_minimize(p, x0, kind)
            assert run.termination is Termination.CONVERGED
            assert run.grad_norm_final <= 0.01

    @pytest.mark.parametrize("finite_calls,iterations", [(0, 0), (1, 1)])
    def test_nonfinite_gradient_named(self, finite_calls, iterations):
        p, x0 = generate_instance("quadratic", 10, 1, GenParams(kappa=100))
        run = bb_minimize(NaNGradientAfter(p, finite_calls), x0)
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message == "non-finite gradient"
        assert run.iterations == iterations

    def test_stationary_start_zero_iterations(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        run = bb_minimize(p, np.zeros(2))
        assert run.iterations == 0
        assert run.termination is Termination.CONVERGED


class Toy:
    dimension = 2

    def __init__(self, value, gradient):
        self.value = value
        self.gradient = gradient


HOSTILE = {
    "infinite-start": Toy(lambda x: float("inf"), lambda x: 2.0 * x),
    "concave": Toy(lambda x: -float(x @ x), lambda x: -2.0 * x),
    "sign-flipped-gradient": Toy(lambda x: float(x @ x), lambda x: -2.0 * x),
}


class TestGDExact:
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_input_is_a_numeric_error(self, name):
        run = gd_exact_minimize(HOSTILE[name], np.array([1.0, 1.0]), max_iterations=50)
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message
        assert run.iterations < 50


    def test_identity_quadratic_one_iteration(self):
        p = QuadraticProblem(np.eye(3), np.array([1.0, 2.0, 3.0]))
        run = gd_exact_minimize(p, np.zeros(3))
        assert run.iterations == 1

    def test_successive_gradients_orthogonal(self):
        p = QuadraticProblem(np.diag([1.0, 4.0]), np.zeros(2))
        run = gd_exact_minimize(p, np.array([1.0, 1.0]), epsilon=1e-6)
        grads = [p.gradient(rec.x) for rec in run.iterates]
        for g_prev, g_next in zip(grads[:-1], grads[1:]):
            scale = 1.0 + np.linalg.norm(g_prev) * np.linalg.norm(g_next)
            assert abs(g_prev @ g_next) <= 1e-8 * scale

    def test_monotone_descent(self):
        p, x0 = generate_instance("logsumexp", 40, 2)
        run = gd_exact_minimize(p, x0)
        values = [r.f for r in run.iterates]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert run.termination is Termination.CONVERGED

    def test_ill_conditioned_needs_more_iterations_than_me(self):
        # classic elongated-valley start: gd zigzags, the ellipse step does not
        p = QuadraticProblem(np.diag([1.0, 100.0]), np.zeros(2))
        x0 = np.array([100.0, 1.0])
        gd_run = gd_exact_minimize(p, x0, epsilon=1e-4, max_iterations=2000)
        me_run = minimize(p, x0, SolverConfig(epsilon=1e-4))
        assert gd_run.iterations > me_run.iterations
        assert gd_run.iterations > 10
        assert me_run.iterations <= 2
