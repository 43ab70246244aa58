from types import SimpleNamespace

import numpy as np
import pytest

from conftest import HOSTILE, RAY_GRADIENTS, NaNGradientAfter, Toy, first_ray_direction
from ellipcenters import (GenParams, LogSumExpProblem, NumericError, QuadraticProblem, SolverConfig,
                          Termination, Variant, baselines, bb_minimize, gd_exact_minimize,
                          generate_instance, minimize, run_method)
from ellipcenters.baselines import bb_step_size
from ellipcenters.geometry import scaled_sumsq
from ellipcenters.objectives import restrict


class TestBBStepSize:
    UNIT = scaled_sumsq(np.array([1.0]))  # the gradient the step scales, of length 1

    def test_known_rayleigh_values(self):
        # s = (1,1), A = diag(1,4) gives g_diff = (1,4):
        # long = <s,s>/<s,g> = 2/5, short = <s,g>/<g,g> = 5/17
        s = np.array([1.0, 1.0])
        g_diff = np.array([1.0, 4.0])
        assert bb_step_size(s, g_diff, self.UNIT, "long") == pytest.approx(0.4)
        assert bb_step_size(s, g_diff, self.UNIT, "short") == pytest.approx(5.0 / 17.0)

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(NumericError):
            bb_step_size(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), self.UNIT, "long")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bb_step_size(np.ones(2), np.ones(2), self.UNIT, "medium")

    @pytest.mark.parametrize("kind", ["long", "short"])
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_products_give_the_rescaled_step(self, kind):
        # s . s and s . g_diff overflow; the step does not
        s = np.array([1.0, 1.0])
        g_diff = np.array([1.0, 4.0])
        tau = bb_step_size(1e160 * s, 1e160 * g_diff, self.UNIT, kind)
        assert tau == pytest.approx(bb_step_size(s, g_diff, self.UNIT, kind), rel=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_underflowing_gradient_change_is_a_numeric_error(self):
        # g_diff . g_diff underflows to 0 while s . g_diff = 1e-10: the short
        # step would be 1e330
        with pytest.raises(NumericError, match="cap"):
            bb_step_size([1e160], [1e-170], self.UNIT, "short")

    @pytest.mark.parametrize("scale", [1.0, 2.0**600])
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_a_step_longer_than_the_cap_is_a_numeric_error(self, scale):
        # f and g scaled by 2^600: tau = 0.4 / scale, so |tau g| = 0.4 |g| /
        # scale against 1e12 |s| = 1.41e12, which a gradient of length 1e13
        # scale passes and one of 1e11 scale does not
        s, g_diff = np.array([1.0, 1.0]), scale * np.array([1.0, 4.0])
        tau = bb_step_size(s, g_diff, scaled_sumsq(np.array([1e11 * scale])), "long")
        assert tau == pytest.approx(0.4 / scale)
        with pytest.raises(NumericError, match="cap"):
            bb_step_size(s, g_diff, scaled_sumsq(np.array([1e13 * scale])), "long")


class TestBBMinimize:
    @pytest.mark.parametrize("kind", ["long", "short"])
    def test_the_step_cap_does_not_move_with_the_scale_of_f(self, kind):
        # on 2^-40 f every tau is 2^40 times longer and every gradient 2^40
        # times shorter; capped on tau, bb-long ended "spectral step size
        # blew past the cap" after 163 iterations and bb-short after 36
        p, x0 = generate_instance("quadratic", 30, 0, GenParams(kappa=100.0))
        scaled = QuadraticProblem(2.0**-40 * p.a, 2.0**-40 * p.b)
        run = bb_minimize(p, x0, kind, SolverConfig(epsilon=1e-8))
        moved = bb_minimize(scaled, x0, kind, SolverConfig(epsilon=2.0**-40 * 1e-8))
        assert run.termination is moved.termination is Termination.CONVERGED
        assert moved.iterations == run.iterations
        assert np.array_equal(moved.x_final, run.x_final)

    def test_identity_quadratic_one_iteration(self):
        # the exact first line search already lands on the minimizer
        p = QuadraticProblem(np.eye(4), np.array([1.0, -2.0, 0.5, 3.0]))
        run = bb_minimize(p, np.zeros(4))
        assert run.termination is Termination.CONVERGED
        assert run.iterations == 1

    def test_unknown_kind_named_before_the_first_step(self):
        p = QuadraticProblem(np.eye(2), np.ones(2))
        with pytest.raises(ValueError) as exc:
            bb_minimize(p, np.zeros(2), "medium")
        assert str(exc.value) == "unknown step kind 'medium'"

    @pytest.mark.parametrize("kind", ["long", "short"])
    def test_steps_within_rayleigh_bounds(self, kind):
        p, x0 = generate_instance("quadratic", 20, 3, GenParams(kappa=100))
        run = bb_minimize(p, x0, kind, SolverConfig(epsilon=1e-4, max_iterations=500))
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

        run = bb_minimize(Concave(), np.array([1.0, 1.0]), cfg=SolverConfig(max_iterations=50))
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message

    @pytest.mark.parametrize("kind", ["long", "short"])
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_gradient_whose_square_overflows_converges(self, kind):
        # max |g_i| = 1.2e154: s . s and s . g_diff of the first spectral
        # step overflow, so the step is taken over rescaled vectors
        p = LogSumExpProblem(np.ones(5), np.ones(5))
        run = bb_minimize(p, 2e153 * np.linspace(0.5, 1.5, 5), kind)
        assert run.termination is Termination.CONVERGED, run.message

    def test_converges_on_logsumexp(self):
        p, x0 = generate_instance("logsumexp", 100, 7)
        for kind in ("long", "short"):
            run = bb_minimize(p, x0, kind)
            assert run.termination is Termination.CONVERGED
            assert run.grad_norm_final <= 0.01

    @pytest.mark.parametrize("finite_calls,iterations", [(0, 0), (1, 0), (3, 2)])
    def test_nonfinite_gradient_named(self, finite_calls, iterations):
        # at the start; inside the exact first step's search, whose slope at
        # 0 comes from the gradient at x0; at the first spectral step's new
        # iterate, after the search's slopes at v0 and at the secant root
        p, x0 = generate_instance("quadratic", 10, 1, GenParams(kappa=100))
        run = bb_minimize(NaNGradientAfter(p, finite_calls), x0)
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message == "non-finite gradient"
        assert run.iterations == iterations

    def test_objective_numeric_error_ends_the_run(self):
        # raised while evaluating a spectral step's new iterate: the run ends
        # with the objective's message, at the iterate the step started from
        class RaisingGradientAfter(NaNGradientAfter):
            def gradient(self, x):
                g = super().gradient(x)
                if np.isnan(g).any():
                    raise NumericError("gradient failed")
                return g

        # three finite gradients: at x0, which also gives the exact first
        # step's slope at 0, then its slopes at v0 and at the secant root,
        # whose gradient the line keeps
        p, x0 = generate_instance("quadratic", 10, 1, GenParams(kappa=100))
        run = bb_minimize(RaisingGradientAfter(p, 3), x0)
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message == "gradient failed"
        assert run.iterations == 1

    def test_stationary_start_zero_iterations(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        run = bb_minimize(p, np.zeros(2))
        assert run.iterations == 0
        assert run.termination is Termination.CONVERGED


class BaseRefusingObjective:
    """An objective whose lines raise on any query at t = 0, the point they
    were restricted at; it counts the lines it hands out."""

    def __init__(self, inner):
        self.inner = inner
        self.lines = 0

    def __getattr__(self, name):  # every other attribute is the inner one's
        return getattr(self.inner, name)

    def along(self, x, d, f, g, turns):
        self.lines += 1
        line = restrict(self.inner, x, d, f, g, turns)

        def refuse(query):
            def ask(t):
                assert t != 0.0, f"{query} asked at t = 0"
                return getattr(line, query)(t)
            return ask

        return SimpleNamespace(**{q: refuse(q) for q in ("value", "slope", "gradient")},
                               pointwise=line.pointwise)


class TestLineGradients:
    # the exact step's line hands back the gradient at the new point, so a
    # gd iteration on a quadratic takes one product, A grad f(x), besides
    # the one product Ax at the start point and the one at x_final, where
    # the stopping test takes f and g afresh from the line's drifting pair
    def test_gd_takes_one_product_per_iteration(self, count_products):
        p, x0 = generate_instance("quadratic", 30, 1, GenParams(kappa=10))
        matrix = count_products(p)
        run = gd_exact_minimize(p, x0, SolverConfig(epsilon=1e-6))
        assert run.termination is Termination.CONVERGED
        assert matrix.products == 2 + run.iterations

    @pytest.mark.parametrize("kind", ["long", "short"])
    def test_bb_first_step_reuses_its_line(self, kind, count_products):
        p, x0 = generate_instance("quadratic", 30, 1, GenParams(kappa=10))
        matrix = count_products(p)
        run = bb_minimize(p, x0, kind, SolverConfig(epsilon=1e-6))
        assert run.termination is Termination.CONVERGED
        # the start point and each spectral step take one product Ax, and
        # the exact first step one, A grad f(x); x_final takes none, as the
        # last spectral step's pair is pointwise (2 + 1 + (iterations - 1)
        # before the stopping test kept it)
        assert matrix.products == 1 + 1 + (run.iterations - 1)

    @pytest.mark.parametrize("method", ["gd", "bb-long", "bb-short"])
    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_exact_step_asks_its_line_nothing_at_x(self, kind, method):
        # the step holds f and g at x, so its search starts from f and g . d;
        # a line that refuses every query at t = 0 changes no count or bit
        p, x0 = generate_instance(kind, 20, 3, GenParams(kappa=100))
        cfg = SolverConfig(epsilon=1e-6)
        spied = BaseRefusingObjective(p)
        run, ref = run_method(method, spied, x0, cfg), run_method(method, p, x0, cfg)
        assert run.termination is Termination.CONVERGED
        assert spied.lines == (run.iterations if method == "gd" else 1)
        assert (run.iterations, run.n_value_evals, run.n_grad_evals) == (
            ref.iterations, ref.n_value_evals, ref.n_grad_evals)
        assert all(np.array_equal(a.x, b.x) for a, b in zip(run.iterates, ref.iterates))

    @pytest.mark.parametrize("kind", ["long", "short"])
    def test_logsumexp_runs_match_pointwise_gradients(self, kind):
        p, x0 = generate_instance("logsumexp", 40, 2)
        run = bb_minimize(p, x0, kind)
        for rec, nxt in zip(run.iterates[:-1], run.iterates[1:]):
            assert nxt.grad_norm == float(np.linalg.norm(p.gradient(nxt.x)))


@pytest.mark.parametrize("method", [
    lambda obj, x0: bb_minimize(obj, x0, "long"),
    lambda obj, x0: bb_minimize(obj, x0, "short"),
    gd_exact_minimize,
], ids=["bb-long", "bb-short", "gd"])
def test_nonfinite_start_value_named(method):
    # +inf at the start point, x.x everywhere else
    x0 = np.array([1.0, -2.0])
    toy = Toy(lambda x: float("inf") if np.array_equal(x, x0) else float(x @ x),
              lambda x: 2.0 * x)
    run = method(toy, x0)
    assert run.termination is Termination.NUMERIC_ERROR
    assert run.message == "non-finite objective value"
    assert run.iterations == 0


@pytest.mark.parametrize("method", ["me", "bb-long", "bb-short", "gd"])
def test_unbounded_ray_named_within_the_expansion_cap(method):
    # f = -x[0] descends along -grad f forever; each search stops after
    # linesearch.MAX_EXPANSIONS bracket expansions and says why
    run = run_method(method, HOSTILE["linear"], np.array([1.0, 1.0]))
    assert run.termination is Termination.NUMERIC_ERROR
    assert "unbounded below along the ray" in run.message
    assert run.evaluations <= 70


@pytest.mark.parametrize("finite_calls,iterations", [(0, 0), (2, 0), (3, 1)])
def test_gd_nonfinite_gradient_named(finite_calls, iterations):
    # at the start; inside the exact step's search, whose slope at x comes
    # from the gradient the loop holds; inside the second step's search,
    # after the first one's slopes at v0 and at the secant root
    p, x0 = generate_instance("quadratic", 10, 1, GenParams(kappa=100))
    run = gd_exact_minimize(NaNGradientAfter(p, finite_calls), x0)
    assert run.termination is Termination.NUMERIC_ERROR
    assert run.message == "non-finite gradient"
    assert run.iterations == iterations


class TestGDExact:
    # every method runs the same descent loop, so each must turn hostile
    # input into a numeric error with a message, well inside the budget
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    @pytest.mark.parametrize("method,variant", [
        ("me", Variant.SEMILINE_MIN), ("me", Variant.DECREASE_SEARCH),
        ("bb-long", None), ("bb-short", None), ("gd", None),
    ], ids=["me-semiline-min", "me-decrease-search", "bb-long", "bb-short", "gd"])
    def test_hostile_input_is_a_numeric_error(self, method, variant, name):
        cfg = SolverConfig(max_iterations=50, variant=variant or Variant.SEMILINE_MIN)
        run = run_method(method, HOSTILE[name], np.array([1.0, 1.0]), cfg)
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message
        assert run.iterations < 50

    def test_identity_quadratic_one_iteration(self):
        p = QuadraticProblem(np.eye(3), np.array([1.0, 2.0, 3.0]))
        run = gd_exact_minimize(p, np.zeros(3))
        assert run.iterations == 1

    def test_successive_gradients_orthogonal(self):
        p = QuadraticProblem(np.diag([1.0, 4.0]), np.zeros(2))
        run = gd_exact_minimize(p, np.array([1.0, 1.0]), SolverConfig(epsilon=1e-6))
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

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_gradient_whose_square_overflows_converges(self):
        # max |g_i| = 1.2e154: |g|^2 and the slope -|g|^2 along -g overflow,
        # so the exact step searches along -g / max |g_i|
        p = LogSumExpProblem(np.ones(5), np.ones(5))
        run = gd_exact_minimize(p, 2e153 * np.linspace(0.5, 1.5, 5))
        assert run.termination is Termination.CONVERGED, run.message
        assert run.iterates[1].f < run.iterates[0].f

    def test_ill_conditioned_needs_more_iterations_than_me(self):
        # classic elongated-valley start: gd zigzags, the ellipse step does not
        p = QuadraticProblem(np.diag([1.0, 100.0]), np.zeros(2))
        x0 = np.array([100.0, 1.0])
        gd_run = gd_exact_minimize(p, x0, SolverConfig(epsilon=1e-4, max_iterations=2000))
        me_run = minimize(p, x0, SolverConfig(epsilon=1e-4))
        assert gd_run.iterations > me_run.iterations
        assert gd_run.iterations > 10
        assert me_run.iterations <= 2


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("kind", list(RAY_GRADIENTS))
@pytest.mark.parametrize("method", [gd_exact_minimize, bb_minimize], ids=["gd", "bb"])
def test_exact_step_runs_along_g_over_minus_s_bit_for_bit(method, kind, monkeypatch):
    # gd's every step and BB's first
    g = RAY_GRADIENTS[kind]
    d = first_ray_direction(monkeypatch, baselines, method, g)
    _, s = scaled_sumsq(g)
    assert (s == 1.0) == (kind != "overflowing")
    assert d.tobytes() == (g / -s).tobytes()
