import math

import numpy as np
import pytest

from conftest import Toy, ValueAndGradientOnly, level_step
from ellipcenters import (GenParams, LogSumExpProblem, NumericError, QuadraticProblem, SolverConfig,
                          Variant, generate_instance, minimize)
from ellipcenters.geometry import build_frame, scaled_sumsq
from ellipcenters.levelstep import NOISE_FLOOR
from ellipcenters.objectives import CountingObjective
from ellipcenters.solver import me_step, run_scale


def test_parabola_returns_mirror_point():
    # f = 0.5 x^2 from x = 1: same level at y = -1, so t = 2
    p = QuadraticProblem(np.eye(1), np.zeros(1))
    x = np.array([1.0])
    g = p.gradient(x)
    t = level_step(p, x, p.value(x), g, 1.0)[0]
    y = x - t * g
    assert t == pytest.approx(2.0, abs=1e-8)
    assert y[0] == pytest.approx(-1.0, abs=1e-8)


def test_sphere_any_dimension_reflects_through_origin():
    p = QuadraticProblem(np.eye(5), np.zeros(5))
    x = np.array([0.3, -1.0, 2.0, 0.1, -0.4])
    g = p.gradient(x)
    t = level_step(p, x, p.value(x), g, 1.0)[0]
    y = x - t * g
    assert t == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(y, -x, atol=1e-8)


def test_diagonal_quadratic_known_root():
    # level equality reduces to 32.5 t^2 - 17 t = 0, so t = 34/65
    p = QuadraticProblem(np.diag([1.0, 4.0]), np.zeros(2))
    x = np.array([1.0, 1.0])
    t = level_step(p, x, p.value(x), p.gradient(x), 1.0)[0]
    assert t == pytest.approx(34.0 / 65.0, abs=1e-9)


@pytest.mark.parametrize("kind,n", [("quadratic", 10), ("logsumexp", 12)])
def test_level_residual_within_tolerance(kind, n):
    p, _ = generate_instance(kind, n, 5, GenParams(kappa=100))
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = rng.standard_normal(n)
        fx = p.value(x)
        g = p.gradient(x)
        t = level_step(p, x, fx, g, 1.0)[0]
        y = x - t * g
        assert t > 0.0
        assert abs(p.value(y) - fx) <= 1e-10 * (1.0 + abs(fx))
        # the interior of the bracket sits strictly below the level
        mid = x - 0.5 * t * p.gradient(x)
        assert p.value(mid) < fx


def test_midpoint_gain_quantified():
    # f(x - t/2 g) <= f(x) - (mu t^2 / 8) |g|^2 up to rounding slack
    p, _ = generate_instance("quadratic", 8, 2, GenParams(kappa=50))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(8)
        g = p.gradient(x)
        fx = p.value(x)
        t = level_step(p, x, fx, g, 1.0)[0]
        gain = p.mu * t**2 / 8.0 * float(g @ g)
        assert p.value(x - 0.5 * t * g) <= fx - gain + 1e-9 * (1.0 + abs(fx))


def test_interior_of_bracket_single_signed():
    p, _ = generate_instance("logsumexp", 6, 11)
    x = np.random.default_rng(4).standard_normal(6)
    fx = p.value(x)
    g = p.gradient(x)
    t = level_step(p, x, fx, g, 1.0)[0]
    grid = np.linspace(0.0, t, 101)[1:-1]
    values = [p.value(x - s * g) - fx for s in grid]
    assert all(v <= 1e-12 * (1.0 + abs(fx)) for v in values)
    assert min(values) < 0.0


def test_warm_start_and_evaluation_budget():
    p, _ = generate_instance("quadratic", 6, 8, GenParams(kappa=100))
    x = np.random.default_rng(1).standard_normal(6)
    cold_count, warm_count = CountingObjective(p), CountingObjective(p)
    fx, g = p.value(x), p.gradient(x)
    cold = level_step(cold_count, x, fx, g, 1.0)[0]
    warm = level_step(warm_count, x, fx, g, cold)[0]
    assert warm == pytest.approx(cold, rel=1e-8)
    assert warm_count.n_value <= 2 * 60 + 90
    assert cold_count.n_value <= 2 * 60 + 90


def test_stationary_point_rejected():
    p = QuadraticProblem(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="^the gradient vanishes; there is no level step to take$"):
        x = np.zeros(2)
        level_step(p, x, p.value(x), p.gradient(x), 1.0)


@pytest.mark.parametrize("seed", range(5))
def test_level_point_gradient_is_never_shorter_on_a_quadratic(seed):
    # with t = 2|g|^2/(g'Ag), |grad f(y)|^2 = |g|^2 (4|g|^2|Ag|^2/(g'Ag)^2 - 3)
    # >= |g|^2 by Cauchy-Schwarz: the level point is never nearer stationary
    # than x, so a stopping test at y could never fire before one at x
    p, _ = generate_instance("quadratic", 30, seed, GenParams(kappa=1000))
    rng = np.random.default_rng(seed)
    for _ in range(40):
        x = rng.standard_normal(30)
        g = p.gradient(x)
        t = level_step(p, x, p.value(x), g, 1.0)[0]
        y = x - t * g
        ratio = np.linalg.norm(p.gradient(y)) / np.linalg.norm(p.gradient(x))
        assert ratio >= 1.0 - 1e-9


def test_noncoercive_objective_detected():
    class Linear:
        dimension = 2

        def value(self, x):
            return float(-x[0])

        def gradient(self, x):
            return np.array([-1.0, 0.0])

    with pytest.raises(NumericError, match="unbounded below along the ray"):
        f, x = Linear(), np.array([0.0, 0.0])
        level_step(f, x, f.value(x), f.gradient(x), 1.0)


@pytest.mark.parametrize("n", [3, 4])
def test_flat_region_switches_to_slope_equation(n):
    # shift the quadratic so |f| is huge and the level dip drowns in rounding
    b = np.full(n, 1e6)
    p = QuadraticProblem(np.eye(n), b)
    x = b + 1e-6  # gradient norm ~2e-6, f(x) ~ -1e12 n
    g = p.gradient(x)
    t = level_step(p, x, p.value(x), g, 1.0)[0]
    y = x - t * g
    # the slope equation is exact for quadratics, but the reported gradients
    # themselves lose ~4 digits to cancellation against the 1e6 shift
    assert t == pytest.approx(2.0, rel=1e-3)
    assert np.allclose(y, b - 1e-6, atol=1e-8)


def test_near_stationary_point_goes_to_the_slope_path_at_once():
    # at |x| ~ 1e-9 the dip t |g|^2 sits below f's rounding floor at any t,
    # so the warm start already lies in the slope regime
    # (the t pin is taken on the generic line, whose arithmetic is pointwise)
    p, _ = generate_instance("logsumexp", 20, 3)
    x = 1e-9 * np.random.default_rng(0).standard_normal(20)
    counted = CountingObjective(ValueAndGradientOnly(p))
    g = p.gradient(x)
    t, _, line = level_step(counted, x, p.value(x), g, 1.0)
    assert counted.n_value <= 3
    assert counted.n_grad > 0  # the slope path ran
    assert t.hex() == "0x1.bc0bb3f23389fp-1"
    assert np.array_equal(line.gradient(t), p.gradient(x - t * g))
    fused = CountingObjective(p)
    own_t, _, own_line = level_step(fused, x, p.value(x), g, 1.0)
    assert (fused.n_value, fused.n_grad) == (counted.n_value, counted.n_grad)
    assert own_t == pytest.approx(t, rel=1e-12)
    assert np.array_equal(own_line.gradient(own_t), p.gradient(x - own_t * g))


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_gradient_square_is_rescaled():
    # max |g_i| = s = 1.2e154, so |g|^2 overflows; the level line runs along
    # -g / s, and the frame at y sees the true angle
    p = LogSumExpProblem(np.ones(5), np.ones(5))
    x = 2e153 * np.linspace(0.5, 1.5, 5)
    fx = p.value(x)
    counted = CountingObjective(p)
    g = p.gradient(x)
    s = scaled_sumsq(g)[1]
    u, r, _ = level_step(counted, x, fx, g, s)  # a step of 1 along -g
    t = u / s  # the step along -g
    y = x - t * g
    # along -g / s the first secant step lands on the root; from -|g|^2 =
    # -inf at t = 0 the search would take a bisection step more
    assert counted.n_value == 2
    assert math.isfinite(t) and t > 0.0
    assert abs(r) <= 1e-10 * (1.0 + abs(fx))
    assert abs(p.value(y) - fx) <= 1e-10 * (1.0 + abs(fx))
    frame = build_frame(g, scaled_sumsq(g), t, p.gradient(y))
    assert frame.cos_theta == pytest.approx(0.889, abs=1e-3)
    assert frame.sin_theta == pytest.approx(0.458, abs=1e-3)


@pytest.mark.filterwarnings("ignore:overflow")
def test_slope_root_where_the_gradient_square_overflows():
    # f = 1e30 + (L / 2) |x|^2 with L = 1e300 from x = 1e-145 (1, 2, 3): |g|^2
    # overflows and the dip of f along -g is below the rounding of 1e30, so
    # the slope path runs from the warm start t = 1e-300; along -g / s its
    # slopes stay finite and it lands on the level point t L = 2, where along
    # -g it stopped at the first slope that overflowed, t L = 1.0013
    toy = Toy(lambda x: 1e30 + 0.5e300 * float(x @ x), lambda x: 1e300 * x)
    x = 1e-145 * np.array([1.0, 2.0, 3.0])
    f, g = toy.value(x), toy.gradient(x)
    _, _, _, fields = me_step(CountingObjective(toy), x, f, g, scaled_sumsq(g),
                              Variant.SEMILINE_MIN, 1e-300, 0, run_scale(x, f, scaled_sumsq(g)))
    assert fields["level_path"] == "slope"
    assert fields["t"] * 1e300 == pytest.approx(2.0, abs=1e-10)
    # the midpoint of that chord is the minimizer (6 iterations from t L = 1.0013)
    assert minimize(toy, x, SolverConfig(epsilon=1e145)).iterations == 1


def _deep_in_the_slope_regime(kind):
    """A family's instance and a point 1e-10 from its minimizer, where
    t |g|^2 at t = 1 is below one noise floor of f, 32 eps times the run
    scale of a run started there."""
    p, _ = generate_instance(kind, 20, 3, GenParams(kappa=10))
    x_star = np.linalg.solve(p.a, p.b) if kind == "quadratic" else np.zeros(20)
    x = x_star + 1e-10 * np.random.default_rng(0).standard_normal(20)
    fx, g = p.value(x), p.gradient(x)
    assert float(g @ g) <= NOISE_FLOOR * run_scale(x, fx, scaled_sumsq(g))
    return p, x, fx, g


@pytest.mark.parametrize("generic", [False, True], ids=["own-line", "generic"])
@pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
def test_warm_start_in_the_slope_regime_takes_no_value(kind, generic):
    # values cannot resolve the root there, so none is taken: the search
    # runs on slopes from t_init, and the residual it would read is NaN
    p, x, fx, g = _deep_in_the_slope_regime(kind)
    counted = CountingObjective(ValueAndGradientOnly(p) if generic else p)
    t, r, _ = level_step(counted, x, fx, g, 1.0)
    assert counted.n_value == 0 and counted.n_grad > 0
    assert math.isnan(r)
    assert abs(p.value(x - t * g) - fx) <= 1e-10 * (1.0 + abs(fx))
    if kind == "quadratic":
        # the slope equation's root is 2 |g|^2 / g'Ag; pointwise gradients
        # lose about 9 digits to the cancellation of Ax against b here
        assert t == pytest.approx(2.0 * (g @ g) / (g @ p.a @ g), rel=1e-6)


@pytest.mark.parametrize("t_init", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("kind,values", [("quadratic", 58), ("logsumexp", 10)])
def test_only_a_positive_finite_warm_start_skips_the_value_search(kind, values, t_init):
    # any other t_init seeds the value search at the first-bracket rule
    # 4 |f| / |g|^2, about 1e19 past the root here, and the slope path then
    # starts where it stopped
    p, x, fx, g = _deep_in_the_slope_regime(kind)
    counted = CountingObjective(p)
    t, r, _ = level_step(counted, x, fx, g, t_init)
    assert counted.n_value == values
    assert math.isnan(r)
    ruled = CountingObjective(p)
    assert t == level_step(ruled, x, fx, g, 4.0 * abs(fx) / (g @ g))[0]
    assert (ruled.n_value, ruled.n_grad) == (counted.n_value, counted.n_grad)
