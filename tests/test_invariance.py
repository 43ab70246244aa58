"""Invariance properties, which hold under any correct one-dimensional
search up to rounding: the iterates move with an orthogonal change of
variables and with a translation, and stay put when f and the stopping
tolerance are scaled together.  Scaled by a power of two, which rounds
nothing, they stay put bit for bit: every tolerance scales with f.
Hypothesis is a test-only dependency.
"""
import numpy as np
import pytest

from conftest import Transformed, ValueAndGradientOnly
from ellipcenters import (GenParams, QuadraticProblem, SolverConfig, Termination, Variant,
                          generate_instance, minimize, run_method)
from ellipcenters.geometry import scaled_sumsq

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def instance(kind, seed):
    if kind == "quadratic":
        return generate_instance("quadratic", 10, seed, GenParams(kappa=50.0))
    return generate_instance("logsumexp", 12, seed)


def assert_same_path(reference, moved, transform):
    assert reference.termination is moved.termination is Termination.CONVERGED
    assert reference.iterations == moved.iterations
    for a, b in zip(reference.iterates, moved.iterates):
        x = transform.point(b.x)
        assert np.linalg.norm(a.x - x) <= 1e-6 * (1.0 + np.linalg.norm(a.x))


settings = hypothesis.settings(max_examples=12, deadline=None, derandomize=True)
kinds = st.sampled_from(["quadratic", "logsumexp"])
seeds = st.integers(0, 2**16)
CFG = SolverConfig(epsilon=1e-6)


@settings
@hypothesis.given(kind=kinds, seed=seeds, q_seed=seeds)
def test_orthogonal_change_of_variables(kind, seed, q_seed):
    p, x0 = instance(kind, seed)
    q, _ = np.linalg.qr(np.random.default_rng(q_seed).standard_normal((p.dimension,) * 2))
    moved = Transformed(p, q=q)
    assert_same_path(minimize(Transformed(p), x0, CFG),
                     minimize(moved, moved.start(x0), CFG), moved)


@settings
@hypothesis.given(kind=kinds, seed=seeds, c_seed=seeds, scale=st.floats(1e-3, 1e2))
def test_translation(kind, seed, c_seed, scale):
    p, x0 = instance(kind, seed)
    moved = Transformed(p, c=scale * np.random.default_rng(c_seed).standard_normal(p.dimension))
    assert_same_path(minimize(Transformed(p), x0, CFG),
                     minimize(moved, moved.start(x0), CFG), moved)


@settings
@hypothesis.given(kind=kinds, seed=seeds, a=st.floats(1e-6, 1e6))
# drifted 1.46e-6 while the level step's floors were 1 + |f| wide
@hypothesis.example(kind="logsumexp", seed=26, a=1e-6)
def test_scaling_f_with_epsilon(kind, seed, a):
    p, x0 = instance(kind, seed)
    moved = Transformed(p, a=a)
    assert_same_path(minimize(Transformed(p), x0, CFG),
                     minimize(moved, x0, SolverConfig(epsilon=a * CFG.epsilon)), moved)


class ScaledByPowerOfTwo:
    """2^k f, which records the points its searches query: through the inner
    objective's own lines when ``own``, else through value and gradient only
    (the start point, which the loop evaluates, is not recorded)."""

    def __init__(self, inner, x0, k, own):
        self.inner, self.x0, self.a = inner, x0, 2.0 ** k
        self.dimension = inner.dimension
        self.points = []
        if own:
            self.along = self._along

    def _record(self, x):
        if not np.array_equal(x, self.x0):
            self.points.append(np.array(x))

    def value(self, x):
        self._record(x)
        return self.a * self.inner.value(x)

    def gradient(self, x):
        self._record(x)
        return self.a * self.inner.gradient(x)

    def _along(self, x, d, f, g, turns):
        return ScaledLine(self, x, d, self.inner.along(x, d, f / self.a, g / self.a, turns))


class ScaledLine:
    def __init__(self, owner, x, d, line):
        self.owner, self.x, self.d, self.line = owner, x, d, line

    def value(self, t):
        self.owner.points.append(self.x + t * self.d)
        return self.owner.a * self.line.value(t)

    def slope(self, t):
        self.owner.points.append(self.x + t * self.d)
        return self.owner.a * self.line.slope(t)

    def gradient(self, t):
        self.owner.points.append(self.x + t * self.d)
        return self.owner.a * self.line.gradient(t)

    def turn(self, t, x, e, krylov):
        # e = alpha d + gamma (2^k A) d, so the inner line turns by (alpha, 2^k gamma)
        alpha, gamma = krylov
        return ScaledLine(self.owner, x, e, self.line.turn(t, x, e, (alpha, self.owner.a * gamma)))


@pytest.mark.parametrize("own", [True, False], ids=["own-line", "generic-line"])
@pytest.mark.parametrize("method", ["me", "gd", "bb-long", "bb-short"])
@pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
def test_first_bracket_is_scale_free(kind, method, own):
    # with no warm start, ME's level step and gd's and BB's exact step take
    # their first bracket from the line's own value and slope, so under
    # f -> 2^k f the first point each queries keeps every bit
    p, x0 = instance(kind, 3)

    def first_point(k):
        f = ScaledByPowerOfTwo(p, x0, k, own)
        run_method(method, f, x0, SolverConfig(epsilon=2.0 ** k * 1e-6, max_iterations=1))
        return f.points[0]

    reference = first_point(0)
    assert not np.array_equal(reference, x0)
    for k in (-40, -20, -10, 10, 20, 40):
        assert np.array_equal(first_point(k), reference), k


METHODS = [("me", "semiline-min"), ("me", "decrease-search"), ("gd", "semiline-min"),
           ("bb-long", "semiline-min"), ("bb-short", "semiline-min")]


def assert_scaling_keeps_every_bit(p, x0, method, own, epsilon, k):
    """f -> 2^k f with eps -> 2^k eps: every point queried, every iterate,
    count and termination, and every value times 2^k, bit for bit."""
    name, variant = method

    def run(k):
        f = ScaledByPowerOfTwo(p, x0, k, own)
        cfg = SolverConfig(epsilon=2.0**k * epsilon, max_iterations=500, variant=variant)
        return f.points, run_method(name, f, x0, cfg)

    (points, reference), (moved_points, moved) = run(0), run(k)
    assert (moved.termination, moved.message) == (reference.termination, reference.message)
    assert (moved.iterations, moved.n_value_evals, moved.n_grad_evals) == (
        reference.iterations, reference.n_value_evals, reference.n_grad_evals)
    assert len(moved_points) == len(points)
    assert all(np.array_equal(a, b) for a, b in zip(points, moved_points))
    for a, b in zip(reference.iterates, moved.iterates):
        assert np.array_equal(a.x, b.x)
        assert b.f == 2.0**k * a.f


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(kind=kinds, seed=st.integers(0, 2**16), method=st.sampled_from(METHODS),
                  own=st.booleans(), epsilon=st.sampled_from([1e-3, 1e-8]),
                  k=st.integers(-40, 40))
def test_scaling_f_by_a_power_of_two_keeps_every_bit(kind, seed, method, own, epsilon, k):
    p, x0 = instance(kind, seed)
    assert_scaling_keeps_every_bit(p, x0, method, own, epsilon, k)


def zero_start(kind):
    """A start where f is 0: log-sum-exp n = 30 (seed 0) less f(x0), which
    has no line of its own, or quadratic n = 30 (kappa 100, seed 0) from the
    origin."""
    if kind == "quadratic":
        p, _ = generate_instance("quadratic", 30, 0, GenParams(kappa=100.0))
        return p, np.zeros(30)
    p, x0 = generate_instance("logsumexp", 30, 0)
    return Transformed(p, shift=-p.value(x0)), x0


# With f(x0) = 0 and no warm start, the level step's first bracket 4 |h0| /
# |s0| and the exact ray step's 2 |h0| / |s0| are 0, so ME and gd's and BB's
# exact step start a unit step in x out instead, which f -> 2^k f leaves
# alone.  At x0 = 0 the run scale is 0 too.  Values / gradients on f and on
# 2^-40 f alike:
@pytest.mark.parametrize("kind,method,own", [
    pytest.param("logsumexp", ("me", "semiline-min"), False, id="lse-me"),  # 26 / 19
    pytest.param("logsumexp", ("gd", "semiline-min"), False, id="lse-gd"),  # 10 / 31
    pytest.param("logsumexp", ("bb-long", "semiline-min"), False, id="lse-bb"),  # 9 / 15
    pytest.param("quadratic", ("me", "semiline-min"), True, id="quad-me"),  # 359 / 269
    pytest.param("quadratic", ("me", "decrease-search"), True, id="quad-me-ds"),  # 395 / 176
])
def test_scaling_f_from_a_start_where_f_is_zero(kind, method, own):
    p, x0 = zero_start(kind)
    if p.value(x0) != 0.0:
        raise ValueError("the start must have f(x0) = 0")
    assert_scaling_keeps_every_bit(p, x0, method, own, 1e-3, -40)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("method", ["gd", "bb-long"])
def test_unit_start_where_f_is_zero_and_the_gradient_overflows(method):
    # |g(x0)|^2 overflows, so the exact step runs along -g / s with s =
    # max |g_i|: its unit step in x is 1 / |g / s|, where 1 / sqrt(-s0) would
    # be 1 / sqrt(s) in x, some 1e-77, which 60 bracket doublings cannot grow
    # out of.  An odd power of two keeps every bit all the same
    p, x0 = zero_start("quadratic")
    big = QuadraticProblem(2.0**600 * p.a, 2.0**600 * p.b)
    assert scaled_sumsq(big.gradient(x0))[1] > 1.0
    cfg = SolverConfig(epsilon=2.0**600 * 1e-3)
    assert run_method(method, big, x0, cfg).termination is Termination.CONVERGED
    assert_scaling_keeps_every_bit(big, x0, (method, "semiline-min"), True, 2.0**600 * 1e-3, 1)


def zero_start_times(k):
    """``zero_start("quadratic")`` with f -> 2^k f, and epsilon 2^k 1e-3."""
    p, x0 = zero_start("quadratic")
    return QuadraticProblem(2.0**k * p.a, 2.0**k * p.b), x0, 2.0**k * 1e-3


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("own", [
    pytest.param(True, id="own-line", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="QuadraticLine forms A^2 d, which overflows where |A|^2 does")),
    pytest.param(False, id="generic-line")])
@pytest.mark.parametrize("variant", list(Variant))
def test_me_starts_where_f_is_zero_and_the_gradient_overflows(variant, own):
    # gd and bb-long converge here (above), and so does ME through value and
    # gradient alone: the run scale at x0 = 0, f(x0) = 0 is |g(x0)|; on the
    # quadratic's own line a gradient along the level line is not finite
    big, x0, epsilon = zero_start_times(600)
    cfg = SolverConfig(epsilon=epsilon, variant=variant)
    run = minimize(big if own else ValueAndGradientOnly(big), x0, cfg)
    assert run.termination is Termination.CONVERGED, run.message


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="QuadraticLine overflows where the generic line does not")
@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("k", [500, 505])
@pytest.mark.parametrize("method,iterations", [
    (("me", "semiline-min"), 89), (("me", "decrease-search"), 87),
    (("gd", "semiline-min"), 318), (("bb-long", "semiline-min"), 52)],
    ids=["me", "me-ds", "gd", "bb-long"])
def test_own_line_converges_where_the_generic_line_does(method, iterations, k):
    # |g(x0)|^2 stays finite, but the quadratic's own line forms A d and
    # A (A d) along the ray, whose products overflow at iteration 0
    (name, variant), (big, x0, epsilon) = method, zero_start_times(k)
    cfg = SolverConfig(epsilon=epsilon, variant=variant)
    generic = run_method(name, ValueAndGradientOnly(big), x0, cfg)
    if (generic.termination, generic.iterations) != (Termination.CONVERGED, iterations):
        raise ValueError(f"the generic line must converge in {iterations} iterations")
    own = run_method(name, big, x0, cfg)
    assert (own.termination, own.iterations) == (Termination.CONVERGED, iterations), own.message
