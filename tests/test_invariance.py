"""Invariance properties, which hold under any correct one-dimensional
search up to rounding: the iterates move with an orthogonal change of
variables and with a translation, and stay put when f and the stopping
tolerance are scaled together.  Hypothesis is a test-only dependency.
"""
import numpy as np
import pytest

from conftest import Transformed
from ellipcenters import (GenParams, SolverConfig, Termination,
                          generate_instance, minimize, run_method)

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
        return ScaledLine(self.owner, x, e, self.line.turn(t, x, e, krylov))


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
