"""Invariance properties, which hold under any correct one-dimensional
search up to rounding: the iterates move with an orthogonal change of
variables and with a translation, and stay put when f and the stopping
tolerance are scaled together.  Hypothesis is a test-only dependency.
"""
import numpy as np
import pytest

from conftest import Transformed
from ellipcenters import (GenParams, SolverConfig, Termination,
                          generate_instance, minimize)

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
