"""Fault injection: an objective that answers wrongly must end every run in
a ``Termination``, never an exception, and NUMERIC_ERROR must say why."""
import math

import numpy as np
import pytest

from ellipcenters import GenParams, Termination, Variant, generate_instance, minimize
from ellipcenters.bench import run_method
from ellipcenters.solver import SolverConfig


class Faulty:
    """A generic objective (no ``along``) that corrupts its answer to query
    ``at``, counting values and gradients together from 0, or to every query
    from ``at`` on when ``persistent``."""

    VALUE_FAULTS = {
        "nan": lambda f: math.nan,
        "+inf": lambda f: math.inf,
        "-inf": lambda f: -math.inf,
        "f-1": lambda f: f - 1.0,
    }
    GRADIENT_FAULTS = {
        "nan-entry": lambda g: np.where(np.arange(g.size) == 0, np.nan, g),
        "inf-entry": lambda g: np.where(np.arange(g.size) == 0, np.inf, g),
        "-g": lambda g: -g,
        "zero": lambda g: np.zeros_like(g),
    }

    def __init__(self, inner, fault: str, at: int, persistent: bool):
        self.inner = inner
        self.dimension = inner.dimension
        self.fault = fault
        self.at = at
        self.persistent = persistent
        self.queries = 0

    def _hit(self) -> bool:
        k = self.queries
        self.queries += 1
        return k == self.at or (self.persistent and k > self.at)

    def value(self, x):
        f = self.inner.value(x)
        hit = self._hit()
        return self.VALUE_FAULTS[self.fault](f) if hit and self.fault in self.VALUE_FAULTS else f

    def gradient(self, x):
        g = self.inner.gradient(x)
        hit = self._hit()
        return (self.GRADIENT_FAULTS[self.fault](g)
                if hit and self.fault in self.GRADIENT_FAULTS else g)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_vanishing_gradient_at_the_level_point_ends_the_run(variant):
    # queries 0 and 1 are f and g at x0; every later gradient is 0, first the
    # one at the level point, which no strongly convex f allows there
    p, x0 = generate_instance("quadratic", 5, 1, GenParams(100.0))
    run = minimize(Faulty(p, "zero", 2, True), x0, SolverConfig(epsilon=1e-8, variant=variant))
    assert run.termination is Termination.NUMERIC_ERROR
    assert run.message == "the gradient at the level point vanishes"
    assert run.iterations == 0


PROBLEMS = {
    "quadratic": generate_instance("quadratic", 5, 1, GenParams(100.0)),
    "logsumexp": generate_instance("logsumexp", 5, 1),
}
METHODS = [("me", Variant.SEMILINE_MIN), ("me", Variant.DECREASE_SEARCH),
           ("bb-long", None), ("bb-short", None), ("gd", None)]
NON_FINITE = {"nan", "+inf", "-inf", "nan-entry", "inf-entry"}


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("fault", ["nan-entry", "inf-entry"])
def test_non_finite_gradient_at_the_level_point_ends_the_run(variant, fault):
    # the first gradient after x0's is the one at the level point; the frame
    # names it before it forms k g - grad f(y), where inf - inf would warn
    # and a NaN would pass as a collinear gradient
    p, x0 = generate_instance("quadratic", 5, 1, GenParams(100.0))
    run = minimize(Faulty(p, fault, 2, True), x0, SolverConfig(epsilon=1e-8, variant=variant))
    assert run.termination is Termination.NUMERIC_ERROR
    assert run.message == "non-finite gradient at the level point"
    assert run.iterations == 0


# a slice of a 2240-run sweep (k = 0, 3, ..., 39), which raised only the
# vanishing-gradient ValueError above before it became a NumericError
@pytest.mark.parametrize("kind", sorted(PROBLEMS))
@pytest.mark.parametrize("fault", [*Faulty.VALUE_FAULTS, *Faulty.GRADIENT_FAULTS])
@pytest.mark.parametrize("persistent", [False, True], ids=["once", "from-k-on"])
def test_every_faulty_run_ends_in_a_termination(kind, fault, persistent):
    problem, x0 = PROBLEMS[kind]
    for at in (0, 3, 9, 21):
        for method, variant in METHODS:
            obj = Faulty(problem, fault, at, persistent)
            kwargs = {} if variant is None else {"variant": variant}
            run = run_method(method, obj, x0, SolverConfig(1e-8, 300, **kwargs))
            assert isinstance(run.termination, Termination)
            if run.termination is Termination.NUMERIC_ERROR:
                assert run.message
            if persistent and fault in NON_FINITE and obj.queries > at:
                assert run.termination is not Termination.CONVERGED
