"""decrease-search against the scan it answers: the samples v = scale 2^-k,
k = 0, 1, ..., taken in order until one beats f_base, down to the level
step's noise floor 32 eps |f_base| and at most 60 of them.  The search starts next to the
last search's answer, so it must return the scan's point from any start
on a convex line, and take fewer samples than the scan on the protocol's
runs, where the answer is rarely k = 0.  Hypothesis is a test-only
dependency.
"""
import numpy as np
import pytest

from conftest import ValueAndGradientOnly
from ellipcenters import (GenParams, SolverConfig, Termination, Variant,
                          generate_instance, minimize, semiline_search, solver)
from ellipcenters.objectives import restrict

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EPS = float(np.finfo(float).eps)


def reference_scan(line, scale, f_base, slope):
    """The first sample below f_base, in order from v = scale."""
    floor = 32.0 * EPS * abs(f_base)
    v = scale
    for _ in range(60):
        if v * abs(slope) <= floor:
            break
        fv = line.value(v)
        if fv < f_base:
            return v, fv
        v *= 0.5
    return 0.0, f_base


class SampleLog:
    """A line that counts the values taken on it."""

    def __init__(self, line):
        self.line = line
        self.n = 0

    def value(self, v):
        self.n += 1
        return self.line.value(v)


def make_line(kind, n, seed, ascent):
    if kind == "quadratic":
        p, x = generate_instance("quadratic", n, seed, GenParams(kappa=100.0))
    else:
        p, x = generate_instance("logsumexp", n, seed)
    if kind == "ray":  # restrict hands back the generic RayLine
        p = ValueAndGradientOnly(p)
    f, g = p.value(x), p.gradient(x)
    d = g / np.linalg.norm(g)
    line = restrict(p, x, d if ascent else -d, f, g, turns=False)
    return line, f


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(kind=st.sampled_from(["quadratic", "logsumexp", "ray"]),
                  n=st.integers(2, 8), seed=st.integers(0, 2**16),
                  scale_exp=st.floats(-4.0, 6.0), ascent=st.booleans(),
                  room=st.sampled_from([None, -1, 0, 1]))
def test_every_start_returns_the_scans_point(kind, n, seed, scale_exp, ascent, room):
    # room None passes the line's own slope; -1, 0 and 1 pass one that lets
    # the floor allow 0, 1 or 2 samples; an ascent line's samples all fail
    line, f_base = make_line(kind, n, seed, ascent)
    scale = 10.0**scale_exp
    slope = line.slope(0.0)
    if room is not None:
        slope = 1.5 * 2.0**room * 32.0 * EPS * abs(f_base) / scale
    expected = reference_scan(line, scale, f_base, slope)
    if ascent:
        assert expected == (0.0, f_base)
    for first in range(62):
        got = semiline_search(line, Variant.DECREASE_SEARCH, scale=scale, f_base=f_base,
                              slope=slope, first=first)
        assert got == expected, first


class Spiky:
    """A line below f_base = 1 only at the samples ``below``: not convex."""

    def __init__(self, below):
        self.below = below

    def value(self, v):
        return -1.0 if v in self.below else 1.0


HALF, THIRTY_SECOND = 0.5, 1.0 / 32.0


@pytest.mark.parametrize("below,slope,first,v,samples", [
    # the floor 32 eps |f_base| = 2^-47 allows k = 0..46, so a later start is clamped to 46
    ((HALF, THIRTY_SECOND), -1.0, 0, HALF, 2),
    ((HALF, THIRTY_SECOND), -1.0, 1, HALF, 2),
    ((HALF, THIRTY_SECOND), -1.0, 2, HALF, 2),
    ((HALF, THIRTY_SECOND), -1.0, 3, THIRTY_SECOND, 4),
    ((HALF, THIRTY_SECOND), -1.0, 4, THIRTY_SECOND, 3),
    ((HALF, THIRTY_SECOND), -1.0, 6, THIRTY_SECOND, 2),
    ((HALF, THIRTY_SECOND), -1.0, 7, 0.0, 41),
    ((HALF, THIRTY_SECOND), -1.0, 61, 0.0, 1),
    # with this slope the cap binds: k = 59 is the last sample
    ((2.0**-59,), -(2.0**60), 0, 2.0**-59, 60),
    ((2.0**-59,), -(2.0**60), 61, 2.0**-59, 2),
    ((2.0**-60,), -(2.0**60), 0, 0.0, 60),
    ((2.0**-60,), -(2.0**60), 61, 0.0, 1),
])
def test_a_non_convex_line_gets_a_sample_whose_predecessor_fails(below, slope, first, v,
                                                                samples):
    log = SampleLog(Spiky(below))
    got = semiline_search(log, Variant.DECREASE_SEARCH, scale=1.0, f_base=1.0,
                          slope=slope, first=first)
    assert got == ((v, -1.0) if v else (0.0, 1.0))
    assert log.n == samples


def test_protocol_shaped_searches_take_fewer_samples(monkeypatch):
    # the scan from v = lam took 162 values over these 49 searches (3.31 a
    # search): the answer is k = 1, 2 or 3 in nearly all of them
    searches = samples = 0
    search = solver.semiline_search

    def logged(line, variant, **kwargs):
        nonlocal searches, samples
        log = SampleLog(line)
        out = search(log, variant, **kwargs)
        searches += 1
        samples += log.n
        return out

    monkeypatch.setattr(solver, "semiline_search", logged)
    cfg = SolverConfig(epsilon=0.01, variant=Variant.DECREASE_SEARCH)
    for seed in range(1, 11):
        run = minimize(*generate_instance("logsumexp", 1000, seed), cfg)
        assert run.termination is Termination.CONVERGED
    assert samples <= 2.6 * searches
