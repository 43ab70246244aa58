"""The whole ellipse step against a reference built from the paper's
construction, which shares no code with the solver's level step, frame,
direction or searches: only the conic formulas of acceptance criterion 1.

From x the reference finds the level point y = x - t g with scipy's brentq
on f(x - t g) - f(x), builds e1 = g / |g| and e2, the unit part of
-grad f(y) orthogonal to it, and takes theta from atan2.  The semiline of
centers runs from the chord midpoint with slope dp/dq = -b of the fitted
conic, on which conic_center puts the centers of the conics at m = M/4 and
3M/4 (the reference checks that).  Read off two centers instead, the line
would be lost near collinear frames: at sin theta = 1e-6 every conic with a
double m has its center within 1e-18 lam of the midpoint.  semiline-min
solves the slope along that line for zero with brentq; decrease-search
halves v from lam until f falls below f at the midpoint, and stays there
once v |s| is within 32 eps |f|, s = ((g + grad f(y)) / 2) . d, with f the
value at the midpoint.

Measured on the grid below, |x_next - x_ref| / |x_next - x| was at most
4.2e-8 (quadratic, decrease-search) and 1.2e-8 (quadratic, semiline-min),
and at most 5e-9 on log-sum-exp.  The step's semiline search stops at a
relative slope of 1e-8, and its level step within 1e-10 |f| of the level,
or within its noise floor where that is larger; the bound, 4e-7, is forty
semiline tolerances and ten times the worst case seen.
"""
import math

import numpy as np
import pytest

from ellipcenters import (GenParams, QuadraticProblem, SolverConfig, Variant, generate_instance,
                          minimize)
from ellipcenters.geometry import conic_center, ellipse_bound, fit_conic, scaled_sumsq
from ellipcenters.objectives import CountingObjective
from ellipcenters.solver import me_step, run_scale

brentq = pytest.importorskip("scipy.optimize").brentq

BOUND = 4e-7
HALVINGS = 60
EPS = float(np.finfo(float).eps)


def _root(phi, hi):
    """brentq on phi from a bracket [lo, hi] with phi(lo) < 0 < phi(hi),
    grown from hi by doubling and shrunk from it by halving."""
    while phi(hi) <= 0.0:
        hi *= 2.0
    lo = 0.5 * hi
    while phi(lo) >= 0.0:
        lo *= 0.5
    return brentq(phi, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def reference_step(p, x, variant):
    """(x_next, the chord midpoint, sin theta) of one ellipse step from x,
    by the construction."""
    f, g = p.value(x), p.gradient(x)
    t = _root(lambda s: p.value(x - s * g) - f, 1.0)
    grad_y = p.gradient(x - t * g)
    e1 = g / np.linalg.norm(g)
    along = float(-grad_y @ e1)
    w = -grad_y - along * e1
    wnorm = float(np.linalg.norm(w))
    e2 = w / wnorm
    theta = math.atan2(wnorm, along)
    lam = t * float(np.linalg.norm(g))
    bound = ellipse_bound(lam, theta)
    coef = fit_conic(lam, 0.5 * bound, 0.5 * bound * math.tan(theta))
    for m in (0.25 * bound, 0.75 * bound):  # conic_center puts its centers on that line
        u, v = conic_center(fit_conic(lam, m, m * math.tan(theta)), lam)
        assert v >= 0.0 and abs(u + coef.b * v - 0.5 * lam) <= 1e-12 * lam
    d = e2 - coef.b * e1  # unit step in q along the semiline
    base = x - 0.5 * t * g
    if variant is Variant.SEMILINE_MIN:
        slope = lambda v: float(p.gradient(base + v * d) @ d)
        v = _root(slope, lam) if slope(0.0) < 0.0 else 0.0
    else:
        f_base, v = p.value(base), lam
        slope = 0.5 * float((g + grad_y) @ d)
        for _ in range(HALVINGS):
            if v * abs(slope) <= 32.0 * EPS * abs(f_base):
                v = 0.0
                break
            if p.value(base + v * d) < f_base:
                break
            v *= 0.5
        else:
            v = 0.0
    return base + v * d, base, wnorm / float(np.linalg.norm(grad_y))


def _gaps(p, x, variant):
    """|x_next - x_ref| and |x_next - x|; the same two for the moves along
    the semiline, each from its own midpoint; and the reference's sin theta."""
    f, g = p.value(x), p.gradient(x)
    x_next, _, _, fields = me_step(CountingObjective(p), x, f, g, scaled_sumsq(g),
                                   variant, 1.0, 0, run_scale(x, f, scaled_sumsq(g)))
    assert fields["branch"] == "ellipse"
    x_ref, base_ref, sin_theta = reference_step(p, x, variant)
    # the record's sin theta, from the frame's cosine, is the reference's
    # |w| / |grad f(y)| within 8.1e-8 relative, and 2.7e-10 absolute near
    # collinear frames
    assert fields["sin_theta"] == pytest.approx(sin_theta, rel=1e-6, abs=1e-9)
    semiline = x_next - (x - 0.5 * fields["t"] * g)
    return (np.linalg.norm(x_next - x_ref), np.linalg.norm(x_next - x),
            np.linalg.norm(semiline - (x_ref - base_ref)), np.linalg.norm(semiline), sin_theta)


GRID = [pytest.param("quadratic", 50, GenParams(kappa=100.0), id="quadratic-50"),
        pytest.param("logsumexp", 50, None, id="logsumexp-50"),
        pytest.param("logsumexp", 1000, None, id="logsumexp-1000")]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("kind,n,params", GRID)
def test_step_matches_the_reference_along_runs(kind, n, params, variant):
    steps = 0
    for seed in range(3):
        p, x0 = generate_instance(kind, n, seed, params)
        run = minimize(p, x0, SolverConfig(epsilon=1e-6, variant=variant))
        for rec in run.iterates[:-1]:
            if rec.branch != "ellipse" or rec.grad_norm < 1e-3:
                continue
            gap, step = _gaps(p, rec.x, variant)[:2]
            assert gap <= BOUND * step
            steps += 1
    assert steps >= 10


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("kappa", [10.0, 1000.0])
def test_step_matches_the_reference_near_collinear_frames(kappa, variant):
    # g is an eigenvector of A but for a part that puts grad f(y) at about
    # 1e-6 from the chord, as TestNearCollinearTurn builds the frame; the
    # chord midpoint is then within 1e-7 of the minimizer, and the move
    # along the semiline, 5e-8 (kappa 10) or 5e-10 (kappa 1000) long, is
    # held to the bound on its own: measured at most 6.5e-8 of it.  At kappa
    # 1000 its decrease, about 3e-16, is far above the floor 32 eps |f| at
    # the midpoint, where f is about 5e-4, so decrease-search moves too
    n, sin_theta = 30, 1e-6
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
    a = (q * np.geomspace(1.0, kappa, n)) @ q.T
    p = QuadraticProblem(0.5 * (a + a.T), np.zeros(n))
    x = q[:, 0] + sin_theta / (2.0 * kappa * (kappa - 1.0)) * q[:, -1]
    gap, step, semiline_gap, semiline, sin_ref = _gaps(p, x, variant)
    assert 0.5 * sin_theta <= sin_ref <= 2.0 * sin_theta
    assert gap <= BOUND * step and semiline_gap <= BOUND * semiline
