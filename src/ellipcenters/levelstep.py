"""Step along the negative gradient back to the starting level set.

For a strongly convex f and a nonstationary point x, the residual
``r(t) = f(x - t grad f(x)) - f(x)`` starts at zero with negative slope,
stays negative on an interval, and grows without bound, so it has exactly
one positive root.  Its secant slope from the origin, r(t)/t, rises from
-|g|^2 at t = 0 through zero at that root, and is affine in t for
quadratics.  So the root-finding kernel ``linesearch.find_root`` solves
r(t)/t = 0 from its known value at t = 0, with no search for a point where
r < 0 first.  A residual within rounding of zero, or within the tolerance,
counts as zero and ends the search.

Near the minimizer the whole dip of r drops below the rounding floor of f,
and no value-based search can see it.  There the root is recovered from the
slope instead: t solves <grad f(x - t g), g> = -|g|^2, which is the same
equation for quadratics (the slope of a parabola at its far level point
mirrors the slope at the near one) and second-order accurate in general.
Slopes are computed from gradients, so their precision is relative rather
than absolute and the switch restores full accuracy exactly where values
give out.  The same kernel solves it.  Both searches query the one line
``restrict(f, x, -grad f(x))``, and the result hands that line back, so the
caller can take the gradient at the level point from it.

Values pin the root only to about the rounding floor over t |g|^2, so the
slope path takes over whenever the value root's first-order decrease
t |g|^2 is within 64 rounding floors.  Where the decrease cannot show in f
at all, the value search stops at its first point, whose residual is
rounding noise, and the switch costs one value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StationaryPointError
from .linesearch import find_root
from .objectives import restrict

_EPS = float(np.finfo(float).eps)
_SLOPE_SWITCH = 64.0  # rounding floors of decrease below which slopes take over


@dataclass
class LevelStepResult:
    """Outcome of the root search.

    ``t`` is the positive step, ``y = x - t grad`` the same-level point,
    ``level_residual`` the remaining f(y) - f(x), and ``line`` the
    restriction of f to x - t grad that the search queried
    (``line.gradient(t)`` is the gradient at y).  ``near_stationary`` marks a
    point whose gradient norm already met the caller's stationarity
    tolerance, found on the slope-based path; ``grad_y`` is the gradient at
    y when that path evaluated it.  Count evaluations by passing a
    ``CountingObjective``.
    """

    t: float
    y: np.ndarray
    level_residual: float
    line: object
    near_stationary: bool = False
    grad_y: np.ndarray | None = None


def _slope_root(line, x, g, f0, t, tol_rel, max_expansions, grad_tol):
    """Root of <grad f(x - t g), g> = -|g|^2, i.e. of line.slope(t) - |g|^2,
    from the bracket start t.

    ``line`` is the restriction of f to x - t g that the value search used.
    """
    gg = float(g @ g)
    t, _ = find_root(lambda s: line.slope(s) - gg, -2.0 * gg, t, ftol=2.0 * tol_rel * gg,
                     xtol=tol_rel, max_expansions=max_expansions)
    residual = line.value(t) - f0
    grad_y = None if grad_tol is None else line.gradient(t)
    near = grad_y is not None and float(np.linalg.norm(grad_y)) <= grad_tol
    return LevelStepResult(float(t), x - t * g, float(residual), line,
                           near_stationary=near, grad_y=grad_y)


def find_level_step(obj, x, tol_rel: float = 1e-10, max_expansions: int = 60,
                    *, grad=None, f_x: float | None = None, t_init: float = 1.0,
                    grad_tol: float | None = None) -> LevelStepResult:
    """Find the unique t > 0 with f(x - t grad) = f(x), to a relative tolerance.

    ``t_init`` seeds the bracket (pass the previous step to warm-start).
    ``grad_tol`` lets the slope-based path report a point that already meets
    the caller's stationarity tolerance, so the caller can stop early.
    """
    x = np.asarray(x, dtype=float)
    g = obj.gradient(x) if grad is None else np.asarray(grad, dtype=float)
    if float(np.linalg.norm(g)) == 0.0:
        raise StationaryPointError("the gradient vanishes; there is no level step to take")
    line = restrict(obj, x, -g, f_x, g)
    f0 = line.value(0.0) if f_x is None else float(f_x)
    tol = tol_rel * (1.0 + abs(f0))
    noise_floor = 32.0 * _EPS * (1.0 + abs(f0))
    gg = float(g @ g)
    r = 0.0

    def secant_slope(t):
        # r(t)/t rises from -|g|^2 at t = 0 to its root at the level step;
        # r counts as 0 within rounding, or within tol_rel of the smaller of
        # the first-order decrease and the scale of f
        nonlocal r
        r = line.value(t) - f0
        return 0.0 if abs(r) <= max(noise_floor, tol_rel * min(gg * t, 1.0 + abs(f0))) else r / t

    t, _ = find_root(secant_slope, -gg, t_init, ftol=0.0, xtol=0.0,
                     max_expansions=max_expansions, what="objective value")
    if gg * t <= _SLOPE_SWITCH * noise_floor:
        return _slope_root(line, x, g, f0, t, tol_rel, max_expansions, grad_tol)
    if abs(r) > tol:
        raise NumericError("level-step refinement stalled above the requested tolerance")
    return LevelStepResult(float(t), x - t * g, float(r), line)
