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
``restrict(f, x, -grad f(x), turns=True)``, and the result hands that line
back, so the caller can take the gradient at the level point from it and
turn off it.

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
from .geometry import scaled_sumsq
from .linesearch import find_root
from .objectives import restrict

_EPS = float(np.finfo(float).eps)
_SLOPE_SWITCH = 64.0  # rounding floors of decrease below which slopes take over
_TOL = 1e-10  # relative tolerance of the level equation


@dataclass
class LevelStepResult:
    """Outcome of the root search.

    ``t`` is the positive step along ``-g`` from ``x``, ``level_residual``
    the remaining f(y) - f(x) at the level point ``y = x - t g``, and
    ``line`` the restriction of f to x - t g that the search queried
    (``line.gradient(t)`` is the gradient at y).  Count evaluations by
    passing a ``CountingObjective``.
    """

    t: float
    x: np.ndarray
    g: np.ndarray
    level_residual: float
    line: object

    @property
    def y(self) -> np.ndarray:
        return self.x - self.t * self.g


def find_level_step(obj, x, *, grad=None, f_x: float | None = None,
                    t_init: float = 1.0) -> LevelStepResult:
    """Find the unique t > 0 with f(x - t grad) = f(x) to 1e-10 (1 + |f(x)|).

    ``t_init`` seeds the bracket (pass the previous step to warm-start).
    Both equations are solved in units of (max |g_i|)^2 where |g|^2 overflows.
    """
    x = np.asarray(x, dtype=float)
    g = obj.gradient(x) if grad is None else np.asarray(grad, dtype=float)
    gg, scale = scaled_sumsq(g)
    if gg == 0.0:
        raise StationaryPointError("the gradient vanishes; there is no level step to take")
    line = restrict(obj, x, -g, f_x, g, turns=True)
    f0 = line.value(0.0) if f_x is None else float(f_x)
    tol = _TOL * (1.0 + abs(f0))
    noise_floor = 32.0 * _EPS * (1.0 + abs(f0))
    r = 0.0

    def secant_slope(t):
        # r(t)/t rises from -|g|^2 at t = 0 to its root at the level step;
        # r counts as 0 within rounding, or within _TOL of the smaller of
        # the first-order decrease and the scale of f
        nonlocal r
        r = line.value(t) - f0
        small = abs(r) <= max(noise_floor, _TOL * min(gg * t * scale * scale, 1.0 + abs(f0)))
        return 0.0 if small else r / t / scale / scale

    t, _ = find_root(secant_slope, -gg, t_init, ftol=0.0, xtol=0.0, what="objective value")
    if gg * t * scale * scale <= _SLOPE_SWITCH * noise_floor:
        # the slope equation <grad f(x - t g), g> = -|g|^2, on the same line
        t, _ = find_root(lambda s: line.slope(s) / scale / scale - gg, -2.0 * gg, t,
                         ftol=2.0 * _TOL * gg, xtol=_TOL)
        r = line.value(t) - f0
    elif abs(r) > tol:
        raise NumericError("level-step refinement stalled above the requested tolerance")
    return LevelStepResult(float(t), x, g, float(r), line)
