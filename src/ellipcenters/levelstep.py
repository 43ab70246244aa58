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
``restrict(f, x, -g / s, f(x), g, turns=True)`` with g = grad f(x) and s = 1
unless |g|^2 overflows, built from the value and gradient the caller holds,
and the result hands that line back, so the caller can take the gradient at
the level point from it and turn off it.

Values pin the root only to about the rounding floor over t |g|^2, so the
slope path takes over whenever the value root's first-order decrease
t |g|^2 is within 64 rounding floors.  The warm start decides first: when
its own decrease is within them, the slope path starts from it and no value
is taken.  Otherwise, where the decrease cannot show in f at all, the value
search stops at its first point, whose residual is rounding noise, and the
switch costs one value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StationaryPointError
from .linesearch import find_root
from .objectives import restrict

# the level step's noise floor per unit of 1 + |f|: differences of f below
# it count as rounding
NOISE_FLOOR = 32.0 * float(np.finfo(float).eps)
_SLOPE_SWITCH = 64.0  # rounding floors of decrease below which slopes take over
_TOL = 1e-10  # relative tolerance of the level equation


@dataclass
class LevelStepResult:
    """Outcome of the root search.

    ``t`` is the positive step along ``-g / s`` from ``x``, ``level_residual``
    the remaining f(y) - f(x) at the level point ``y = x - t g / s``, and
    ``line`` the restriction of f to x - t g / s that the search queried
    (``line.gradient(t)`` is the gradient at y).  Count evaluations by
    passing a ``CountingObjective``.

    ``level_residual`` is NaN when the slope path found t: there |f(y) -
    f(x)| is within about 64 noise floors, far inside the tolerance, and f
    cannot resolve it, so no value is spent on reading it.
    """

    t: float
    level_residual: float
    line: object


def find_level_step(obj, x, f_x: float, g, g_sumsq, t_init: float) -> LevelStepResult:
    """Find the unique t > 0 with f(x - t g / s) = f(x) to 1e-10 (1 + |f(x)|),
    from the value ``f_x`` and gradient ``g`` at x, and (|g / s|^2, s) =
    ``geometry.scaled_sumsq(g)``, so the line's slopes stay finite: s = max
    |g_i| if |g|^2 overflows and 1 otherwise.

    ``t_init`` seeds the bracket (pass the previous step to warm-start).  A
    positive, finite ``t_init`` whose decrease |g|^2 t_init / s is within
    the slope regime starts the slope path with no value query; any other
    starts the value search, from 4 |f(x)| s / |g|^2, the level step of an
    isotropic quadratic with minimum value 0, if it is not positive and
    finite (NaN for no warm start).
    """
    gg, scale = g_sumsq
    if gg == 0.0:
        raise StationaryPointError("the gradient vanishes; there is no level step to take")
    line = restrict(obj, x, g / -scale, f_x, g, turns=True)
    s0 = -gg * scale  # the line's slope at 0
    tol = _TOL * (1.0 + abs(f_x))
    noise_floor = NOISE_FLOOR * (1.0 + abs(f_x))
    r = 0.0

    def secant_slope(t):
        # r(t)/t rises from s0 at t = 0 to its root at the level step; r
        # counts as 0 within rounding, or within _TOL of the smaller of the
        # first-order decrease and the scale of f
        nonlocal r
        r = line.value(t) - f_x
        small = abs(r) <= max(noise_floor, _TOL * min(-s0 * t, 1.0 + abs(f_x)))
        return 0.0 if small else r / t

    t = t_init
    if not (0.0 < t < math.inf and -s0 * t <= _SLOPE_SWITCH * noise_floor):
        t = t if 0.0 < t < math.inf else 4.0 * abs(f_x) / -s0
        t, _ = find_root(secant_slope, s0, t, ftol=0.0, xtol=0.0, what="objective value")
    if -s0 * t <= _SLOPE_SWITCH * noise_floor:
        # the slope equation <grad f(x - t g / s), g / s> = -s0, on the same line
        t, _ = find_root(lambda u: line.slope(u) + s0, 2.0 * s0, t,
                         ftol=2.0 * _TOL * -s0, xtol=_TOL)
        r = math.nan
    elif abs(r) > tol:
        raise NumericError("level-step refinement stalled above the requested tolerance")
    return LevelStepResult(float(t), float(r), line)
