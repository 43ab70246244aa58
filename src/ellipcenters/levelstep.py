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
give out.  The same kernel solves it.  Both searches query the one line the
caller hands in, with its value h0 and slope s0 at t = 0, as
``linesearch.minimize_on_ray`` takes a line; this module knows nothing of
the line's direction or units.  The solver's line runs along -g / s, with
s = 1 unless |g|^2 overflows, and the solver keeps it, to take the gradient
at the level point from it and turn off it.

Every tolerance scales with f, so f -> 2^k f keeps every bit: the rounding
floor is 32 eps max(|h0|, S), with S the caller's run scale, a size of f
fixed for a run so that a level near f = 0 still has a floor.  Values pin
the root only to about that floor over t |g|^2, so the slope path takes
over whenever the value root's first-order decrease t |g|^2 is within 64
rounding floors.  The warm start decides first: when its own decrease is
within them, the slope path starts from it and no value is taken.
Otherwise, where the decrease cannot show in f at all, the value search
stops at its first point, whose residual is rounding noise, and the switch
costs one value.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, StationaryPointError
from .linesearch import find_root

# the level step's noise floor per unit of f's scale: differences of f
# below it count as rounding
NOISE_FLOOR = 32.0 * float(np.finfo(float).eps)
_SLOPE_SWITCH = 64.0  # rounding floors of decrease below which slopes take over
_TOL = 1e-10  # relative tolerance of the level equation


def find_level_step(line, t_init: float, *, h0: float, s0: float, scale: float):
    """Find the unique t > 0 with line.value(t) = h0 to 1e-10 |h0|, or to
    the noise floor 32 eps max(|h0|, scale) where that is larger.

    ``h0`` and ``s0`` are the value and slope of ``line`` at t = 0, as the
    caller holds them; ``s0`` must be negative and finite.  ``scale`` >= 0
    is the caller's run scale, which enters the noise floor only.
    ``t_init`` seeds the bracket (pass the previous step to warm-start).  A
    positive, finite ``t_init`` whose decrease -s0 t_init is within the
    slope regime starts the slope path with no value query; any other starts
    the value search, from 4 |h0| / |s0|, the level step of an isotropic
    quadratic with minimum value 0, if it is not positive and finite (NaN
    for no warm start).  Where h0 = 0 that is 0 and ``find_root``'s fixed 1,
    which does not scale with f, takes over, so ``me_step`` hands in the
    unit step in x there.  Returns (t, the remaining line.value(t) - h0),
    the residual NaN when the slope path found t: there it is within about
    64 noise floors and f cannot resolve it, so no value is spent on reading
    it.  Raises StationaryPointError when ``s0`` is 0.
    """
    if s0 == 0.0:
        raise StationaryPointError("the gradient vanishes; there is no level step to take")
    noise_floor = NOISE_FLOOR * max(abs(h0), scale)
    tol = max(noise_floor, _TOL * abs(h0))
    r = 0.0

    def secant_slope(t):
        # r(t)/t rises from s0 at t = 0 to its root at the level step; r
        # counts as 0 within rounding, or within _TOL of the smaller of the
        # first-order decrease and |f|
        nonlocal r
        r = line.value(t) - h0
        small = abs(r) <= max(noise_floor, _TOL * min(-s0 * t, abs(h0)))
        return 0.0 if small else r / t

    t = t_init
    if not (0.0 < t < math.inf and -s0 * t <= _SLOPE_SWITCH * noise_floor):
        t = t if 0.0 < t < math.inf else 4.0 * abs(h0) / -s0
        t, _ = find_root(secant_slope, s0, t, ftol=0.0, xtol=0.0, what="objective value")
    if -s0 * t <= _SLOPE_SWITCH * noise_floor:
        # the slope equation line.slope(t) = -s0
        t, _ = find_root(lambda u: line.slope(u) + s0, 2.0 * s0, t,
                         ftol=2.0 * _TOL * -s0, xtol=_TOL)
        r = math.nan
    elif abs(r) > tol:
        raise NumericError("level-step refinement stalled above the requested tolerance")
    return float(t), float(r)
