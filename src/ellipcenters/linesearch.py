"""One-dimensional searches: a safeguarded bracketing root-finder, and the
minimum of a convex function on the ray v >= 0 as the root of its slope.

``find_root`` is the one kernel behind every search along a ray.  It takes a
function phi that increases through zero on t > 0 from a known phi(0) < 0.
It grows a bracket from a start point by extrapolating the secant through
the last two points, at most doubling each time, and closes it by regula
falsi of the Illinois family: a secant step between the bracket ends, where
an end kept twice in a row has its value scaled down (by the Anderson-Bjorck
factor, or halved as in the Illinois method), so the bracket cannot stall on
one side.  When phi is affine, the first secant step, between the ends or
extrapolated past them, lands on the root.

The minimum of a convex function along a line solves ``slope(v) = 0``.
Slopes come from gradients, so their precision is relative: they keep
locating the minimum where comparisons of function values drown in rounding
(Hager & Zhang, SIAM J. Optim. 16, 2005).
"""
from __future__ import annotations

import math

from .errors import NumericError

MAX_EXPANSIONS = 60  # bracket expansions before a ray counts as unbounded below
MAX_EVALS = 10_000   # evaluations of phi per root find
RAY_TOL = 1e-8       # relative precision of every minimum along a ray


def find_root(phi, phi0: float, t: float, *, ftol: float, xtol: float, what: str = "gradient"):
    """The root of phi on t > 0, where phi(0) = phi0 < 0 and phi increases.

    The bracket starts at [0, t] and grows at most ``MAX_EXPANSIONS`` times.
    The search stops at the first point with |phi| <= ``ftol``, or once the
    bracket [lo, hi] is narrower than ``xtol * hi``.  Returns (t, phi(t)) for
    the last point evaluated.

    Raises NumericError when phi is still negative after the last expansion
    (the objective looks unbounded below along the ray), after ``MAX_EVALS``
    evaluations of phi, or on a NaN, named as a non-finite ``what``.
    """
    lo, f_lo = 0.0, phi0
    t = t if (t > 0.0 and math.isfinite(t)) else 1.0
    hi = f_hi = None  # the bracket's upper end, once phi(t) stops descending
    expansions = side = 0
    for _ in range(MAX_EVALS):
        f = float(phi(t))
        if math.isnan(f):
            raise NumericError(f"non-finite {what}")
        if hi is None and f < 0.0 and -f > ftol:
            if expansions == MAX_EXPANSIONS:
                raise NumericError(
                    f"the objective looks unbounded below along the ray: the search "
                    f"still descended after {MAX_EXPANSIONS} bracket expansions")
            # extrapolate the secant through the last two points, at most doubling
            step = t - f * (t - lo) / (f - f_lo) if f > f_lo else math.inf
            lo, f_lo = t, f
            t = step if t < step < 2.0 * t else 2.0 * t
            expansions += 1
            continue
        if hi is None:
            hi, f_hi = t, f
        elif f < 0.0:
            if side < 0:
                m = 1.0 - f / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo = t, f
            side = -1
        else:
            if side > 0:
                m = 1.0 - f / f_hi
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi = t, f
            side = 1
        if not (abs(f) > ftol and hi - lo > xtol * hi):
            return t, f
        step = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < step < hi:  # an infinite or rounded-off secant step
            step = 0.5 * (lo + hi)
            if not lo < step < hi:  # no float between the ends: stop at t
                return t, f
        t = step
    raise NumericError("one-dimensional search exceeded its evaluation budget")


def minimize_on_ray(line, v0: float, *, h0: float, s0: float):
    """Minimize a convex function over v >= 0 along ``line``, from the bracket
    start v0, by solving ``line.slope(v) = 0`` to relative precision RAY_TOL.

    ``h0`` and ``s0`` are the value and slope of ``line`` at v = 0, as the
    caller holds them; ``s0`` may be the caller's estimate.  A v0 that is
    not positive and finite (NaN for no warm start) gives way to
    2 |h0| / |s0|, the minimum of an isotropic quadratic with minimum value
    0.  Where h0 = 0 that is 0 and ``find_root``'s fixed 1, which does not
    scale with f, takes over, so gd's and BB's exact step hand in the unit
    step in x there.  Returns (v, the value at v).  An ``s0`` that is
    nonnegative, or not a number, returns (0, h0); the caller's gradient
    check then names a non-finite slope.  So h0 is unread where v0 is
    positive and finite and s0 < 0, and semiline-min, which holds no value
    at its base, hands in NaN.  An estimate may be negative on a line that
    does not descend at 0: no slope the search takes is then negative, so the
    bracket shrinks onto 0 and the search returns the least subnormal v,
    after about a thousand slopes, with a value that may exceed h0 there by
    rounding.  ``find_root`` raises the errors.
    """
    if not s0 < 0.0:
        return 0.0, h0
    v0 = v0 if 0.0 < v0 < math.inf else 2.0 * abs(h0) / -s0
    v, _ = find_root(line.slope, s0, v0, ftol=RAY_TOL * -s0, xtol=RAY_TOL)
    return v, line.value(v)
