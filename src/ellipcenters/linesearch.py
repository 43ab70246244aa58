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

from .errors import NonCoerciveError, NumericError

MAX_EXPANSIONS = 60  # bracket expansions before a ray counts as unbounded below
MAX_EVALS = 10_000   # evaluations of phi per root find


def find_root(phi, phi0: float, t: float, *, ftol: float, xtol: float, what: str = "gradient"):
    """The root of phi on t > 0, where phi(0) = phi0 < 0 and phi increases.

    The bracket starts at [0, t] and grows at most ``MAX_EXPANSIONS`` times.
    The search stops at the first point with |phi| <= ``ftol``, or once the
    bracket [lo, hi] is narrower than ``xtol * hi``.  Returns (t, phi(t)) for
    the last point evaluated.

    Raises NonCoerciveError when phi is still negative after the last
    expansion, and NumericError after ``MAX_EVALS`` evaluations of phi or on a
    NaN, named as a non-finite ``what``.
    """
    evals = 0

    def call(s):
        nonlocal evals
        if evals >= MAX_EVALS:
            raise NumericError("one-dimensional search exceeded its evaluation budget")
        evals += 1
        val = float(phi(s))
        if math.isnan(val):
            raise NumericError(f"non-finite {what}")
        return val

    lo, f_lo = 0.0, phi0
    hi = t if (t > 0.0 and math.isfinite(t)) else 1.0
    f_hi = call(hi)
    expansions = 0
    while f_hi < 0.0 and -f_hi > ftol:
        if expansions == MAX_EXPANSIONS:
            raise NonCoerciveError(
                f"the objective looks unbounded below along the ray: the search "
                f"still descended after {MAX_EXPANSIONS} bracket expansions")
        # extrapolate the secant through the last two points, at most doubling
        step = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi > f_lo else math.inf
        lo, f_lo = hi, f_hi
        hi = step if hi < step < 2.0 * hi else 2.0 * hi
        expansions += 1
        f_hi = call(hi)
    t, f = hi, f_hi
    side = 0
    while abs(f) > ftol and hi - lo > xtol * hi:
        t = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < t < hi:  # an infinite or rounded-off secant step
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                break
        f = call(t)
        if f < 0.0:
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
    return t, f


def minimize_on_ray(line, v0: float = 1.0, rel_tol: float = 1e-8, h0: float | None = None):
    """Minimize a convex function over v >= 0 along ``line``, from the bracket
    start v0, by solving ``line.slope(v) = 0`` to relative precision rel_tol.

    ``h0`` is ``line.value(0.0)`` when the caller has it.  Returns (v, the
    value at v).  A line that does not descend at v = 0 (its slope there is
    nonnegative, or not a number) returns v = 0; the caller's gradient check
    then names a non-finite slope.  ``find_root`` raises the errors.
    """
    s0 = line.slope(0.0)
    if not s0 < 0.0:
        return 0.0, line.value(0.0) if h0 is None else h0
    v, _ = find_root(line.slope, s0, v0, ftol=rel_tol * -s0, xtol=rel_tol)
    return v, line.value(v)
