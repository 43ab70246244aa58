"""Step along the negative gradient back to the starting level set.

For a strongly convex f and a nonstationary point x, the residual
``r(t) = f(x - t grad f(x)) - f(x)`` starts at zero with negative slope,
stays negative on an interval, and grows without bound, so it has exactly
one positive root.  We bracket that root (halve t until the residual is
negative, double until it is nonnegative), bisect, and finish with a few
secant steps that push the residual far below the requested tolerance.

Near the minimizer the whole dip of r drops below the rounding floor of f,
and no value-based search can see it.  There the root is recovered from the
slope instead: t solves <grad f(x - t g), g> = -|g|^2, which is the same
equation for quadratics (the slope of a parabola at its far level point
mirrors the slope at the near one) and second-order accurate in general.
Slopes are computed from gradients, so their precision is relative rather
than absolute and the switch restores full accuracy exactly where values
give out.  Both searches query the one line ``restrict(f, x, -grad f(x))``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonCoerciveError, NumericError, StationaryPointError
from .objectives import restrict

_EPS = float(np.finfo(float).eps)


@dataclass
class LevelStepResult:
    """Outcome of the root search.

    ``t`` is the positive step, ``y = x - t grad`` the same-level point,
    ``level_residual`` the remaining f(y) - f(x), ``evaluations`` the number
    of objective values consumed.  ``near_stationary`` marks a point whose
    gradient norm already met the caller's stationarity tolerance, found on
    the slope-based path.
    """

    t: float
    y: np.ndarray
    level_residual: float
    evaluations: int
    near_stationary: bool = False


def _slope_root(obj, line, x, g, f0, max_expansions, grad_tol, evals):
    """Root of <grad f(x - t g), g> = -|g|^2, by bracketing plus secant.

    ``line`` is the restriction of f to x - t g that the value search used.
    """
    target = -float(g @ g)

    def slope(t):
        return -line.slope(t)

    # slope(0) = |g|^2 > target and slope decreases strictly, so bracket the
    # crossing: lo keeps slope > target, hi slope <= target
    lo, d_lo = 0.0, -target
    hi = 1.0
    d_hi = slope(hi)
    steps = 0
    while d_hi > target:
        if steps >= max_expansions:
            raise NonCoerciveError(
                "the slope along the gradient ray never recovered; "
                "the objective does not look strongly convex"
            )
        lo, d_lo = hi, d_hi
        hi *= 2.0
        steps += 1
        d_hi = slope(hi)
    for _ in range(80):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        d = slope(mid)
        if d > target:
            lo, d_lo = mid, d
        else:
            hi, d_hi = mid, d
    # linear interpolation is exact when the slope is linear in t (quadratics)
    t_root = hi
    if d_hi < d_lo:
        cand = lo + (target - d_lo) * (hi - lo) / (d_hi - d_lo)
        if lo < cand <= hi:
            t_root = cand
    y = x - t_root * g
    evals += 1
    residual = line.value(t_root) - f0
    near = grad_tol is not None and float(np.linalg.norm(obj.gradient(y))) <= grad_tol
    return LevelStepResult(float(t_root), y, float(residual), evals,
                           near_stationary=near)


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
    line = restrict(obj, x, -g)
    f0 = line.value(0.0) if f_x is None else float(f_x)
    tol = tol_rel * (1.0 + abs(f0))
    noise_floor = 32.0 * _EPS * (1.0 + abs(f0))
    evals = 0

    def residual(t):
        nonlocal evals
        evals += 1
        val = line.value(t) - f0
        if np.isnan(val):
            raise NumericError("non-finite objective value during the level search")
        return val

    t = t_init if (np.isfinite(t_init) and t_init > 0.0) else 1.0
    r = residual(t)
    shrinks = 0
    while r >= 0.0:
        if shrinks >= max_expansions:
            # the decrease has underflowed; switch to the slope equation
            return _slope_root(obj, line, x, g, f0, max_expansions, grad_tol, evals)
        t *= 0.5
        shrinks += 1
        r = residual(t)

    deepest = r
    lo, r_lo = t, r
    hi, r_hi = t, r
    expansions = 0
    while r_hi < 0.0:
        if expansions >= max_expansions:
            raise NonCoerciveError(
                "the objective never returned to its starting level within the "
                "expansion budget; it does not look strongly convex"
            )
        lo, r_lo = hi, r_hi
        hi *= 2.0
        expansions += 1
        r_hi = residual(hi)
        deepest = min(deepest, r_hi)

    t_best, r_best = (hi, r_hi) if abs(r_hi) < abs(r_lo) else (lo, r_lo)
    for _ in range(200):
        if abs(r_best) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        r_mid = residual(mid)
        deepest = min(deepest, r_mid)
        if abs(r_mid) < abs(r_best):
            t_best, r_best = mid, r_mid
        if r_mid < 0.0:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid

    if deepest > -noise_floor:
        # the bracket only ever saw rounding noise, not a real dip
        return _slope_root(obj, line, x, g, f0, max_expansions, grad_tol, evals)

    # secant steps inside the bracket sharpen the root well past tol
    for _ in range(3):
        denom = r_hi - r_lo
        if denom <= 0.0:
            break
        ts = lo - r_lo * (hi - lo) / denom
        if not lo < ts < hi:
            break
        rs = residual(ts)
        if abs(rs) < abs(r_best):
            t_best, r_best = ts, rs
        if rs < 0.0:
            lo, r_lo = ts, rs
        elif rs > 0.0:
            hi, r_hi = ts, rs
        else:
            break

    if abs(r_best) > tol:
        raise NumericError("level-step refinement stalled above the requested tolerance")
    return LevelStepResult(float(t_best), x - t_best * g, float(r_best), evals)
