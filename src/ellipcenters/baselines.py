"""Reference first-order methods for the benchmark comparison.

Spectral-step descent with the long step <s,s>/<s,g> or the short step
<s,g>/<g,g> built from the last displacement s and gradient change g, plus
steepest descent with an exact line search.  Each method is a step rule
for the solver's one descent loop (``solver.descend``), so all share its
stopping rule, iteration-count convention and run record format.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .geometry import scaled_sumsq
from .linesearch import minimize_on_ray
from .objectives import restrict
from .solver import SolverRun, descend

_STEP_CAP = 1e12  # convert pathological rounding into a clean numeric error


def bb_step_size(s, g_diff, kind: str = "long") -> float:
    """Spectral step from the displacement s and gradient change g_diff;
    products that overflow are taken over s and g_diff / their max |entry|."""
    s = np.asarray(s, dtype=float)
    g_diff = np.asarray(g_diff, dtype=float)
    ss, a = scaled_sumsq(s)
    yy, b = scaled_sumsq(g_diff)
    sg = float(s @ g_diff) if a == b == 1.0 else float((s / a) @ (g_diff / b))
    if sg <= 0.0:
        raise NumericError("nonpositive curvature along the last displacement")
    # s.s = ss a^2, s.g_diff = sg a b and g_diff.g_diff = yy b^2
    if kind == "long":
        tau = ss / sg * (a / b)
    elif kind == "short":
        # g_diff . g_diff underflows to 0 only under a step far past the cap
        tau = sg / yy * (a / b) if yy > 0.0 else math.inf
    else:
        raise ValueError(f"unknown step kind {kind!r}")
    if not np.isfinite(tau) or tau > _STEP_CAP:
        raise NumericError("spectral step size blew past the cap")
    return tau


def _exact_step(counted, x, f, g, v0: float):
    """Step length tau minimizing f along -g, the root of the slope along it,
    from the bracket start v0.

    The search runs along -g / s, with s = max |g_i| where |g|^2 overflows
    and s = 1 otherwise, so its slope at x stays finite.  Returns (tau, x -
    tau g, and the value and gradient there).
    """
    _, s = scaled_sumsq(g)
    d = g / -s
    line = restrict(counted, x, d, f, g)
    v, f_next = minimize_on_ray(line, v0=v0 * s, rel_tol=1e-10, h0=f)
    return v / s, x + v * d, f_next, line.gradient(v)


def bb_minimize(obj, x0, kind: str = "long", epsilon: float = 0.01,
                max_iterations: int = 1000) -> SolverRun:
    """Spectral-step descent; the first step uses an exact line search."""
    if kind not in ("long", "short"):
        raise ValueError(f"unknown step kind {kind!r}")
    branch = f"bb-{kind}"
    prev = None  # (x, g) where the last step started

    def step(counted, x, f, g):
        nonlocal prev
        if prev is None:
            tau, x_next, f_next, g_next = _exact_step(counted, x, f, g, v0=1.0)
        else:
            tau = bb_step_size(x - prev[0], g - prev[1], kind)
            x_next = x - tau * g
            f_next, g_next = counted.value_and_gradient(x_next)
        prev = (x, g)
        return x_next, f_next, g_next, dict(t=tau, branch=branch)

    return descend(obj, x0, step, epsilon, max_iterations)


def gd_exact_minimize(obj, x0, epsilon: float = 0.01,
                      max_iterations: int = 1000) -> SolverRun:
    """Steepest descent with an exact line search at every step."""
    warm = 1.0

    def step(counted, x, f, g):
        nonlocal warm
        # the slope at x comes from g, so it is -|g|^2 < 0 and the search
        # runs; a NaN slope inside it raises, which ends the run
        tau, x_next, f_next, g_next = _exact_step(counted, x, f, g, v0=warm)
        warm = tau
        return x_next, f_next, g_next, dict(t=tau, branch="gd")

    return descend(obj, x0, step, epsilon, max_iterations)
