"""Reference first-order methods for the benchmark comparison.

Spectral-step descent with the long step <s,s>/<s,g> or the short step
<s,g>/<g,g> built from the last displacement s and gradient change g, plus
steepest descent with an exact line search.  Each method is a step rule
for the solver's one descent loop (``solver.descend``), so all share its
stopping rule, iteration-count convention and run record format.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError
from .linesearch import minimize_on_ray
from .objectives import restrict
from .solver import SolverRun, descend

_STEP_CAP = 1e12  # convert pathological rounding into a clean numeric error


def bb_step_size(s, g_diff, kind: str = "long") -> float:
    """Spectral step from the displacement s and gradient change g_diff."""
    s = np.asarray(s, dtype=float)
    g_diff = np.asarray(g_diff, dtype=float)
    sg = float(s @ g_diff)
    if sg <= 0.0:
        raise NumericError("nonpositive curvature along the last displacement")
    if kind == "long":
        tau = float(s @ s) / sg
    elif kind == "short":
        tau = sg / float(g_diff @ g_diff)
    else:
        raise ValueError(f"unknown step kind {kind!r}")
    if not np.isfinite(tau) or tau > _STEP_CAP:
        raise NumericError("spectral step size blew past the cap")
    return tau


def _exact_step(counted, x, f, g, v0: float):
    """Step length minimizing f along -g, the root of the slope along it.

    Returns (tau, f at x - tau g, the line searched); ``line.gradient(tau)``
    is the gradient at the new point.
    """
    line = restrict(counted, x, -g, f, g)
    tau, f_next = minimize_on_ray(line, v0=v0, rel_tol=1e-10, h0=f)
    return tau, f_next, line


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
            tau, f_next, line = _exact_step(counted, x, f, g, v0=1.0)
            g_next = line.gradient(tau)
        else:
            tau = bb_step_size(x - prev[0], g - prev[1], kind)
            f_next = g_next = None
        prev = (x, g)
        return x - tau * g, f_next, g_next, dict(t=tau, branch=branch)

    return descend(obj, x0, step, epsilon, max_iterations)


def gd_exact_minimize(obj, x0, epsilon: float = 0.01,
                      max_iterations: int = 1000) -> SolverRun:
    """Steepest descent with an exact line search at every step."""
    warm = 1.0

    def step(counted, x, f, g):
        nonlocal warm
        # tau is 0 only when the slope at x is not a number, and then the
        # gradient handed back is not either, which ends the run
        tau, f_next, line = _exact_step(counted, x, f, g, v0=warm)
        warm = tau
        return x - tau * g, f_next, line.gradient(tau), dict(t=tau, branch="gd")

    return descend(obj, x0, step, epsilon, max_iterations)
