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
from .geometry import downhill, scaled_sumsq
from .linesearch import minimize_on_ray
from .objectives import restrict
from .solver import SolverConfig, SolverRun, descend

_STEP_CAP = 1e12  # |tau g| / |s| past which rounding is pathological: a clean numeric error


def bb_step_size(s, g_diff, g_sumsq, kind: str = "long") -> float:
    """Spectral step from the displacement s and gradient change g_diff;
    products that overflow are taken over s and g_diff / their max |entry|.
    A step that is not finite, or whose length |tau g| passes ``_STEP_CAP``
    |s|, raises NumericError, where ``g_sumsq`` is ``scaled_sumsq(g)`` of
    the gradient it scales: both are lengths in x, so the cap does not move
    with the scale of f."""
    s = np.asarray(s, dtype=float)
    g_diff = np.asarray(g_diff, dtype=float)
    ss, a = scaled_sumsq(s)
    yy, b = scaled_sumsq(g_diff)
    sg = float(s.dot(g_diff)) if a == b == 1.0 else float((s / a).dot(g_diff / b))
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
    gg, c = g_sumsq  # |g| = sqrt(gg) c, as |s| = sqrt(ss) a
    if not (math.isfinite(tau) and tau * math.sqrt(gg) * c <= _STEP_CAP * math.sqrt(ss) * a):
        raise NumericError("spectral step size blew past the cap")
    return tau


def _exact_step(counted, x, f, g, g_sumsq, v0: float):
    """Step length tau minimizing f along -g, the root of the slope along it,
    from the bracket start v0 (NaN for none).

    The search runs along -g / s, where (|g / s|^2, s) = ``g_sumsq`` (s = 1
    unless |g|^2 overflows), so its slope at x, -|g / s|^2 s, stays finite.
    Returns x - tau g, the value and gradient there, and the ``IterateRecord``
    fields ``t`` = tau and the search's ``search_evals``.
    """
    gg, s = g_sumsq
    d = downhill(g, s)
    line = restrict(counted, x, d, f, g, turns=False)
    n_value, n_grad = counted.n_value, counted.n_grad
    # where f = 0 and there is no warm start, the unit step in x, which no scaling of f moves
    v0 = v0 * s if f or 0.0 < v0 < math.inf else 1.0 / math.sqrt(gg)
    v, f_next = minimize_on_ray(line, v0=v0, h0=f, s0=-gg * s)
    fields = {"t": v / s, "search_evals": (counted.n_value - n_value, counted.n_grad - n_grad),
              "pointwise": line.pointwise}
    return x + v * d, f_next, line.gradient(v), fields


def bb_minimize(obj, x0, kind: str = "long", cfg: SolverConfig | None = None) -> SolverRun:
    """Spectral-step descent under cfg's stopping rule; the first step uses
    an exact line search."""
    if kind not in ("long", "short"):
        raise ValueError(f"unknown step kind {kind!r}")
    branch = f"bb-{kind}"
    prev = None  # (x, g) where the last step started

    def step(counted, x, f, g, g_sumsq):
        nonlocal prev
        if prev is None:
            x_next, f_next, g_next, fields = _exact_step(counted, x, f, g, g_sumsq, math.nan)
        else:
            tau = bb_step_size(x - prev[0], g - prev[1], g_sumsq, kind)
            x_next = x - tau * g
            f_next, g_next = counted.value_and_gradient(x_next)
            fields = {"t": tau, "pointwise": True}
        prev = (x, g)
        return x_next, f_next, g_next, dict(fields, branch=branch)

    return descend(obj, x0, step, cfg or SolverConfig())


def gd_exact_minimize(obj, x0, cfg: SolverConfig | None = None) -> SolverRun:
    """Steepest descent with an exact line search at every step, under
    cfg's stopping rule."""
    warm = math.nan

    def step(counted, x, f, g, g_sumsq):
        nonlocal warm
        # the slope at x comes from g, so it is -|g|^2 < 0 and the search
        # runs; a NaN slope inside it raises, which ends the run
        x_next, f_next, g_next, fields = _exact_step(counted, x, f, g, g_sumsq, warm)
        warm = fields["t"]
        return x_next, f_next, g_next, dict(fields, branch="gd")

    return descend(obj, x0, step, cfg or SolverConfig())
