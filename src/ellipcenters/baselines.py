"""Reference first-order methods for the benchmark comparison.

Spectral-step descent with the long step <s,s>/<s,g> or the short step
<s,g>/<g,g> built from the last displacement s and gradient change g, plus
steepest descent with an exact line search.  All methods share the solver's
stopping rule, iteration-count convention and run record format.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError
from .linesearch import minimize_on_ray
from .objectives import restrict
from .solver import (CountingObjective, IterateRecord, SolverRun, Termination,
                     nonfinite_message)

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
    """Step length minimizing f along -g, by bracketing and golden section.

    Returns (tau, f at x - tau g, the line searched); ``line.gradient(tau)``
    is the gradient at the new point.
    """
    line = restrict(counted, x, -g, f, g)
    tau, f_next, _ = minimize_on_ray(line.value, v0=v0, rel_tol=1e-10, h0=f)
    return tau, f_next, line


def _finish(records, x, f, gnorm, termination, counted, message=""):
    records.append(IterateRecord(x=x, f=f, grad_norm=gnorm, branch="final"))
    return SolverRun(records, termination, counted.n_value, counted.n_grad, message)


def bb_minimize(obj, x0, kind: str = "long", epsilon: float = 0.01,
                max_iterations: int = 1000) -> SolverRun:
    """Spectral-step descent; the first step uses an exact line search."""
    if kind not in ("long", "short"):
        raise ValueError(f"unknown step kind {kind!r}")
    counted = CountingObjective(obj)
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial point must be finite")
    records: list[IterateRecord] = []
    branch = f"bb-{kind}"
    f = counted.value(x)
    g = counted.gradient(x)
    gnorm = float(np.linalg.norm(g))
    message = nonfinite_message(f, gnorm)
    if message:
        return _finish(records, x, f, gnorm, Termination.NUMERIC_ERROR, counted, message)
    prev_x = prev_g = None
    while True:
        if gnorm <= epsilon:
            return _finish(records, x, f, gnorm, Termination.CONVERGED, counted)
        if len(records) >= max_iterations:
            return _finish(records, x, f, gnorm, Termination.MAX_ITERATIONS, counted)
        try:
            if prev_x is None:
                tau, f_next, line = _exact_step(counted, x, f, g, v0=1.0)
            else:
                tau = bb_step_size(x - prev_x, g - prev_g, kind)
                f_next = line = None
        except NumericError as exc:
            return _finish(records, x, f, gnorm, Termination.NUMERIC_ERROR,
                           counted, str(exc))
        records.append(IterateRecord(x=x, f=f, grad_norm=gnorm, t=tau, branch=branch))
        prev_x, prev_g = x, g
        x = x - tau * g
        if line is None:
            f, g = counted.value(x), counted.gradient(x)
        else:
            f, g = f_next, line.gradient(tau)
        gnorm = float(np.linalg.norm(g))
        message = nonfinite_message(f, gnorm)
        if message:
            return _finish(records, x, f, gnorm, Termination.NUMERIC_ERROR,
                           counted, message)


def gd_exact_minimize(obj, x0, epsilon: float = 0.01,
                      max_iterations: int = 1000) -> SolverRun:
    """Steepest descent with an exact line search at every step."""
    counted = CountingObjective(obj)
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial point must be finite")
    records: list[IterateRecord] = []
    f = counted.value(x)
    g = counted.gradient(x)
    gnorm = float(np.linalg.norm(g))
    message = nonfinite_message(f, gnorm)
    if message:
        return _finish(records, x, f, gnorm, Termination.NUMERIC_ERROR, counted, message)
    warm = 1.0
    while True:
        if gnorm <= epsilon:
            return _finish(records, x, f, gnorm, Termination.CONVERGED, counted)
        if len(records) >= max_iterations:
            return _finish(records, x, f, gnorm, Termination.MAX_ITERATIONS, counted)
        try:
            tau, f_next, line = _exact_step(counted, x, f, g, v0=warm)
        except NumericError as exc:
            return _finish(records, x, f, gnorm, Termination.NUMERIC_ERROR,
                           counted, str(exc))
        if tau == 0.0 and warm == 1.0:
            # no decrease from the cold bracket: the next iteration would
            # repeat this search exactly
            return _finish(records, x, f, gnorm, Termination.NUMERIC_ERROR, counted,
                           "the exact line search found no decrease along -grad f")
        records.append(IterateRecord(x=x, f=f, grad_norm=gnorm, t=tau, branch="gd"))
        x = x - tau * g
        f = f_next
        g = line.gradient(tau)
        gnorm = float(np.linalg.norm(g))
        message = nonfinite_message(f, gnorm)
        if message:
            return _finish(records, x, f, gnorm, Termination.NUMERIC_ERROR,
                           counted, message)
        warm = tau if tau > 0.0 else 1.0
