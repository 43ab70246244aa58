"""Ellipse-center descent for strongly convex differentiable functions.

Each iteration walks the negative gradient back to the current level set,
builds the plane frame through the chord and the gradient there, and moves
to a center of the tangent-conic family: either the minimizer of f on the
semiline of centers, or the first sampled point on it that beats the chord
midpoint.  Degenerate geometry (collinear or tangential gradients) falls
back to the midpoint itself, which already decreases f strictly.

``descend`` is the one descent loop: this method and the baselines each
supply only a step rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegeneratePlaneError, NumericError
from .geometry import build_frame, center_direction, scaled_sumsq
from .levelstep import NOISE_FLOOR, find_level_step
from .linesearch import minimize_on_ray
from .objectives import CountingObjective

_NAN = float("nan")
# decrease-search halves v at most this often, down to 2^-59 of its first
# sample; the cap is this rule's own, equal to the root finder's only in value
_MAX_HALVINGS = 60


class Variant(Enum):
    """Rule for picking the next iterate on the semiline of centers."""

    SEMILINE_MIN = "semiline-min"      # exact minimization along the semiline
    DECREASE_SEARCH = "decrease-search"  # first sampled point below the midpoint value


class Termination(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max-iterations"
    NUMERIC_ERROR = "numeric-error"


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 0.01            # stop at the first iterate with |grad f| <= epsilon
    max_iterations: int = 1000
    variant: Variant = Variant.SEMILINE_MIN  # or its name

    def __post_init__(self):  # the one check of every method's stopping rule
        if not self.epsilon > 0.0:  # NaN too
            raise ValueError("stopping tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        object.__setattr__(self, "variant", Variant(self.variant))


@dataclass
class IterateRecord:
    """One visited point and the step taken from it.

    ``t`` is the level step, ``v`` the distance moved along the semiline,
    ``f_mid`` the value at the chord midpoint; they are NaN on records that
    carry no such step (baseline methods, the terminal record).  ``branch``
    is "ellipse" or "midpoint" for solver steps ("midpoint" means the
    degeneracy test fired), the method name for baselines, and "final" on
    the terminal record.
    """

    x: np.ndarray
    f: float
    grad_norm: float
    t: float = _NAN
    v: float = _NAN
    branch: str = ""
    f_mid: float = _NAN


@dataclass
class SolverRun:
    """Full trace of one minimization run."""

    iterates: list[IterateRecord]
    termination: Termination
    n_value_evals: int = 0
    n_grad_evals: int = 0
    message: str = ""

    @property
    def iterations(self) -> int:
        """Number of x-updates performed (a converged start point counts 0)."""
        return len(self.iterates) - 1

    @property
    def x_final(self) -> np.ndarray:
        return self.iterates[-1].x

    @property
    def f_final(self) -> float:
        return self.iterates[-1].f

    @property
    def grad_norm_final(self) -> float:
        return self.iterates[-1].grad_norm

    @property
    def evaluations(self) -> int:
        return self.n_value_evals + self.n_grad_evals


def semiline_search(line, variant: Variant, *, scale: float, f_base: float, slope: float):
    """Pick v >= 0 on the line {base + v d} by the variant's rule, starting
    at ``scale``; ``f_base`` is the value and ``slope`` the slope (or an
    estimate of it) at v = 0.  Returns (v, f at that point).  Raises
    ValueError when ``variant`` is not a ``Variant`` member (a name too).

    decrease-search stays at v = 0 once v |slope| is within the level
    step's noise floor 32 eps (1 + |f_base|).  That is at least 32 times
    f's own rounding eps |f_base|, so the search also drops decreases that
    f shows (ROADMAP item 8 would scale the floor with f)."""
    if variant is Variant.SEMILINE_MIN:
        v, fv = minimize_on_ray(line, v0=scale, rel_tol=1e-8, h0=f_base)
        if fv > f_base:  # no decrease above rounding: stay at the midpoint
            return 0.0, f_base
        return v, fv
    if variant is not Variant.DECREASE_SEARCH:
        raise ValueError(f"variant must be a Variant member, not {variant!r}")
    v = scale
    floor = NOISE_FLOOR * (1.0 + abs(f_base))
    for _ in range(_MAX_HALVINGS):
        if v * abs(slope) <= floor:
            break
        fv = line.value(v)
        if fv < f_base:
            return v, fv
        v *= 0.5
    return 0.0, f_base


def _axpy(a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a x + y in one new array, with the bits of ``a * x + y``."""
    out = np.multiply(x, a)
    out += y
    return out


def me_step(obj, x, f_x: float, g, g_sumsq, variant: Variant, t_init: float):
    """One ellipse-center step from x, in ``descend``'s step protocol.

    ``f_x`` and ``g`` are the value and gradient at x, ``g_sumsq`` is
    ``scaled_sumsq(g)``, ``variant`` picks the point on the semiline of
    centers, and ``t_init`` seeds the level step's bracket.  Returns
    ``(x_next, f_next, g_next, fields)``: the value and gradient at x_next,
    and the step's ``IterateRecord`` fields (t, v, branch, f_mid).

    Guarantees f(x_next) <= f(x - t g / 2) < f(x); takes the midpoint branch
    when the gradient at the level point is collinear with or tangential to
    the chord; raises NumericError when it vanishes or the midpoint rounds onto x.
    """
    level = find_level_step(obj, x, f_x, g, g_sumsq, t_init)
    t, line = level.t, level.line
    mid = 0.5 * t
    base = _axpy(-mid, g, x)  # the level line's point at t/2
    if np.logical_and.reduce(base == x):  # ndarray.all runs a Python helper
        raise NumericError("the level step collapsed onto x below float resolution")
    grad_y = line.gradient(t)
    try:
        frame = build_frame(g, g_sumsq, t, grad_y)
        a, b = center_direction(frame)
    except DegeneratePlaneError:
        f_base = line.value(mid)
        return (base, f_base, line.gradient(mid),
                {"t": t, "v": _NAN, "branch": "midpoint", "f_mid": f_base})
    d = _axpy(a, g, b * grad_y)
    # the level line runs along -g with grad f(y) = g + t A(-g) on a
    # quadratic, so d = -(a + b) (-g) + b t A(-g)
    line = line.turn(mid, base, d, (-(a + b), b * t))
    f_base = line.value(0.0)
    # the slope along d at the midpoint, estimated as ((g + grad f(y)) / 2) . d
    # (exact on a quadratic) from the frame with no n-vector pass: d =
    # (c g + w) / |w| with g . w = 0 and c as center_direction takes it
    slope = -0.5 * ((1.0 + frame.k) * frame.sin_theta / (2.0 * frame.cos_theta) * frame.gnorm
                    + frame.wnorm)
    v, f_v = semiline_search(line, variant, scale=frame.lam, f_base=f_base, slope=slope)
    x_next = base if v == 0.0 else _axpy(v, d, base)
    return x_next, f_v, line.gradient(v), {"t": t, "v": v, "branch": "ellipse", "f_mid": f_base}


def descend(obj, x0, step, cfg: SolverConfig) -> SolverRun:
    """The descent loop every method shares: run ``step`` from x0 until
    |grad f| <= cfg.epsilon or cfg.max_iterations steps are taken.

    ``step(counted, x, f, g, g_sumsq)`` returns ``(x_next, f_next, g_next,
    fields)``; ``counted`` is the counting view of obj that the step must
    query, ``g_sumsq`` is ``scaled_sumsq(g)``, which the loop takes for the
    norm, and ``fields`` are the step's ``IterateRecord`` fields besides x,
    f and grad_norm; the loop itself evaluates only the start point.  The
    stopping test runs before each step, so a start point that already
    satisfies it reports zero iterations.  Numeric failures, at the start point too, end
    the run with the partial trace instead of raising.
    """
    counted = CountingObjective(obj)
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial point must be finite")

    records: list[IterateRecord] = []
    f = gnorm = _NAN  # what the start point leaves unevaluated when it raises
    message = ""
    try:
        if hasattr(obj, "value_and_gradient"):
            f, g = counted.value_and_gradient(x)
        else:  # f stays on the terminal record when the gradient raises
            f = counted.value(x)
            g = counted.gradient(x)
        while True:
            gg, scale = g_sumsq = scaled_sumsq(g)
            gnorm = scale * math.sqrt(gg)
            if not math.isfinite(f):
                message = "non-finite objective value"
            elif not (math.isfinite(gnorm) or np.isfinite(g).all()):
                message = "non-finite gradient"
            if message:
                termination = Termination.NUMERIC_ERROR
                break
            if gnorm <= cfg.epsilon:
                termination = Termination.CONVERGED
                break
            if len(records) >= cfg.max_iterations:
                termination = Termination.MAX_ITERATIONS
                break
            x_next, f_next, g_next, fields = step(counted, x, f, g, g_sumsq)
            records.append(IterateRecord(x=x, f=f, grad_norm=gnorm, **fields))
            x, f, g = x_next, f_next, g_next
    except NumericError as exc:
        termination = Termination.NUMERIC_ERROR
        message = str(exc)
    records.append(IterateRecord(x=x, f=f, grad_norm=gnorm, branch="final"))
    return SolverRun(records, termination, counted.n_value, counted.n_grad, message)


def minimize(obj, x0, cfg: SolverConfig | None = None) -> SolverRun:
    """Run the ellipse-center iteration from x0 until |grad f| <= epsilon."""
    cfg = cfg or SolverConfig()
    warm_t = 1.0

    def step(counted, x, f, g, g_sumsq):
        nonlocal warm_t
        x_next, f_next, g_next, fields = me_step(counted, x, f, g, g_sumsq, cfg.variant, warm_t)
        warm_t = fields["t"]
        return x_next, f_next, g_next, fields

    return descend(obj, x0, step, cfg)
