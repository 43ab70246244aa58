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

from .errors import DegeneratePlaneError, NumericError, StationaryPointError
from .geometry import build_frame, center_direction
from .levelstep import find_level_step
from .linesearch import minimize_on_ray
from .objectives import CountingObjective, restrict

_NAN = float("nan")


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
    variant: Variant = Variant.SEMILINE_MIN
    tau_level: float = 1e-10         # relative tolerance of the level equation
    tau_dep: float = 1e-8            # sin(theta) below this counts as collinear
    tau_linesearch: float = 1e-8     # relative precision of the semiline minimum
    max_inner_evals: int = 10_000    # per semiline search
    max_expansions: int = 60         # bracket expansions per search along a ray

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("stopping tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        for name in ("tau_level", "tau_dep", "tau_linesearch"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class IterateRecord:
    """One visited point and the step taken from it.

    ``t`` is the level step, ``v`` the distance moved along the semiline,
    ``f_mid`` the value at the chord midpoint; they are NaN on records that
    carry no such step (baseline methods, the terminal record).  ``branch``
    is "ellipse" or "midpoint" for solver steps ("midpoint" means the
    degeneracy test fired), "stationary" for the level-step rescue, the
    method name for baselines, and "final" on the terminal record.
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


def _nonfinite_message(f: float, gnorm: float) -> str:
    """Why a run cannot go on from a point with value f and gradient norm
    gnorm, or "" when both are finite."""
    if not math.isfinite(f):
        return "non-finite objective value"
    if not math.isfinite(gnorm):
        return "non-finite gradient"
    return ""


@dataclass
class MEStepDiagnostics:
    """How one step went.  ``g_next`` is the gradient at the returned point
    when the step already took it from a line it searched, else None."""

    t: float
    v: float
    branch: str
    f_mid: float
    f_next: float
    y: np.ndarray | None = None
    g_next: np.ndarray | None = None


def semiline_search(line, variant: Variant, cfg: SolverConfig, *,
                    scale: float, f_base: float):
    """Pick v >= 0 on the line {base + v d} by the variant's rule, starting
    at ``scale``; ``f_base`` is the value at v = 0.  Returns (v, f at that
    point)."""
    if variant is Variant.SEMILINE_MIN:
        v, fv = minimize_on_ray(line, v0=scale, rel_tol=cfg.tau_linesearch,
                                max_evals=cfg.max_inner_evals, h0=f_base,
                                max_expansions=cfg.max_expansions)
        if fv > f_base:  # no decrease above rounding: stay at the midpoint
            return 0.0, f_base
        return v, fv
    v = scale
    for _ in range(cfg.max_expansions):
        fv = line.value(v)
        if fv < f_base:
            return v, fv
        v *= 0.5
    return 0.0, f_base


def me_step(obj, x, cfg: SolverConfig | None = None, warm_t: float | None = None,
            *, f_x: float | None = None, grad_x=None):
    """One ellipse-center step from x.  Returns (x_next, diagnostics).

    Guarantees f(x_next) <= f((x + y)/2) < f(x); the midpoint branch is taken
    whenever the gradient at the level point is collinear with the chord or
    tangential to it.
    """
    cfg = cfg or SolverConfig()
    x = np.asarray(x, dtype=float)
    f0 = obj.value(x) if f_x is None else float(f_x)
    g0 = obj.gradient(x) if grad_x is None else np.asarray(grad_x, dtype=float)
    if float(np.linalg.norm(g0)) <= cfg.epsilon:
        raise StationaryPointError("gradient norm is already within the stopping tolerance")

    level = find_level_step(obj, x, cfg.tau_level, cfg.max_expansions, grad=g0, f_x=f0,
                            t_init=1.0 if warm_t is None else warm_t, grad_tol=cfg.epsilon)
    y = level.y
    if np.array_equal(y, x):
        raise NumericError("the level step collapsed onto x below float resolution")
    if level.near_stationary:
        return y, MEStepDiagnostics(t=level.t, v=_NAN, branch="stationary",
                                    f_mid=_NAN, f_next=f0 + level.level_residual, y=y,
                                    g_next=level.grad_y)

    base = 0.5 * (x + y)
    # taken here rather than inside find_level_step, so that a gradient
    # evaluated inside the level step still means it took its slope path
    grad_y = level.grad_y if level.grad_y is not None else level.line.gradient(level.t)
    try:
        frame = build_frame(x, y, grad_y, dep_tol=cfg.tau_dep)
        d = center_direction(frame)
    except DegeneratePlaneError:
        f_base = obj.value(base)
        return base, MEStepDiagnostics(t=level.t, v=_NAN, branch="midpoint",
                                       f_mid=f_base, f_next=f_base, y=y)
    line = restrict(obj, base, d)
    f_base = line.value(0.0)
    v, f_v = semiline_search(line, cfg.variant, cfg, scale=frame.lam, f_base=f_base)
    x_next = base if v == 0.0 else base + v * d
    return x_next, MEStepDiagnostics(t=level.t, v=v, branch="ellipse",
                                     f_mid=f_base, f_next=f_v, y=y,
                                     g_next=line.gradient(v))


def descend(obj, x0, step, epsilon: float, max_iterations: int) -> SolverRun:
    """The descent loop every method shares: run ``step`` from x0 until
    |grad f| <= epsilon.

    ``step(counted, x, f, g)`` returns ``(x_next, f_next, g_next, fields)``;
    ``counted`` is the counting view of obj that the step must query, and
    ``fields`` are the step's ``IterateRecord`` fields besides x, f and
    grad_norm.  A ``None`` for f_next or g_next is evaluated at x_next, the
    value first.  The stopping test runs before each step, so a start point
    that already satisfies it reports zero iterations.  Numeric failures end
    the run with the partial trace instead of raising.
    """
    counted = CountingObjective(obj)
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial point must be finite")

    records: list[IterateRecord] = []
    f = counted.value(x)
    g = counted.gradient(x)
    gnorm = float(np.linalg.norm(g))
    message = _nonfinite_message(f, gnorm)
    while True:
        if message:
            termination = Termination.NUMERIC_ERROR
            break
        if gnorm <= epsilon:
            termination = Termination.CONVERGED
            break
        if len(records) >= max_iterations:
            termination = Termination.MAX_ITERATIONS
            break
        try:
            x_next, f_next, g_next, fields = step(counted, x, f, g)
            if f_next is None:
                f_next = counted.value(x_next)
            if g_next is None:
                g_next = counted.gradient(x_next)
        except NumericError as exc:
            termination = Termination.NUMERIC_ERROR
            message = str(exc)
            break
        records.append(IterateRecord(x=x, f=f, grad_norm=gnorm, **fields))
        x, f, g = x_next, f_next, g_next
        gnorm = float(np.linalg.norm(g))
        message = _nonfinite_message(f, gnorm)
    records.append(IterateRecord(x=x, f=f, grad_norm=gnorm, branch="final"))
    return SolverRun(records, termination, counted.n_value, counted.n_grad, message)


def minimize(obj, x0, cfg: SolverConfig | None = None) -> SolverRun:
    """Run the ellipse-center iteration from x0 until |grad f| <= epsilon."""
    cfg = cfg or SolverConfig()
    warm_t = None

    def step(counted, x, f, g):
        nonlocal warm_t
        x_next, diag = me_step(counted, x, cfg, warm_t, f_x=f, grad_x=g)
        warm_t = diag.t
        return x_next, diag.f_next, diag.g_next, dict(
            t=diag.t, v=diag.v, branch=diag.branch, f_mid=diag.f_mid)

    return descend(obj, x0, step, cfg.epsilon, cfg.max_iterations)
