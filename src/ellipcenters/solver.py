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
from .geometry import build_frame, center_direction, downhill, scaled_sumsq
from .levelstep import NOISE_FLOOR, find_level_step
from .linesearch import minimize_on_ray
from .objectives import CountingObjective, _is_count, restrict

_NAN = float("nan")
_FLOAT_MAX = float(np.finfo(float).max)
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
        if not _is_count(self.max_iterations):  # 2.5, NaN, inf and True too
            raise ValueError("max_iterations must be an integer")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        object.__setattr__(self, "variant", Variant(self.variant))


@dataclass
class IterateRecord:
    """One visited point and the step taken from it.

    ``t`` is the level step (a baseline's step length), ``v`` the distance
    moved along the semiline, ``f_mid`` the value at the chord midpoint and
    ``lam`` the chord length t |g|, where the semiline search starts; each is
    NaN where no such step ran (v and lam on midpoint steps too, and f_mid on
    semiline-min's ellipse steps that did not stay at the midpoint, which
    need none).  ``branch``
    is "ellipse" or "midpoint" for solver steps ("midpoint" means the
    degeneracy test fired), the method name for baselines, and "final" on
    the terminal record.  ``level_path`` ("value" or "slope") and
    ``level_residual`` (NaN on the slope path) are the level step's and
    ``sin_theta`` the frame's, "" or NaN where none ran.  The ``*_evals``
    (values, gradients) split the run's counts into the level step's, the
    search's (semiline or exact ray) and the driver's, the rest: the start
    point's pair, and on the terminal record the pair at x_final where the
    last step's was not pointwise and what a step that raised took.
    """

    x: np.ndarray
    f: float
    grad_norm: float
    t: float = _NAN
    v: float = _NAN
    branch: str = ""
    f_mid: float = _NAN
    lam: float = _NAN
    level_path: str = ""
    level_residual: float = _NAN
    sin_theta: float = _NAN
    level_evals: tuple[int, int] = (0, 0)
    search_evals: tuple[int, int] = (0, 0)
    driver_evals: tuple[int, int] = (0, 0)


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


def semiline_search(line, variant: Variant, *, scale: float, bar: float, slope: float,
                    first: int):
    """Pick v >= 0 on the line {base + v d} by the variant's rule, starting
    at ``scale``; ``slope`` is the slope (or an estimate of it) at v = 0 and
    ``bar`` the value the point must clear.  Returns (v, f at that point).
    Raises ValueError when ``variant`` is not a ``Variant`` member (a name
    too).

    semiline-min is ``minimize_on_ray`` from ``scale`` with ``slope`` as its
    slope at 0.  Where that point is above ``bar``, or ``slope`` is not
    negative, it returns (0, the line's value at 0), its only query at the
    base.  ``me_step`` hands in f(x) as the bar, which the step holds, and
    a positive finite ``scale``, so the search's value at 0 goes unread.

    decrease-search returns the first of the samples v_k = scale 2^-k,
    k = 0, 1, ..., below ``bar``, f at v = 0, or (0, bar) without one.  It
    samples no k >= ``_MAX_HALVINGS`` and no v_k |slope| within 32 eps |bar|,
    the level step's noise floor taken at the base alone: 32 times f's own
    rounding there, and like it scaled with f.  ``first`` is the last
    search's k: the search starts at k = max(first - 1, 0), or at the last k
    it may sample, and steps back while the sample at k - 1 is below the bar
    too, or on until a sample is.  On a convex f, whose samples below the bar
    are all those past some k, that is the first sample below the bar; on
    any f it is one whose predecessor, if any, is not, or (0, bar).  Halving
    and doubling v keep the bits of repeated halving while v is normal."""
    if variant is Variant.SEMILINE_MIN:
        if slope < 0.0:
            v, fv = minimize_on_ray(line, v0=scale, h0=_NAN, s0=slope)
            if not fv > bar:
                return v, fv
        return 0.0, line.value(0.0)  # no search, or no decrease on the bar: the base
    if variant is not Variant.DECREASE_SEARCH:
        raise ValueError(f"variant must be a Variant member, not {variant!r}")
    s = abs(slope)
    floor = NOISE_FLOOR * abs(bar)
    if scale * s <= floor:
        return 0.0, bar
    v, k = scale, 0
    while k < min(first - 1, _MAX_HALVINGS - 1) and not 0.5 * v * s <= floor:
        v, k = 0.5 * v, k + 1
    fv = line.value(v)
    if fv < bar:  # back towards scale while the sample there beats bar too
        while k > 0 and (fu := line.value(2.0 * v)) < bar:
            v, fv, k = 2.0 * v, fu, k - 1
        return v, fv
    for k in range(k + 1, _MAX_HALVINGS):
        v *= 0.5
        if v * s <= floor:
            break
        fv = line.value(v)
        if fv < bar:
            return v, fv
    return 0.0, bar


def _axpy(a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a x + y in one new array, with the bits of ``a * x + y``."""
    out = np.multiply(x, a)
    out += y
    return out


def me_step(obj, x, f_x: float, g, g_sumsq, variant: Variant, t_init: float, first: int,
            scale: float):
    """One ellipse-center step from x, in ``descend``'s step protocol.

    ``obj`` is the counted view (a ``CountingObjective``), ``f_x`` and ``g``
    the value and gradient at x, ``g_sumsq`` is ``scaled_sumsq(g)``,
    ``variant`` picks the point on the semiline of centers, ``t_init`` seeds
    the level step's bracket, ``first`` is where decrease-search starts
    (see ``semiline_search``) and ``scale`` is the level step's run scale
    (``run_scale``).  Returns ``(x_next, f_next, g_next, fields)``: the
    value and gradient at x_next, and the step's ``IterateRecord`` fields,
    all but x, f, grad_norm and the driver's counts.

    ``center_direction`` gives the semiline's direction and slope; the step
    reads lam and sin theta off the frame.  The midpoint branch and
    decrease-search read f_mid off the level line at u/2; semiline-min tests
    its point against f(x) and takes f_mid only where it falls back to the
    midpoint.  Guarantees f(x_next) <= f(x - t g / 2) < f(x) on a convex f,
    semiline-min's up to ``RAY_TOL``, and on any f no semiline-min step that
    leaves the midpoint rises above f(x); takes the midpoint branch when the
    gradient at the level point is collinear with or tangential to the
    chord; raises NumericError when it vanishes or the midpoint rounds onto x.
    """
    n_value, n_grad = obj.n_value, obj.n_grad
    gg, s = g_sumsq
    # the level line, along -g / s so that its slopes stay finite; the step turns off it
    down = downhill(g, s)
    line = restrict(obj, x, down, f_x, g, turns=True)
    # where f = 0 and there is no warm start, the unit step in x, which no scaling of f moves
    u0 = t_init * s if f_x or 0.0 < t_init < math.inf else 1.0 / math.sqrt(gg)
    u, r = find_level_step(line, u0, h0=f_x, s0=-gg * s, scale=scale)  # u = t s
    t = u / s
    fields = {"t": t, "level_path": "slope" if math.isnan(r) else "value", "level_residual": r,
              "level_evals": (obj.n_value - n_value, obj.n_grad - n_grad)}
    base = _axpy(0.5 * u, down, x)  # the level line's point at u/2
    # entry 0 first: a step that moves it has not collapsed; ndarray.all runs a Python helper
    if base[0] == x[0] and np.logical_and.reduce(base == x):
        raise NumericError("the level step collapsed onto x below float resolution")
    grad_y = line.gradient(u)
    try:
        frame = build_frame(g, g_sumsq, t, grad_y)
        a, b, slope = center_direction(frame)
    except DegeneratePlaneError:
        frame = None
    if frame is None:
        f_mid = line.value(0.5 * u)
        fields.update(v=_NAN, branch="midpoint", f_mid=f_mid, lam=_NAN, pointwise=line.pointwise)
        return base, f_mid, line.gradient(0.5 * u), fields
    # semiline-min's bar is f(x), which the step holds; decrease-search's is f_mid
    semiline_min = variant is Variant.SEMILINE_MIN
    bar = f_x if semiline_min else line.value(0.5 * u)
    d = _axpy(a, g, b * grad_y)
    # the level line runs along -g / s with grad f(y) = g + u A(-g / s) on a
    # quadratic, so d = -(a + b) s (-g / s) + b u A(-g / s)
    line = line.turn(0.5 * u, base, d, (-(a + b) * s, b * u))
    n_value, n_grad = obj.n_value, obj.n_grad
    v, f_v = semiline_search(line, variant, scale=frame.lam, bar=bar, slope=slope, first=first)
    # v = 0 is the midpoint; elsewhere semiline-min took no value there
    f_mid = f_v if v == 0.0 else _NAN if semiline_min else bar
    fields.update(v=v, branch="ellipse", f_mid=f_mid, lam=frame.lam, sin_theta=frame.sin_theta,
                  search_evals=(obj.n_value - n_value, obj.n_grad - n_grad),
                  pointwise=line.pointwise)
    x_next = base if v == 0.0 else _axpy(v, d, base)
    return x_next, f_v, line.gradient(v), fields


def descend(obj, x0, step, cfg: SolverConfig) -> SolverRun:
    """The descent loop every method shares: run ``step`` from x0 until
    |grad f| <= cfg.epsilon or cfg.max_iterations steps are taken.

    ``step(counted, x, f, g, g_sumsq)`` returns ``(x_next, f_next, g_next,
    fields)``; ``counted`` is the counting view of obj that the step must
    query, ``g_sumsq`` is ``scaled_sumsq(g)``, which the loop takes for the
    norm, and ``fields`` are the step's ``IterateRecord`` fields besides x,
    f and grad_norm, plus ``pointwise`` (popped; False when absent): f_next
    and g_next are f and g at x_next bit for bit.  The loop itself evaluates
    the start point, and x again where a step's gradient meets epsilon and
    its pair is not pointwise: CONVERGED is judged on f and g at x, and a
    pair that misses epsilon goes on as the step's.  The stopping test runs
    before each step, so a start point that already satisfies it reports
    zero iterations.  Numeric failures, at the start point too, end the run
    with the partial trace instead of raising.  A record's ``driver_evals``
    are what the counter took since the last record less its step's level
    and search counts.
    """
    counted = CountingObjective(obj)
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial point must be finite")

    records: list[IterateRecord] = []
    f = gnorm = _NAN  # what the start point leaves unevaluated when it raises
    message = ""
    nv = ng = 0  # the counter's values and gradients at the last record
    query = True  # take f and g at x, not as the last step carried them
    pointwise = True  # f and g are the pair at x bit for bit
    try:
        while True:
            if query:
                if hasattr(obj, "value_and_gradient"):
                    f, g = counted.value_and_gradient(x)
                else:  # f stays on the terminal record when the gradient raises
                    f = counted.value(x)
                    g = counted.gradient(x)
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
                if not pointwise:  # a gradient carried along a drifting line
                    query = pointwise = True
                    continue
                termination = Termination.CONVERGED
                break
            if len(records) >= cfg.max_iterations:
                termination = Termination.MAX_ITERATIONS
                break
            x_next, f_next, g_next, fields = step(counted, x, f, g, g_sumsq)
            pointwise = fields.pop("pointwise", False)
            rec = IterateRecord(x=x, f=f, grad_norm=gnorm, **fields)
            (lv, lg), (sv, sg) = rec.level_evals, rec.search_evals
            rec.driver_evals = (counted.n_value - nv - lv - sv, counted.n_grad - ng - lg - sg)
            nv, ng = counted.n_value, counted.n_grad
            records.append(rec)
            x, f, g = x_next, f_next, g_next
            query = False
    except NumericError as exc:
        termination = Termination.NUMERIC_ERROR
        message = str(exc)
    records.append(IterateRecord(x=x, f=f, grad_norm=gnorm, branch="final",
                                 driver_evals=(counted.n_value - nv, counted.n_grad - ng)))
    return SolverRun(records, termination, counted.n_value, counted.n_grad, message)


def run_scale(x, f: float, g_sumsq) -> float:
    """max(|f|, |g| |x|), a size of f at x that moves with f -> a f and is
    positive where f = 0 but g and x are not; ``g_sumsq`` is
    ``scaled_sumsq(g)``, and a product that overflows reads the largest float."""
    gg, sg = g_sumsq
    xx, sx = scaled_sumsq(x)
    return max(abs(f), min(math.sqrt(gg) * math.sqrt(xx) * sg * sx, _FLOAT_MAX))


def minimize(obj, x0, cfg: SolverConfig | None = None) -> SolverRun:
    """Run the ellipse-center iteration from x0 until |grad f| <= epsilon."""
    cfg = cfg or SolverConfig()
    warm_t, first, scale = _NAN, 0, None

    def step(counted, x, f, g, g_sumsq):
        nonlocal warm_t, first, scale
        if scale is None:  # fixed at x0 for the run
            scale = run_scale(x, f, g_sumsq)
        x_next, f_next, g_next, fields = me_step(counted, x, f, g, g_sumsq, cfg.variant,
                                                 warm_t, first, scale)
        warm_t, v = fields["t"], fields["v"]
        # decrease-search's v is lam 2^-k, and a step without a sampled
        # decrease keeps the last k (semiline-min ignores first)
        if v > 0.0:
            first = 1 - math.frexp(v / fields["lam"])[1]
        return x_next, f_next, g_next, fields

    return descend(obj, x0, step, cfg)
