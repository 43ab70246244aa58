"""Plane geometry behind the solver's ellipse-center step.

Working in the 2D plane spanned by the chord x - y and the gradient at y,
we fit conics of the form

    phi(p, q) = 0.5 * (p^2 + 2 b p q + a q^2) + c p + d q

through three points -- x at (lam, 0), y at the origin, z = (m, n) on the
descent ray from y -- with prescribed tangency: the curve is normal to the
chord at x and normal to the ray at y.  Those constraints pin (a, b, c, d)
in closed form; the conic is an ellipse exactly when a > b^2, which bounds
m by an explicit threshold.  The centers of all admissible ellipses line up
on a semiline through the chord midpoint; ``center_direction`` gives its
direction a g + b grad f(y) in ambient coordinates and f's slope along it.

Since y = x - t g, the chord is t g: ``build_frame`` takes the frame from
inner products of g and grad f(y), and forms no level-point or unit vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePlaneError, NumericError
from .objectives import _check_seed, _is_count


class ConicClass(Enum):
    ELLIPSE = "ellipse"
    DEGENERATE = "degenerate"
    HYPERBOLA = "hyperbola"


def scaled_sumsq(v: np.ndarray) -> tuple[float, float]:
    """(|v / s|^2, s): s = max |v_i| if v . v overflows and v is finite, else 1."""
    vv = float(v.dot(v))
    if vv != math.inf or not np.all(np.isfinite(v)):
        return vv, 1.0
    s = float(np.abs(v).max())
    return float((v / s).dot(v / s)), s


def downhill(g: np.ndarray, s: float) -> np.ndarray:
    """-g / s in a new array, where (|g / s|^2, s) = ``scaled_sumsq(g)``: the
    ray along -g whose slopes stay finite.  Where s = 1 and g holds floats it
    is -g, the division's bits (x / -1 is -x) at about a third of its cost."""
    return -g if s == 1.0 and g.dtype.kind == "f" else g / -s


class LocalFrame(NamedTuple):
    """The working plane at the level point y = x - t g, held as inner products.

    The chord x - y is t g, so e1 = g / |g| and ``lam`` = t |g|.  The part
    of -grad f(y) orthogonal to the chord is w = k g - grad f(y) with k =
    g . grad f(y) / g . g, so e2 = w / |w|; theta is the angle between the
    chord and -grad f(y).
    """

    k: float
    gnorm: float
    wnorm: float
    lam: float
    cos_theta: float
    sin_theta: float


def build_frame(g, g_sumsq, t: float, grad_y) -> LocalFrame:
    """Frame of the plane through x and y = x - t g spanned with the
    gradient at y, from g . g, g . g_y, g_y . g_y and |w|, where ``g_sumsq``
    is ``scaled_sumsq(g)``; products that overflow are taken over g and
    grad_y / their max |entry|.

    Raises DegeneratePlaneError when grad_y is numerically collinear with
    the chord (|w| <= 1e-8 |grad_y|); the caller falls back to the midpoint.
    """
    gg, sg = g_sumsq
    yy, sy = scaled_sumsq(grad_y)
    if not t > 0.0 or gg == 0.0:
        raise ValueError("the chord vanishes")
    if not math.isfinite(yy):  # a NaN or infinite entry
        raise NumericError("non-finite gradient at the level point")
    if yy == 0.0:  # f(y) = f(x) > f*, so no strongly convex f gets here
        raise NumericError("the gradient at the level point vanishes")
    gy = float(g.dot(grad_y)) if sg == sy == 1.0 else float((g / sg).dot(grad_y / sy))
    # rounding can push the normalized inner product marginally outside [-1, 1]
    cos_theta = min(1.0, max(-1.0, -gy / (math.sqrt(gg) * math.sqrt(yy))))
    sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
    k = gy / gg * (sy / sg)
    w = g * k
    w -= grad_y  # in place: one n-vector
    ww, sw = scaled_sumsq(w)
    wnorm = sw * math.sqrt(ww)
    # |w| / |grad_y| is sin(theta) without the rounding of sqrt(1 - cos^2)
    if wnorm <= 1e-8 * sy * math.sqrt(yy):
        raise DegeneratePlaneError(
            "gradient at the level point is collinear with the chord"
        )
    gnorm = sg * math.sqrt(gg)
    return LocalFrame(k, gnorm, wnorm, t * gnorm, cos_theta, sin_theta)


@dataclass(frozen=True)
class ConicCoefficients:
    """Coefficients of phi(p, q) = 0.5 (p^2 + 2 b p q + a q^2) + c p + d q."""

    a: float
    b: float
    c: float
    d: float

    @property
    def is_ellipse(self) -> bool:
        return self.a > self.b * self.b


def fit_conic(lam: float, m: float, n: float) -> ConicCoefficients:
    """Conic through (lam, 0), (0, 0), (m, n) with the two tangency conditions.

    The interpolation and normality constraints force
        a = (lam/m - 1) (cot^2 theta + 1),  b = tan(theta) / 2,
        c = -lam / 2,                       d = -b lam,
    with tan(theta) = n/m.
    """
    if lam <= 0.0 or m <= 0.0 or n <= 0.0:
        raise ValueError("lam, m and n must all be positive")
    tan_theta = n / m
    a = (lam / m - 1.0) * ((m * m + n * n) / (n * n))
    b = 0.5 * tan_theta
    return ConicCoefficients(a=a, b=b, c=-0.5 * lam, d=-b * lam)


def conic_value(coef: ConicCoefficients, p: float, q: float) -> float:
    return 0.5 * (p * p + 2.0 * coef.b * p * q + coef.a * q * q) + coef.c * p + coef.d * q


def conic_gradient(coef: ConicCoefficients, p: float, q: float) -> np.ndarray:
    return np.array([p + coef.b * q + coef.c, coef.b * p + coef.a * q + coef.d])


def ellipse_bound(lam: float, theta: float) -> float:
    """Largest m (exclusive) for which the fitted conic is an ellipse:
    M = 4 lam (1 + tan^2 theta) / (tan^2 theta + 2)^2."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if not 0.0 < theta < 0.5 * math.pi:
        raise ValueError("theta must lie strictly between 0 and pi/2")
    t2 = math.tan(theta) ** 2
    return 4.0 * lam * (1.0 + t2) / (t2 + 2.0) ** 2


def classify_conic(lam: float, theta: float, m: float) -> tuple[ConicClass, float]:
    """Classify the fitted conic by m against the ellipse bound M.

    Returns (classification, M): an ellipse for 0 < m < M, degenerate
    (a = b^2, a parabola) at m = M, a hyperbola beyond.
    """
    if m <= 0.0:
        raise ValueError("m must be positive")
    bound = ellipse_bound(lam, theta)
    if m < bound:
        kind = ConicClass.ELLIPSE
    elif m == bound:
        kind = ConicClass.DEGENERATE
    else:
        kind = ConicClass.HYPERBOLA
    return kind, bound


def conic_center(coef: ConicCoefficients, lam: float) -> tuple[float, float]:
    """Center (u, v) of the conic, i.e. the stationary point of phi:
    u = (lam/2)(a - 2 b^2)/(a - b^2), v = (lam/2) b / (a - b^2)."""
    det = coef.a - coef.b * coef.b
    if abs(det) <= 1e-14 * (1.0 + abs(coef.a)):
        raise ValueError("degenerate conic (a = b^2) has no center")
    u = 0.5 * lam * (coef.a - 2.0 * coef.b * coef.b) / det
    v = 0.5 * lam * coef.b / det
    return u, v


def center_direction(frame: LocalFrame) -> tuple[float, float, float]:
    """The semiline of ellipse centers as (a, b, slope): its direction d =
    a g + b grad f(y) and f's slope ((g + grad f(y)) / 2) . d at the midpoint.

    d = e2 - (sin theta / (2 cos theta)) e1 = (c g + w) / |w| with c = -(sin
    theta / (2 cos theta)) |w| / |g|.  As g . w = 0, the slope takes no
    n-vector pass: -(sin theta / 4) (|g| / cos theta + |grad f(y)|) < 0,
    exact on a quadratic.  Requires cos theta > 1e-12, else raises
    DegeneratePlaneError: a tangential gradient leaves d undefined.
    """
    if frame.cos_theta <= 1e-12:
        raise DegeneratePlaneError(
            "gradient at the level point is orthogonal to the chord"
        )
    c = -frame.sin_theta / (2.0 * frame.cos_theta) * (frame.wnorm / frame.gnorm)
    slope = -0.5 * ((1.0 + frame.k) * frame.sin_theta / (2.0 * frame.cos_theta) * frame.gnorm
                    + frame.wnorm)
    return (frame.k + c) / frame.wnorm, -1.0 / frame.wnorm, slope


@dataclass
class SurveyRow:
    """One sampled configuration with its fitted conic and oracle residuals."""

    lam: float
    theta: float
    m: float
    a: float
    b: float
    c: float
    d: float
    classification: str
    u: float
    v: float
    max_residual: float
    normals_positive: bool
    ok: bool


def _conic_residual(coef: ConicCoefficients, lam: float, m: float, n: float):
    """Max violation of the interpolation, normality and center-line identities."""
    phi_x = conic_value(coef, lam, 0.0)
    phi_y = conic_value(coef, 0.0, 0.0)
    phi_z = conic_value(coef, m, n)
    gx = conic_gradient(coef, lam, 0.0)
    gy = conic_gradient(coef, 0.0, 0.0)
    # grad phi(x) must be a positive multiple of the chord (lam, 0) and
    # grad phi(y) a positive multiple of -(m, n)
    cross_x = gx[1] * lam
    cross_y = gy[0] * n - gy[1] * m
    positive = gx[0] * lam > 0.0 and -(gy[0] * m + gy[1] * n) > 0.0
    residual = max(abs(phi_x), abs(phi_y), abs(phi_z), abs(cross_x), abs(cross_y))
    try:
        u, v = conic_center(coef, lam)
        residual = max(residual, abs(u + coef.b * v - 0.5 * lam))
    except ValueError:
        u = v = float("nan")
    return residual, positive, u, v


def survey_geometry(samples: int, seed: int) -> list[SurveyRow]:
    """Fit conics over a seeded random grid and record the oracle residuals.

    Draws ``samples`` admissible configurations (lam in [0.1, 10], theta at
    least 0.05 away from 0 and pi/2, m strictly inside (0, M)) plus
    ``0.2 * samples`` configurations with m > M, which must classify as
    non-ellipses.  A row is ``ok`` when its classification is the expected
    one and, for ellipses, every residual is within 1e-9 with positive
    normal multipliers and a > b^2.
    """
    if not _is_count(samples):
        raise ValueError(f"samples must be an integer, not {samples!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(_check_seed(seed))
    rows = []
    n_beyond = int(round(samples * 0.2))
    for i in range(samples + n_beyond):
        lam = float(rng.uniform(0.1, 10.0))
        theta = float(rng.uniform(0.05, 0.5 * math.pi - 0.05))
        bound = ellipse_bound(lam, theta)
        if i < samples:
            m = bound * float(rng.uniform(1e-4, 1.0 - 1e-4))
        else:
            m = bound * float(rng.uniform(1.0 + 1e-9, 3.0))
        n = m * math.tan(theta)
        coef = fit_conic(lam, m, n)
        kind, _ = classify_conic(lam, theta, m)
        residual, positive, u, v = _conic_residual(coef, lam, m, n)
        if i < samples:
            ok = (kind is ConicClass.ELLIPSE and coef.is_ellipse
                  and positive and residual <= 1e-9)
        else:
            ok = kind is not ConicClass.ELLIPSE and not coef.is_ellipse
        rows.append(SurveyRow(lam=lam, theta=theta, m=m, a=coef.a, b=coef.b,
                              c=coef.c, d=coef.d, classification=kind.value,
                              u=u, v=v, max_residual=residual,
                              normals_positive=positive, ok=ok))
    return rows
