"""Plane geometry behind the solver's ellipse-center step.

Working in the 2D plane spanned by the chord x - y and the gradient at y,
we fit conics of the form

    phi(p, q) = 0.5 * (p^2 + 2 b p q + a q^2) + c p + d q

through three points -- x at (lam, 0), y at the origin, z = (m, n) on the
descent ray from y -- with prescribed tangency: the curve is normal to the
chord at x and normal to the ray at y.  Those constraints pin (a, b, c, d)
in closed form; the conic is an ellipse exactly when a > b^2, which bounds
m by an explicit threshold.  The centers of all admissible ellipses line up
on a semiline through the chord midpoint, and ``center_direction`` lifts
that semiline's direction back to ambient coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegeneratePlaneError


class ConicClass(Enum):
    ELLIPSE = "ellipse"
    DEGENERATE = "degenerate"
    HYPERBOLA = "hyperbola"


@dataclass(frozen=True)
class LocalFrame:
    """Orthonormal frame of the working plane.

    ``origin`` is the level point y, ``e1`` the unit chord direction
    (x - y)/|x - y|, ``e2`` the unit vector along w, the component of
    -grad f(y) orthogonal to the chord.  ``lam`` is the chord length and
    theta the angle between the chord and -grad f(y).
    """

    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    lam: float
    cos_theta: float
    sin_theta: float
    w: np.ndarray


def build_frame(x, y, grad_y, dep_tol: float = 1e-8) -> LocalFrame:
    """Frame of the plane through x, y spanned with the gradient at y.

    Raises DegeneratePlaneError when grad_y is numerically collinear with
    the chord (sin(theta) <= dep_tol, or w vanishes relative to |grad_y|);
    the caller is expected to fall back to the chord midpoint then.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grad_y = np.asarray(grad_y, dtype=float)
    diff = x - y
    lam = float(np.linalg.norm(diff))
    if lam == 0.0:
        raise ValueError("x and y coincide; the chord direction is undefined")
    gnorm = float(np.linalg.norm(grad_y))
    if gnorm == 0.0:
        raise ValueError("zero gradient at the level point")
    # rounding can push the normalized inner product marginally outside [-1, 1]
    cos_theta = float(np.clip(diff @ (-grad_y) / (lam * gnorm), -1.0, 1.0))
    sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
    w = -grad_y + (float(diff @ grad_y) / lam**2) * diff
    wnorm = float(np.linalg.norm(w))
    if sin_theta <= dep_tol or wnorm <= 1e-12 * gnorm:
        raise DegeneratePlaneError(
            "gradient at the level point is collinear with the chord"
        )
    return LocalFrame(
        origin=y.copy(),
        e1=diff / lam,
        e2=w / wnorm,
        lam=lam,
        cos_theta=cos_theta,
        sin_theta=sin_theta,
        w=w,
    )


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


def center_direction(frame: LocalFrame, cos_tol: float = 1e-12) -> np.ndarray:
    """Ambient direction of the semiline of ellipse centers.

    The semiline is {(x + y)/2 + v * d : v >= 0} with
    d = e2 - (sin theta / (2 cos theta)) e1.  Requires cos theta > 0; a
    tangential gradient (cos theta ~ 0) leaves the direction undefined and
    raises DegeneratePlaneError.
    """
    if frame.cos_theta <= cos_tol:
        raise DegeneratePlaneError(
            "gradient at the level point is orthogonal to the chord"
        )
    return frame.e2 - (frame.sin_theta / (2.0 * frame.cos_theta)) * frame.e1


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


def survey_geometry(samples: int, seed: int, lam_range=(0.1, 10.0),
                    theta_margin: float = 0.05, beyond_fraction: float = 0.2,
                    residual_tol: float = 1e-9) -> list[SurveyRow]:
    """Fit conics over a seeded random grid and record the oracle residuals.

    Draws ``samples`` admissible configurations (m strictly inside (0, M))
    plus ``beyond_fraction * samples`` configurations with m > M, which must
    classify as non-ellipses.  A row is ``ok`` when its classification is the
    expected one and, for ellipses, every residual is within ``residual_tol``
    with positive normal multipliers and a > b^2.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    rows = []
    n_beyond = int(round(samples * beyond_fraction))
    for i in range(samples + n_beyond):
        lam = float(rng.uniform(*lam_range))
        theta = float(rng.uniform(theta_margin, 0.5 * math.pi - theta_margin))
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
                  and positive and residual <= residual_tol)
        else:
            ok = kind is not ConicClass.ELLIPSE and not coef.is_ellipse
        rows.append(SurveyRow(lam=lam, theta=theta, m=m, a=coef.a, b=coef.b,
                              c=coef.c, d=coef.d, classification=kind.value,
                              u=u, v=v, max_residual=residual,
                              normals_positive=positive, ok=ok))
    return rows
