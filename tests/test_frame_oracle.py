"""``build_frame`` and ``center_direction`` against the frame built from the
chord vector, as the plane geometry states it: e1 = (x - y)/|x - y|, e2 the
unit part of -grad f(y) orthogonal to e1, d = e2 - (tan(theta)/2) e1.

The reference forms the chord by subtracting y = x - t g from x, which
costs it about eps |x| / lam of relative accuracy, and its angles lose
accuracy as theta nears 0 or pi/2.  So values are compared to 1e-12 times
``(1 + |x|/lam) / min(sin theta, cos theta)``, with sin theta taken as
|w| / |grad f(y)|, which is 1e-12 up to a
constant on a well-conditioned frame, and the degeneracy decisions are
compared away from their thresholds, by the reference's own rounding error.
"""
import math

import numpy as np
import pytest

from ellipcenters import DegeneratePlaneError, build_frame, center_direction
from ellipcenters.geometry import scaled_sumsq

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

W_MIN, COS_MIN = 1e-8, 1e-12  # the frame's degeneracy thresholds


def reference_frame(x, y, grad_y):
    """(lam, cos, sin, |w|/|grad_y|, d) from the chord vector x - y;
    d is None where cos theta is not positive."""
    diff = x - y
    lam = float(np.linalg.norm(diff))
    gnorm = float(np.linalg.norm(grad_y))
    cos = float(np.clip(diff @ (-grad_y) / (lam * gnorm), -1.0, 1.0))
    sin = math.sqrt(max(0.0, 1.0 - cos * cos))
    w = -grad_y + (float(diff @ grad_y) / lam**2) * diff
    wnorm = float(np.linalg.norm(w))
    d = w / wnorm - (sin / (2.0 * cos)) * (diff / lam) if cos > 0.0 and wnorm > 0.0 else None
    return lam, cos, sin, wnorm / gnorm, d


def far(q, threshold, noise=0.0):
    """q lies more than 1e-6 (relative) and more than ``noise`` from threshold."""
    return abs(q - threshold) > max(1e-6 * threshold, noise)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
    x_exp=st.floats(-3, 3), g_exp=st.floats(-6, 6), lam_exp=st.floats(-3, 3),
    gy_exp=st.floats(-6, 6), side=st.sampled_from(["any", "collinear", "tangential"]),
    angle=st.floats(0.0, 1.0), k=st.floats(0, 14))
def test_frame_matches_the_chord_construction(n, seed, x_exp, g_exp, lam_exp, gy_exp,
                                              side, angle, k):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0**x_exp
    g = rng.standard_normal(n) * 10.0**g_exp
    t = 10.0**lam_exp * np.linalg.norm(x) / np.linalg.norm(g)  # lam / |x| = 10^lam_exp
    y = x - t * g
    # -grad f(y) at angle theta from the chord, theta anywhere or within
    # 10^-k of collinear or of tangential
    e1 = g / np.linalg.norm(g)
    r = rng.standard_normal(n)
    r -= (r @ e1) * e1
    r /= np.linalg.norm(r)
    theta = {"any": 0.5 * math.pi * angle, "collinear": 10.0**-k,
             "tangential": 0.5 * math.pi - 10.0**-k}[side]
    grad_y = -(math.cos(theta) * e1 + math.sin(theta) * r) * 10.0**gy_exp

    lam, cos, sin, w_rel, d = reference_frame(x, y, grad_y)
    spread = 1.0 + float(np.linalg.norm(x)) / lam  # the reference's chord error, in eps
    try:
        frame = build_frame(g, scaled_sumsq(g), t, grad_y)
    except DegeneratePlaneError:
        frame = None
    # the reference's |w| / |grad_y| (the true sin theta) and cos theta
    # carry an absolute error of about eps * spread; the collinearity
    # decision reads |w| / |grad_y|, not the sqrt(1 - cos^2 theta) that is
    # rounding noise of about sqrt(2 eps spread) below that size, so it is
    # compared down to the reference's own error
    band = 1e-13 * spread
    if far(w_rel, W_MIN, band):
        assert (frame is None) == (w_rel <= W_MIN)
    if frame is None or w_rel <= W_MIN:
        return
    cond = spread / min(w_rel, max(cos, COS_MIN))
    assert frame.lam == pytest.approx(lam, rel=1e-12 * spread)
    assert abs(frame.cos_theta - cos) <= 1e-12 * cond
    assert abs(frame.sin_theta - sin) <= 1e-12 * cond
    try:
        a, b = center_direction(frame)
        d_new = a * g + b * grad_y
    except DegeneratePlaneError:
        d_new = None
    if far(cos, COS_MIN, band):
        assert (d_new is None) == (cos <= COS_MIN)
    if d_new is not None and d is not None:
        assert np.linalg.norm(d_new - d) <= 1e-12 * cond * np.linalg.norm(d)
