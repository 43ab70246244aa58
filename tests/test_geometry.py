import math

import numpy as np
import pytest

from ellipcenters.errors import DegeneratePlaneError
from ellipcenters.geometry import (ConicClass, ConicCoefficients, _conic_residual, build_frame,
                                   center_direction, classify_conic, conic_center, conic_gradient,
                                   conic_value, ellipse_bound, fit_conic, scaled_sumsq,
                                   survey_geometry)


def fit_conic_reference(lam, m, n):
    """Independent oracle: solve the general-conic constraint system.

    Unknowns (A, B, C, D, E, F) of A p^2 + B pq + C q^2 + D p + E q + F = 0
    through (lam,0), (0,0), (m,n) with gradient parallel to the chord at the
    first point and to the ray at the second; normalized so A = 1/2.
    """
    rows = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],          # passes through the origin
        [lam * lam, 0.0, 0.0, lam, 0.0, 1.0],     # passes through (lam, 0)
        [m * m, m * n, n * n, m, n, 1.0],          # passes through (m, n)
        [0.0, lam, 0.0, 0.0, 1.0, 0.0],            # grad at (lam,0) has no q-part
        [0.0, 0.0, 0.0, n, -m, 0.0],               # grad at origin parallel to (m,n)
    ])
    _, _, vt = np.linalg.svd(rows)
    vec = vt[-1]
    vec = vec * (0.5 / vec[0])
    big_a, big_b, big_c, big_d, big_e, _ = vec
    return 2.0 * big_c, big_b, big_d, big_e  # (a, b, c, d)


class TestFitConic:
    def test_worked_example(self):
        coef = fit_conic(2.0, 1.0, 1.0)
        assert coef.a == pytest.approx(2.0)
        assert coef.b == pytest.approx(0.5)
        assert coef.c == pytest.approx(-1.0)
        assert coef.d == pytest.approx(-1.0)
        a, b, c, d = fit_conic_reference(2.0, 1.0, 1.0)
        assert (a, b, c, d) == pytest.approx((coef.a, coef.b, coef.c, coef.d), rel=1e-9)

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            lam = rng.uniform(0.2, 8.0)
            theta = rng.uniform(0.1, 0.5 * math.pi - 0.1)
            m = ellipse_bound(lam, theta) * rng.uniform(0.05, 0.95)
            n = m * math.tan(theta)
            coef = fit_conic(lam, m, n)
            ref = fit_conic_reference(lam, m, n)
            assert ref == pytest.approx((coef.a, coef.b, coef.c, coef.d),
                                        rel=1e-8, abs=1e-10)

    def test_c_is_half_chord_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = rng.uniform(0.1, 10.0)
            coef = fit_conic(lam, 0.3 * lam, 0.2 * lam)
            assert coef.c == -0.5 * lam

    def test_beyond_bound_is_not_an_ellipse(self):
        coef = fit_conic(2.0, 1.8, 1.8)
        assert coef.a == pytest.approx(2.0 / 9.0)
        assert not coef.is_ellipse  # a < b^2 = 0.25

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_conic(2.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            fit_conic(2.0, 1.0, 0.0)


class TestClassification:
    def test_bound_worked_example(self):
        assert ellipse_bound(2.0, math.pi / 4.0) == pytest.approx(16.0 / 9.0, rel=1e-12)

    def test_boundary_cases(self):
        bound = ellipse_bound(2.0, math.pi / 4.0)
        assert classify_conic(2.0, math.pi / 4.0, bound)[0] is ConicClass.DEGENERATE
        assert classify_conic(2.0, math.pi / 4.0, bound * 1.01)[0] is ConicClass.HYPERBOLA
        kind, m_bound = classify_conic(2.0, math.pi / 4.0, 1.0)
        assert kind is ConicClass.ELLIPSE
        assert m_bound == bound
        # consistent with the coefficient test a > b^2
        assert fit_conic(2.0, 1.0, 1.0).is_ellipse

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_rejects_a_nonpositive_chord(self, lam):
        with pytest.raises(ValueError) as exc:
            ellipse_bound(lam, math.pi / 4.0)
        assert str(exc.value) == "lam must be positive"

    def test_rejects_degenerate_angles(self):
        with pytest.raises(ValueError):
            ellipse_bound(2.0, 0.0)
        with pytest.raises(ValueError):
            classify_conic(2.0, math.pi / 2.0, 1.0)
        with pytest.raises(ValueError):
            classify_conic(2.0, math.pi / 4.0, 0.0)


class TestCenter:
    def test_worked_examples_against_solve(self):
        for a, b, lam, expected in [
            (2.0, 0.5, 2.0, (6.0 / 7.0, 2.0 / 7.0)),
            (5.0, 1.0, 4.0, (1.5, 0.5)),
        ]:
            coef = ConicCoefficients(a=a, b=b, c=-lam / 2, d=-b * lam)
            u, v = conic_center(coef, lam)
            assert (u, v) == pytest.approx(expected, rel=1e-12)
            oracle = np.linalg.solve([[1.0, b], [b, a]], [lam / 2.0, b * lam])
            assert (u, v) == pytest.approx(tuple(oracle), rel=1e-12)
            # line of centers: u = lam/2 - b v
            assert u == pytest.approx(lam / 2.0 - b * v, rel=1e-12)

    def test_symmetric_conic_center_is_midpoint(self):
        coef = ConicCoefficients(a=3.0, b=0.0, c=-1.0, d=0.0)
        assert conic_center(coef, 2.0) == pytest.approx((1.0, 0.0))

    def test_degenerate_has_no_center(self):
        coef = ConicCoefficients(a=0.25, b=0.5, c=-1.0, d=-1.0)
        with pytest.raises(ValueError):
            conic_center(coef, 2.0)

    def test_degenerate_residual_has_nan_center(self):
        # the survey's residual skips the center-line identity where there
        # is no center, and reports the center as NaN
        coef = ConicCoefficients(a=0.25, b=0.5, c=-1.0, d=-1.0)
        lam, m, n = 2.0, 1.0, 1.0
        residual, _, u, v = _conic_residual(coef, lam, m, n)
        assert math.isnan(u) and math.isnan(v)
        gx, gy = conic_gradient(coef, lam, 0.0), conic_gradient(coef, 0.0, 0.0)
        assert residual == max(abs(conic_value(coef, lam, 0.0)), abs(conic_value(coef, 0.0, 0.0)),
                               abs(conic_value(coef, m, n)), abs(gx[1] * lam),
                               abs(gy[0] * n - gy[1] * m))


def direction(g, grad_y):
    """The frame's center direction d = a g + b grad_y as a vector."""
    a, b, _ = center_direction(build_frame(g, scaled_sumsq(g), 1.0, grad_y))
    return a * np.asarray(g) + b * np.asarray(grad_y)


def unit_normal(g, grad_y):
    """e2: the unit part of -grad_y orthogonal to g, by projection."""
    w = (grad_y @ g) / (g @ g) * g - grad_y
    return w / np.linalg.norm(w)


class TestFrame:
    # x = (2, 0), y = 0: the chord x - y = t g with g = (1, 0), t = 2
    def test_worked_example(self):
        g, grad_y = np.array([1.0, 0.0]), np.array([-1.0, -1.0])
        frame = build_frame(g, scaled_sumsq(g), 2.0, grad_y)
        assert frame.wnorm == pytest.approx(1.0, rel=1e-15)
        assert frame.cos_theta == pytest.approx(1.0 / math.sqrt(2.0))
        assert frame.sin_theta == pytest.approx(1.0 / math.sqrt(2.0))
        assert frame.lam == pytest.approx(2.0)
        a, b, _ = center_direction(frame)
        assert np.allclose(a * g + b * grad_y, [-0.5, 1.0], atol=1e-12)

    @pytest.mark.parametrize("g,t", [([1.0, 0.0], 0.0), ([1.0, 0.0], -1.0),
                                     ([1.0, 0.0], math.nan), ([0.0, 0.0], 2.0)],
                             ids=["t=0", "t<0", "t=nan", "g=0"])
    def test_vanishing_chord_rejected(self, g, t):
        g = np.array(g)
        with pytest.raises(ValueError) as exc:
            build_frame(g, scaled_sumsq(g), t, np.array([-1.0, -1.0]))
        assert str(exc.value) == "the chord vanishes"

    def test_semiline_local_coordinates(self):
        # points (x+y)/2 + v d have local coordinates (1 - v/2, v), i.e. they
        # satisfy u = lam/2 - (tan theta / 2) v with lam = 2, tan theta = 1
        x = np.array([2.0, 0.0])
        g = np.array([0.5, 0.0])
        y = x - 4.0 * g
        grad_y = np.array([-1.0, -1.0])
        d = direction(g, grad_y)
        e1 = g / np.linalg.norm(g)
        e2 = unit_normal(g, grad_y)
        for v in (0.0, 0.35, 1.7):
            point = 0.5 * (x + y) + v * d
            assert (point - y) @ e1 == pytest.approx(1.0 - v / 2.0, abs=1e-12)
            assert (point - y) @ e2 == pytest.approx(v, abs=1e-12)

    def test_orthogonalization_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = rng.standard_normal(6)
            t = float(rng.uniform(0.1, 10.0))
            grad_y = rng.standard_normal(6)
            try:
                frame = build_frame(g, scaled_sumsq(g), t, grad_y)
            except DegeneratePlaneError:
                continue
            gnorm = np.linalg.norm(g)
            w = frame.k * g - grad_y
            assert abs(w @ g) <= 1e-12 * frame.wnorm * gnorm
            assert frame.wnorm == pytest.approx(np.linalg.norm(w), rel=1e-15)
            assert frame.gnorm == pytest.approx(gnorm, rel=1e-15)
            assert frame.lam == pytest.approx(t * gnorm, rel=1e-15)
            assert frame.cos_theta**2 + frame.sin_theta**2 == pytest.approx(1.0, abs=1e-12)
            # |w| = sin(theta) |grad_y|, the part of -grad_y off the chord
            assert frame.wnorm == pytest.approx(frame.sin_theta * np.linalg.norm(grad_y),
                                                rel=1e-10)
            assert w @ (-grad_y) >= -1e-12  # acute angle with the downhill direction

    def test_direction_coefficients_rebuild_the_direction(self):
        # a g + b grad_y is d = e2 - (sin theta / (2 cos theta)) e1, with e1
        # and e2 built from the vectors
        rng = np.random.default_rng(12)
        for _ in range(100):
            g = rng.standard_normal(6)
            grad_y = rng.standard_normal(6)
            try:
                frame = build_frame(g, scaled_sumsq(g), float(rng.uniform(0.1, 10.0)), grad_y)
                a, b, _ = center_direction(frame)
            except DegeneratePlaneError:
                continue
            tan_half = frame.sin_theta / (2.0 * frame.cos_theta)
            d = unit_normal(g, grad_y) - tan_half * g / np.linalg.norm(g)
            tol = 1e-14 / (frame.sin_theta * frame.cos_theta) * np.linalg.norm(d)
            assert np.linalg.norm(a * g + b * grad_y - d) <= tol

    def test_collinear_gradient_signals_dependence(self):
        g = np.array([1.0, 1.0])
        with pytest.raises(DegeneratePlaneError):
            build_frame(g, scaled_sumsq(g), 1.0, -3.0 * g)

    def test_tangential_gradient_is_an_error(self):
        g = np.array([1.0, 0.0])
        frame = build_frame(g, scaled_sumsq(g), 2.0, np.array([0.0, -1.0]))
        assert frame.cos_theta == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(DegeneratePlaneError):
            center_direction(frame)

    def test_small_angle_limit_points_along_w(self):
        g, grad_y = np.array([1.0, 0.0]), np.array([-1.0, -1e-6])
        assert np.allclose(direction(g, grad_y), unit_normal(g, grad_y), atol=1e-5)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_products_are_rescaled(self):
        # the worked example's frame with g.g overflowing and grad_y at
        # another scale, so the two vectors are rescaled by different factors
        g, grad_y = np.array([1e200, 0.0]), np.array([-1e150, -1e150])
        frame = build_frame(g, scaled_sumsq(g), 2e-200, grad_y)
        assert frame.cos_theta == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert frame.lam == pytest.approx(2.0, rel=1e-15)
        assert frame.wnorm == pytest.approx(1e150, rel=1e-15)
        a, b, _ = center_direction(frame)
        assert np.allclose(a * g + b * grad_y, [-0.5, 1.0], atol=1e-12)


class TestConicProperties:
    def test_interpolation_normals_and_center_line(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            lam = rng.uniform(0.1, 10.0)
            theta = rng.uniform(0.05, 0.5 * math.pi - 0.05)
            m = ellipse_bound(lam, theta) * rng.uniform(1e-4, 1.0 - 1e-4)
            n = m * math.tan(theta)
            coef = fit_conic(lam, m, n)
            tol = 1e-9 * (1.0 + lam * lam)
            assert abs(conic_value(coef, lam, 0.0)) <= tol
            assert conic_value(coef, 0.0, 0.0) == 0.0
            assert abs(conic_value(coef, m, n)) <= tol
            gx = conic_gradient(coef, lam, 0.0)
            gy = conic_gradient(coef, 0.0, 0.0)
            assert abs(gx[1]) <= 1e-9 * (1.0 + lam)      # normal along the chord
            assert gx[0] * lam > 0.0                      # with a positive multiplier
            assert abs(gy[0] * n - gy[1] * m) <= 1e-9 * (1.0 + lam)
            assert -(gy[0] * m + gy[1] * n) > 0.0
            assert coef.is_ellipse
            u, v = conic_center(coef, lam)
            assert abs(u + coef.b * v - 0.5 * lam) <= 1e-9 * (1.0 + abs(u) + abs(v))

    def test_center_sweeps_the_open_semiline(self):
        lam, theta = 2.0, 0.7
        bound = ellipse_bound(lam, theta)
        fractions = np.linspace(1e-6, 1.0 - 1e-6, 200)
        vs = []
        for frac in fractions:
            m = bound * frac
            coef = fit_conic(lam, m, m * math.tan(theta))
            vs.append(conic_center(coef, lam)[1])
        assert all(b > a for a, b in zip(vs, vs[1:]))  # v strictly increasing in m
        assert vs[0] == pytest.approx(0.0, abs=1e-4)   # v -> 0 as m -> 0
        assert vs[-1] > 1e3                            # v -> infinity as m -> bound

    def test_v_zero_corresponds_to_the_chord_midpoint(self):
        # b = 0 (symmetric conic) puts the center exactly at (lam/2, 0)
        lam = 3.0
        coef = ConicCoefficients(a=4.0, b=0.0, c=-lam / 2.0, d=0.0)
        assert conic_center(coef, lam) == pytest.approx((lam / 2.0, 0.0))


class TestSurvey:
    def test_needs_a_sample(self):
        with pytest.raises(ValueError) as exc:
            survey_geometry(0, seed=1)
        assert str(exc.value) == "need at least one sample"

    def test_survey_rows_pass_and_classify(self):
        rows = survey_geometry(300, seed=9)
        ellipse_rows = [r for r in rows if r.classification == "ellipse"]
        beyond = [r for r in rows if r.classification != "ellipse"]
        assert len(ellipse_rows) == 300
        assert len(beyond) == 60
        assert all(r.ok for r in rows)
        assert max(r.max_residual for r in ellipse_rows) <= 1e-9
