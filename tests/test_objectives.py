import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ellipcenters import (GenParams, LogSumExpProblem, QuadraticProblem, SolverConfig,
                          Termination, minimize,
                          check_gradient, generate_instance, load_problem,
                          problem_from_dict, problem_to_dict, save_problem)
from conftest import ValueAndGradientOnly
from ellipcenters import NumericError
from ellipcenters.objectives import (MAX_QUADRATIC_DIM, PANEL_BYTES, CountingObjective,
                                     LogSumExpLine, QuadraticLine, RayLine, matrix_powers,
                                     restrict)


class TestQuadratic:
    def test_identity_quadratic(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        value, grad = p.value([3.0, 4.0]), p.gradient([3.0, 4.0])
        assert value == pytest.approx(12.5)
        assert np.allclose(grad, [3.0, 4.0])

    @pytest.mark.parametrize("a,b,message", [
        (np.ones((2, 3)), np.ones(2), "matrix must be square"),
        (np.ones(2), np.ones(2), "matrix must be square"),
        (np.eye(2), np.ones(3), "right-hand side length does not match the matrix"),
        (np.eye(2), np.ones((2, 1)), "right-hand side length does not match the matrix"),
    ], ids=["wide", "vector", "long-b", "column-b"])
    def test_malformed_data_rejected(self, a, b, message):
        with pytest.raises(ValueError) as exc:
            QuadraticProblem(a, b)
        assert str(exc.value) == message

    def test_minimizer_by_hand(self):
        # A x* = b gives x* = (1, 0.25) and f(x*) = -0.5 b'x* = -0.625
        p = QuadraticProblem(np.diag([1.0, 4.0]), np.array([1.0, 1.0]))
        xs = np.linalg.solve(p.a, p.b)
        assert np.allclose(xs, [1.0, 0.25])
        value, grad = p.value(xs), p.gradient(xs)
        assert value == pytest.approx(-0.625)
        assert np.linalg.norm(grad) < 1e-14

    @pytest.mark.parametrize("n", [3, 200])
    def test_value_and_gradient_is_the_pair_bit_for_bit(self, n, count_products):
        p, x0 = generate_instance("quadratic", n, 5, GenParams(kappa=100))
        f, g = p.value(x0), p.gradient(x0)
        matrix = count_products(p)
        f_both, g_both = p.value_and_gradient(list(x0))
        assert matrix.products == 1
        assert f_both.hex() == f.hex()
        assert g_both.tobytes() == g.tobytes()

    def test_gradient_zero_when_b_is_ax(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5))
        a = m @ m.T + 5.0 * np.eye(5)
        x = rng.standard_normal(5)
        p = QuadraticProblem(a, a @ x)
        assert np.linalg.norm(p.gradient(x)) < 1e-10

    def test_value_at_solution_identity(self):
        # f(x*) + 0.5 b'x* = 0
        for seed in range(5):
            p, _ = generate_instance("quadratic", 12, seed, GenParams(kappa=50))
            xs = p.solution()
            assert p.value(xs) + 0.5 * p.b @ xs == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            p.value([1.0, 2.0, 3.0])

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            QuadraticProblem(np.array([[1.0, 0.5], [0.2, 1.0]]), np.zeros(2))

    @pytest.mark.parametrize("entry", ["matrix", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_data(self, entry, bad):
        # a NaN compares false, so the symmetry test alone lets it through
        a, b = np.eye(2), np.zeros(2)
        (a if entry == "matrix" else b)[0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            QuadraticProblem(a, b)


class TestLogSumExp:
    @pytest.mark.parametrize("alpha,beta", [
        (np.ones(2), np.ones(3)), ([], []), (np.ones((2, 2)), np.ones((2, 2))),
    ], ids=["mismatched", "empty", "matrix"])
    def test_malformed_weights_rejected(self, alpha, beta):
        with pytest.raises(ValueError) as exc:
            LogSumExpProblem(alpha, beta)
        assert str(exc.value) == "alpha and beta must be equal-length nonempty vectors"

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_origin_is_minimizer(self, n):
        rng = np.random.default_rng(n)
        p = LogSumExpProblem(rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n))
        assert p.value(np.zeros(n)) == pytest.approx(math.log(n), abs=1e-12)
        assert np.linalg.norm(p.gradient(np.zeros(n))) == 0.0

    def test_one_dimensional_collapse(self):
        # with a single term f(x) = (alpha + beta) x^2
        p = LogSumExpProblem(np.array([1.0]), np.array([1.0]))
        x = np.array([2.0])
        value, grad = p.value(x), p.gradient(x)
        assert value == pytest.approx(8.0)
        assert grad[0] == pytest.approx(8.0)

    def test_closed_form_2d(self):
        p = LogSumExpProblem(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        x = np.array([1.0, 0.0])
        value, grad = p.value(x), p.gradient(x)
        e = math.e
        assert value == pytest.approx(math.log(e + 1.0) + 1.0, rel=1e-12)
        assert grad[0] == pytest.approx(2.0 * e / (e + 1.0) + 2.0, rel=1e-12)
        assert grad[1] == 0.0

    def test_overflow_safe_far_from_origin(self):
        p = LogSumExpProblem(np.ones(3), np.ones(3))
        x = np.array([50.0, 0.0, 0.0])  # exp(2500) overflows without shifting
        value, grad = p.value(x), p.gradient(x)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))
        assert value == pytest.approx(2500.0 + 2500.0, rel=1e-12)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            LogSumExpProblem(np.array([1.0, -1.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("weights", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_weights(self, weights, bad):
        # nan <= 0 is false, so the positivity test alone lets a NaN through
        alpha, beta = np.ones(2), np.ones(2)
        (alpha if weights == "alpha" else beta)[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            LogSumExpProblem(alpha, beta)


class TestCheckGradient:
    def test_quadratic_nearly_exact(self):
        p = QuadraticProblem(np.diag([1.0, 4.0]), np.zeros(2))
        assert check_gradient(p, np.array([1.0, 1.0]), 1e-6) <= 1e-7

    def test_logsumexp_sample(self):
        p = LogSumExpProblem(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert check_gradient(p, np.array([1.0, 0.0]), 1e-6) <= 1e-5

    def test_detects_perturbed_gradient(self):
        class Broken:
            dimension = 2

            def value(self, x):
                return float(x @ x)

            def gradient(self, x):
                return 2.0 * np.asarray(x) + np.array([1e-3, 0.0])

        assert check_gradient(Broken(), np.array([0.3, -0.2]), 1e-6) >= 5e-4

    def test_generated_instances_pass(self):
        for kind, n in (("quadratic", 10), ("logsumexp", 10)):
            p, x0 = generate_instance(kind, n, 7, GenParams(kappa=100))
            rng = np.random.default_rng(42)
            for _ in range(20):
                assert check_gradient(p, rng.standard_normal(n), 1e-6) <= 1e-5

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_difference_is_an_error(self):
        # f(x +- h e_0) overflow to inf, so the difference is inf - inf = NaN,
        # which max() would drop as if the gradient matched
        p, _ = generate_instance("quadratic", 4, 0, GenParams(kappa=10))
        with pytest.raises(NumericError, match="not finite at coordinate 0"):
            check_gradient(p, np.ones(4), 1e300)


class TestRestriction:
    @staticmethod
    def _ray(kind, n=30, seed=1):
        p, x = generate_instance(kind, n, seed, GenParams(kappa=100))
        return p, x, np.random.default_rng(5).standard_normal(n)

    def test_quadratic_line_matches_pointwise(self):
        p, x, d = self._ray("quadratic")
        f, g = p.value(x), p.gradient(x)
        line = p.along(x, d, f, g, False)
        assert isinstance(restrict(p, x, d, f, g, turns=False), QuadraticLine)
        assert line.value(0.0) == p.value(x)  # bit for bit
        # the line's minimum is near t = 0.5; keep the slopes away from zero
        for t in (-0.5, 1e-3, 0.25, 1.0, 4.0):
            y = x + t * d
            assert line.value(t) == pytest.approx(p.value(y), rel=1e-12)
            assert line.slope(t) == pytest.approx(float(p.gradient(y) @ d), rel=1e-12)

    def test_logsumexp_line_matches_pointwise(self):
        p, x, d = self._ray("logsumexp")
        line = restrict(p, x, d, p.value(x), p.gradient(x), turns=False)
        assert isinstance(line, LogSumExpLine)
        for t in (-1.2, 0.3, 4.0):
            y = x + t * d
            assert line.value(t) == pytest.approx(p.value(y), rel=1e-12)
            assert line.slope(t) == pytest.approx(float(p.gradient(y) @ d), rel=1e-12)
        # the line runs the pointwise code on a copy of x, so at t = 0 it
        # answers the same bits; at this point the exponent rules alpha (x x)
        # and (alpha x) x give values one ulp apart, so two rules would show
        p, x, d = self._ray("logsumexp", 5, 2)
        g = p.gradient(x)
        line = restrict(p, x, d, p.value(x), g, turns=False)
        assert line.value(0.0) == p.value(x)
        assert line.gradient(0.0).tobytes() == g.tobytes()
        # the slope is its own sum over the weights, not gradient . d
        assert line.slope(0.0) == pytest.approx(float(g @ d), rel=1e-14)

    # an objective's own line is charged what the generic line would take,
    # restricted or turned alike: neither holds anything at its base
    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("kind", ["logsumexp", "quadratic"])
    def test_line_is_charged_like_the_generic_line(self, kind, restricted):
        p, x, d = self._ray(kind)
        fused = CountingObjective(p)
        generic = CountingObjective(ValueAndGradientOnly(p))
        if restricted:
            f, g = p.value(x), p.gradient(x)
            lines = [restrict(c, x, d, f, g, turns=False) for c in (fused, generic)]
        else:
            lines = [TestTurn._turned(c, p, x, d)[0] for c in (fused, generic)]
        assert isinstance(lines[1].line, RayLine)
        queries = [("value", 0.0), ("slope", 0.0), ("gradient", 0.0), ("value", 0.5),
                   ("slope", 0.5), ("gradient", 0.5), ("slope", 0.5), ("value", 0.5),
                   ("slope", 1.0), ("value", 2.0), ("gradient", 1.0), ("gradient", 0.0),
                   ("value", 0.0)]
        for query, t in queries:
            for line in lines:
                getattr(line, query)(t)
            assert (fused.n_value, fused.n_grad) == (generic.n_value, generic.n_grad)
        assert (fused.n_value, fused.n_grad) == (5, 4)

    @pytest.mark.parametrize("kind,generic", [
        ("quadratic", False), ("logsumexp", False), ("quadratic", True)])
    def test_restricted_line_is_charged_as_a_turned_one(self, kind, generic):
        # neither line holds an answer at its base, so its first slope there
        # costs a gradient, as its first value there costs a value
        p, x, d = self._ray(kind)
        obj = ValueAndGradientOnly(p) if generic else p
        counters = [CountingObjective(obj), CountingObjective(obj)]
        base = x - 0.25 * d  # the turned line starts at x, a quarter of d on
        lines = [restrict(counters[0], x, d, p.value(x), p.gradient(x), turns=False),
                 restrict(counters[1], base, d, p.value(base), p.gradient(base),
                          turns=True).turn(0.25, x, d, (1.0, 0.0))]
        charges = []
        for query, t in [("slope", 0.0), ("gradient", 0.0), ("value", 0.0), ("gradient", 0.5),
                         ("slope", 0.5), ("value", 0.5), ("slope", 0.0)]:
            for line in lines:
                getattr(line, query)(t)
            charges.append([(c.n_value, c.n_grad) for c in counters])
        assert [pair[0] for pair in charges] == [pair[1] for pair in charges]
        assert charges[-1][0] == (2, 3)

    @pytest.mark.parametrize("query,pointwise", [
        ("value", "value"), ("slope", "gradient"), ("gradient", "gradient")])
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_logsumexp_line_overflow_is_the_pointwise_error(self, query, pointwise):
        p, x, d = self._ray("logsumexp")
        with pytest.raises(NumericError) as expected:
            getattr(p, pointwise)(x + 1e200 * d)
        with pytest.raises(NumericError) as raised:
            getattr(restrict(p, x, d, p.value(x), p.gradient(x), turns=False), query)(1e200)
        assert str(raised.value) == str(expected.value)

    def test_dispatch_is_on_the_attribute(self):
        p, x, d = self._ray("quadratic")

        class ValueAndGradientOnly:
            dimension = p.dimension
            value = staticmethod(p.value)
            gradient = staticmethod(p.gradient)

        line = restrict(ValueAndGradientOnly(), x, d, p.value(x), p.gradient(x), turns=False)
        assert isinstance(line, RayLine)

    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_counting_objective_counts_each_query(self, kind):
        p, x, d = self._ray(kind)
        f, g = p.value(x), p.gradient(x)
        counted = CountingObjective(p)
        line = restrict(counted, x, d, f, g, turns=False)
        assert (counted.n_value, counted.n_grad) == (0, 0)
        for t in (0.0, 0.5, 1.0):
            line.value(t)
        line.slope(0.5)
        line.slope(2.0)
        assert (counted.n_value, counted.n_grad) == (3, 2)
        assert line.value(0.7) == restrict(p, x, d, f, g, turns=False).value(0.7)
        line.gradient(0.5)
        assert (counted.n_value, counted.n_grad) == (4, 3)

    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_line_from_the_callers_value_and_gradient(self, kind):
        p, x, d = self._ray(kind)
        f, g = p.value(x), p.gradient(x)
        line = restrict(p, x, d, f, g, turns=False)
        assert line.value(0.0) == f
        for t in (-0.5, 0.0, 0.25, 1.0, 4.0):
            y = x + t * d
            if kind == "quadratic":
                gy = p.gradient(y)
                assert np.linalg.norm(line.gradient(t) - gy) <= 1e-12 * np.linalg.norm(gy)
            else:
                assert np.array_equal(line.gradient(t), p.gradient(y))

    def test_quadratic_line_skips_ax_given_value_and_gradient(self, count_products):
        p, x, d = self._ray("quadratic")
        f, g = p.value(x), p.gradient(x)
        matrix = count_products(p)
        restrict(p, x, d, f, g, turns=False)
        assert matrix.products == 1  # Ad alone


class TestMatrixPowers:
    EDGE = math.isqrt(PANEL_BYTES // 8)  # the largest n whose matrix fits in one panel

    @staticmethod
    def _problem(n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        return QuadraticProblem(m + m.T, np.zeros(n)), rng.standard_normal(n)

    @pytest.mark.parametrize("n", [1, 2, EDGE - 1, EDGE, EDGE + 1, 2 * EDGE + 3, 1000])
    def test_pair_matches_two_products(self, n):
        p, d = self._problem(n)
        ad, a2d = matrix_powers(p.a, d)
        ref = p.a @ d
        ref2 = p.a @ ref
        assert np.linalg.norm(ad - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.linalg.norm(a2d - ref2) <= 1e-13 * np.linalg.norm(ref2)

    @pytest.mark.parametrize("n", [1, 2, 10, 40, 100, EDGE - 1, EDGE])
    def test_one_panel_is_the_two_whole_products_bit_for_bit(self, n):
        # a matrix that fits in one panel gives (A d, (A d) A), the pair of
        # whole products, to the bit
        p, d = self._problem(n)
        ad, a2d = matrix_powers(p.a, d)
        ref = p.a @ d
        assert ad.tobytes() == ref.tobytes()
        assert a2d.tobytes() == (ref @ p.a).tobytes()

    @pytest.mark.parametrize("n,passes", [(EDGE, 2), (EDGE + 1, 1), (1000, 1)])
    def test_one_sweep_over_panels(self, n, passes, count_products):
        # a matrix that fits in one panel is that panel, and the counter
        # counts each product on the whole matrix as a pass
        p, d = self._problem(n)
        matrix = count_products(p)
        matrix_powers(p.a, d)
        assert matrix.passes == passes


class TestTurn:
    # the semiline of an ellipse step turns off the level line at the chord
    # midpoint: a point at t on a line through x along d, headed along
    # e = alpha d + gamma A d
    T = 0.4
    KRYLOV = (0.8, -0.3)

    @classmethod
    def _direction(cls, p, d):
        """alpha d + gamma A d on a quadratic; on log-sum-exp, whose lines
        take no coefficients, a fixed random vector in place of A d."""
        h = p.a @ d if isinstance(p, QuadraticProblem) else (
            np.random.default_rng(6).standard_normal(p.dimension))
        return cls.KRYLOV[0] * d + cls.KRYLOV[1] * h

    @classmethod
    def _turned(cls, obj, p, x, d):
        """The line through the point at T along e, by a turn off the line
        through x along d and started afresh there."""
        e = cls._direction(p, d)
        base = x + cls.T * d
        line = restrict(obj, x, d, p.value(x), p.gradient(x), turns=True)
        fresh = restrict(obj, base, e, p.value(base), p.gradient(base), turns=False)
        return line.turn(cls.T, base, e, cls.KRYLOV), fresh

    def test_quadratic_turn_matches_a_new_restriction(self, count_products):
        # at n = 400 the line's A d and A^2 d come from a sweep over three panels
        for n in (30, 400):
            p, x, d = TestRestriction._ray("quadratic", n)
            e = self._direction(p, d)
            f, g = p.value(x), p.gradient(x)
            matrix = count_products(p)
            line = restrict(p, x, d, f, g, turns=True)
            products = matrix.products
            turned = line.turn(self.T, x + self.T * d, e, self.KRYLOV)
            assert isinstance(turned, QuadraticLine)
            assert matrix.products == products  # Ae comes from Ad and A^2 d
            y = x + self.T * d
            fresh = restrict(p, y, e, p.value(y), p.gradient(y), turns=False)
            for v in (-0.5, 0.0, 0.3, 1.0, 4.0):
                assert turned.value(v) == pytest.approx(fresh.value(v), rel=1e-12)
                assert turned.slope(v) == pytest.approx(fresh.slope(v), rel=1e-12)
                gv = fresh.gradient(v)
                assert np.linalg.norm(turned.gradient(v) - gv) <= 1e-12 * np.linalg.norm(gv)

    def test_quadratic_line_turns_only_when_asked(self):
        p, x, d = TestRestriction._ray("quadratic")
        with pytest.raises(ValueError, match="turns=True"):
            line = restrict(p, x, d, p.value(x), p.gradient(x), turns=False)
            line.turn(self.T, x + self.T * d, d, (1.0, 0.0))

    @pytest.mark.parametrize("kind,generic", [
        ("logsumexp", False), ("logsumexp", True), ("quadratic", True)])
    def test_other_lines_take_a_new_restriction(self, kind, generic):
        p, x, d = TestRestriction._ray(kind)
        obj = ValueAndGradientOnly(p) if generic else p
        turned, fresh = self._turned(obj, p, x, d)
        assert type(turned) is type(fresh)
        for v in (-0.5, 0.0, 0.3, 1.0, 4.0):
            assert turned.value(v) == fresh.value(v)
            assert turned.slope(v) == fresh.slope(v)
            assert np.array_equal(turned.gradient(v), fresh.gradient(v))

    @pytest.mark.parametrize("kind,generic", [
        ("quadratic", False), ("logsumexp", False), ("quadratic", True)])
    def test_turn_is_charged_like_a_new_restriction(self, kind, generic):
        p, x, d = TestRestriction._ray(kind)
        obj = ValueAndGradientOnly(p) if generic else p
        counters = [CountingObjective(obj), CountingObjective(obj)]
        turned, _ = self._turned(counters[0], p, x, d)
        _, fresh = self._turned(counters[1], p, x, d)
        assert [(c.n_value, c.n_grad) for c in counters] == [(0, 0), (0, 0)]
        queries = [("value", 0.0), ("slope", 0.0), ("gradient", 0.0), ("value", 0.5),
                   ("slope", 0.5), ("gradient", 0.5), ("value", 0.5), ("slope", 1.0)]
        for query, v in queries:
            for line in (turned, fresh):
                getattr(line, query)(v)
            assert (counters[0].n_value, counters[0].n_grad) == (
                counters[1].n_value, counters[1].n_grad)
        assert counters[0].n_value + counters[0].n_grad > 0


def _unfloored_weights(z):
    """exp(z - max z) by plain numpy, however slow or small."""
    zmax = np.maximum.reduce(z)
    return zmax, np.exp(z - zmax)


def _unfloored_answers(p, u, z=None):
    """The value and gradient at u by plain numpy, from the exponents z
    (alpha (u u) unless given) shifted by their max past 500, as the kernels
    shift them, and raised to no floor."""
    z = p.alpha * (u * u) if z is None else z
    zmax = np.maximum.reduce(z)
    shift = zmax if zmax > 500.0 else 0.0
    w = np.exp(z - shift)
    sw = np.add.reduce(w)
    value = float(shift) + float(np.log(sw)) + float(np.dot(p.beta, u * u))
    gradient = u * (w * p.alpha * (1.0 / sw) + p.beta)
    return zmax, w, sw, value, gradient + gradient


class TestExpFloor:
    # Far out on this ray the largest exponent alpha u^2 passes 700 and the
    # shifted ones run below -700: at 9.5 some are subnormal after exp and
    # some just above it, at 10 and 12 most underflow to 0.  Raising them to
    # -700 must change no bit of any answer.  At ORDER_T, max z is 64.5 and
    # no weight is shifted, and there the exponent orders (alpha u) u and
    # alpha (u u) give other bits: at TS they do not, so the kernels' order
    # is checked at ORDER_T.
    TS = (9.5, 10.0, 12.0)
    ORDER_T = 2.8

    @staticmethod
    def _ray():
        return TestRestriction._ray("logsumexp", 200)

    def test_ray_reaches_past_the_floor(self):
        p, x, d = self._ray()
        tiny = np.finfo(float).tiny
        low = []
        for t in self.TS:
            u = d * t + x
            zmax, w = _unfloored_weights(p.alpha * (u * u))
            assert zmax > 700.0
            low.extend(w[w < math.exp(-700.0)])
        low = np.array(low)
        # weights that underflow, that are subnormal, and normal ones below e^-700
        assert (low == 0.0).any() and ((0.0 < low) & (low < tiny)).any() and (low >= tiny).any()

    def test_exponent_orders_differ_at_order_t(self):
        p, x, d = self._ray()
        u = x + self.ORDER_T * d
        *_, value, gradient = _unfloored_answers(p, u)
        *_, other_value, other_gradient = _unfloored_answers(p, u, (p.alpha * u) * u)
        assert value != other_value
        assert not np.array_equal(gradient, other_gradient)

    def test_line_answers_as_unfloored_numpy(self):
        p, x, d = self._ray()
        line = restrict(p, x, d, p.value(x), p.gradient(x), turns=False)
        for t in (*self.TS, self.ORDER_T):
            u = d * t
            u += x  # the line's own order
            zmax, w, sw, value, gradient = _unfloored_answers(p, u)
            slope = 2.0 * (float(np.dot(w, p.alpha * d * u)) / float(sw)
                           + float(np.dot(p.beta * d, u)))
            assert line.slope(t) == slope
            assert line.value(t) == value
            assert np.array_equal(line.gradient(t), gradient)

    def test_pointwise_answers_as_unfloored_numpy(self):
        p, x, d = self._ray()
        for t in (*self.TS, self.ORDER_T):
            u = x + t * d
            _, _, _, value, gradient = _unfloored_answers(p, u)
            assert p.value(u) == value
            assert np.array_equal(p.gradient(u), gradient)

    def test_no_weight_below_the_floor(self):
        p, x, d = self._ray()
        line = restrict(p, x, d, p.value(x), p.gradient(x), turns=False)
        for t in self.TS:
            line.value(t)
            assert line._w.min() >= math.exp(-700.0)
            assert line._w.max() == 1.0


class TestShiftBound:
    # A weighing shifts by max z only past 500.  One entry sets max z on
    # both sides of that bound: every answer must be the reference's, bit
    # for bit.
    ZMAX = (400.0, 497.0, 498.0, 499.0, 499.99, 500.0, 500.01, 501.0, 550.0, 650.0)

    def test_answers_as_if_the_max_were_taken(self):
        p, x, d = TestRestriction._ray("logsumexp", 50)
        i = int(np.argmax(p.alpha / p.beta))
        for zmax in self.ZMAX:
            u = 1e-3 * d
            u[i] = math.sqrt(zmax / p.alpha[i])
            *_, value, gradient = _unfloored_answers(p, u)
            assert p.value(u) == value
            assert np.array_equal(p.gradient(u), gradient)
            line = restrict(p, u, d, p.value(u), p.gradient(u), turns=False)
            assert line.value(0.0) == value
            assert np.array_equal(line.gradient(0.0), gradient)


_LD = np.longdouble


def _long_double_answers(p, u):
    """The value and gradient at u in long double, from shifted weights."""
    alpha, beta, u = (v.astype(_LD) for v in (p.alpha, p.beta, u))
    z = alpha * u * u
    zmax = z.max()
    w = np.exp(z - zmax)
    sw = w.sum()
    return zmax + np.log(sw) + (beta * u * u).sum(), 2 * u * (alpha * w / sw + beta)


class TestLogSumExpAccuracy:
    # x0 scaled from 1e-6 to 25 puts max z on both sides of the shift at
    # 500.  Measured worst: 1.83 ulp on a value, 2.09 eps on |g - g_ref| /
    # |g_ref| (the rounding of sum w enters every entry alike) and 0.72 eps
    # on a slope's error over |g| |d|, before and after the exponents became
    # alpha (u u); the bounds are 3 ulp, 4 eps and 4 eps, pointwise and
    # along a line alike
    EPS = float(np.finfo(float).eps)
    SCALES = np.geomspace(1e-6, 25.0, 12)

    @pytest.mark.skipif(np.finfo(_LD).eps >= 1e-18, reason="long double is no wider than double")
    @pytest.mark.parametrize("n", [10, 1000, 10_000])
    def test_against_long_double(self, n):
        p, x0 = generate_instance("logsumexp", n, 3)
        d = np.random.default_rng(n).standard_normal(n)
        shifted = set()
        for scale in self.SCALES:
            x, e = scale * x0, scale * d
            line = restrict(p, x, e, p.value(x), p.gradient(x), turns=False)
            for t in (0.0, 0.3, -0.7):
                u = e * t + x  # the line's own point
                value, gradient = _long_double_answers(p, u)
                gnorm = float(np.sqrt((gradient * gradient).sum()))
                first = line.value(t)
                for v in (first, p.value(u)):
                    assert abs(_LD(v) - value) <= 3.0 * np.spacing(v)
                for g in (line.gradient(t), p.gradient(u)):
                    assert float(np.sqrt(((g - gradient) ** 2).sum())) <= 4.0 * self.EPS * gnorm
                slope_error = abs(_LD(line.slope(t)) - (gradient * e).sum())
                assert slope_error <= 4.0 * self.EPS * gnorm * np.linalg.norm(e)
                assert line.value(t) == first  # u u formed again after the slope
            # at t = 0 the line weighs a copy of x: the pointwise bits
            assert line.value(0.0) == p.value(x)
            assert np.array_equal(line.gradient(0.0), p.gradient(x))
            shifted.add(bool((p.alpha * (x * x)).max() > 500.0))
        assert shifted == {False, True}

    @pytest.mark.parametrize("variant", ["semiline-min", "decrease-search"])
    def test_far_start_raises_no_warning(self, variant):
        # |x_i| about 30: max z starts near 1600, past the shift and the
        # floor, and falls below 500 on the way to the minimizer
        p, x0 = generate_instance("logsumexp", 1000, 2)
        x = 30.0 * np.sign(x0) * (1.0 + 0.05 * np.tanh(x0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run = minimize(p, x, SolverConfig(epsilon=1e-8, variant=variant))
        assert run.termination is Termination.CONVERGED
        assert (p.alpha * (x * x)).max() > 1000.0


class TestQueryAllocations:
    # a line's queries at a new t work in the line's own buffers: a value or
    # a slope allocates less than one n-vector, a gradient its result alone
    N = 10_000

    @staticmethod
    def _peak(query, t) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            query(t)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_line_queries_allocate_no_temporaries(self):
        p, x = generate_instance("logsumexp", self.N, 0)
        g = p.gradient(x)
        line = restrict(p, x, -g, p.value(x), g, turns=False)
        line.slope(0.5)  # the buffers, alpha d and beta d
        vector = 8 * self.N
        assert self._peak(line.value, 0.1) < vector
        assert self._peak(line.value, 0.0) < vector
        assert self._peak(line.slope, 0.2) < vector
        assert self._peak(line.value, 0.2) < vector  # u u formed again
        assert vector <= self._peak(line.gradient, 0.3) < vector + vector // 8


class TestBufferHandOff:
    # a log-sum-exp line hands its buffers on to the line it turns into
    @staticmethod
    def _turn(p, line, x, d):
        e = TestTurn._direction(p, d)
        return line.turn(TestTurn.T, x + TestTurn.T * d, e, TestTurn.KRYLOV), e

    def test_turned_line_holds_the_buffers(self):
        p, x, d = TestRestriction._ray("logsumexp")
        line = restrict(p, x, d, p.value(x), p.gradient(x), turns=True)
        line.value(0.7)
        buffers = (line._u, line._w, line._tmp)
        turned, _ = self._turn(p, line, x, d)
        assert all(a is b for a, b in zip((turned._u, turned._w, turned._tmp), buffers))

    def test_lines_answer_as_fresh_ones_after_the_turn(self):
        p, x, d = TestRestriction._ray("logsumexp")
        line = restrict(p, x, d, p.value(x), p.gradient(x), turns=True)
        line.value(0.7)
        line.slope(0.7)
        turned, e = self._turn(p, line, x, d)
        y = x + TestTurn.T * d
        pairs = [(line, restrict(p, x, d, p.value(x), p.gradient(x), turns=False)),
                 (turned, restrict(p, y, e, p.value(y), p.gradient(y), turns=False))]
        # each query alternates between the lines, so that a buffer they
        # shared would show in the next
        for t in (0.7, 0.3, -1.0):
            for old, fresh in pairs:
                assert old.value(t) == fresh.value(t)
            for old, fresh in pairs:
                assert old.slope(t) == fresh.slope(t)
            for old, fresh in pairs:
                assert np.array_equal(old.gradient(t), fresh.gradient(t))

    def test_counts_after_the_turn_are_the_generic_lines(self):
        p, x, d = TestRestriction._ray("logsumexp")
        counters = [CountingObjective(p), CountingObjective(ValueAndGradientOnly(p))]
        lines = [restrict(c, x, d, p.value(x), p.gradient(x), turns=True) for c in counters]
        assert isinstance(lines[0].line, LogSumExpLine)
        for line in lines:
            line.value(0.5)
            line.slope(0.5)
        lines += [self._turn(p, line, x, d)[0] for line in lines]
        queries = [("value", 0.5), ("slope", 0.5), ("gradient", 0.5), ("slope", 0.0),
                   ("gradient", 0.0), ("value", 1.0)]
        for query, t in queries:
            for line in lines:
                getattr(line, query)(t)
            assert (counters[0].n_value, counters[0].n_grad) == (
                counters[1].n_value, counters[1].n_grad)
        assert (counters[0].n_value, counters[0].n_grad) == (5, 4)


class TestGenerateInstance:
    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_dimension(self, kind, n):
        with pytest.raises(ValueError) as exc:
            generate_instance(kind, n, 0)
        assert str(exc.value) == "dimension must be at least 1"

    def test_deterministic_bit_for_bit(self):
        a1, x1 = generate_instance("quadratic", 8, 5)
        a2, x2 = generate_instance("quadratic", 8, 5)
        assert np.array_equal(a1.a, a2.a)
        assert np.array_equal(a1.b, a2.b)
        assert np.array_equal(x1, x2)
        b1, y1 = generate_instance("logsumexp", 8, 5)
        b2, y2 = generate_instance("logsumexp", 8, 5)
        assert np.array_equal(b1.alpha, b2.alpha)
        assert np.array_equal(b1.beta, b2.beta)
        assert np.array_equal(y1, y2)

    def test_quadratic_spectrum_in_range(self):
        p, _ = generate_instance("quadratic", 100, 0, GenParams(kappa=100))
        eigs = np.linalg.eigvalsh(p.a)
        assert eigs.min() >= 1.0 - 1e-8
        assert eigs.max() <= 100.0 + 1e-8
        assert p.mu == pytest.approx(eigs.min(), rel=1e-9)

    def test_logsumexp_weights_positive(self):
        for seed in range(5):
            p, _ = generate_instance("logsumexp", 50, seed)
            assert p.alpha.min() > 0.0
            assert p.beta.min() > 0.0
            assert p.mu == pytest.approx(2.0 * p.beta.min())

    def test_input_errors(self):
        with pytest.raises(ValueError):
            generate_instance("quadratic", 4, 0, GenParams(kappa=0.5))
        for kappa in (math.nan, math.inf, float("1e400")):
            with pytest.raises(ValueError, match="finite"):
                GenParams(kappa=kappa)
        with pytest.raises(ValueError):
            generate_instance("cubic", 4, 0)
        # raises before allocating the dense matrix
        with pytest.raises(ValueError):
            generate_instance("quadratic", MAX_QUADRATIC_DIM + 1, 0)

    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    @pytest.mark.parametrize("seed", [-1, -2**70, 2.0, True, None, "3"],
                             ids=["minus-one", "huge-negative", "float", "bool", "none", "str"])
    def test_seed_must_be_a_nonnegative_integer(self, kind, seed):
        with pytest.raises(ValueError) as exc:
            generate_instance(kind, 4, seed)
        assert str(exc.value) == f"seed must be a nonnegative integer, not {seed!r}"

    def test_numpy_integer_seed_is_the_same_seed(self):
        p, x0 = generate_instance("logsumexp", 6, np.int64(3))
        q, y0 = generate_instance("logsumexp", 6, 3)
        assert np.array_equal(p.alpha, q.alpha) and np.array_equal(x0, y0)

    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_strong_monotonicity_samples(self, kind):
        p, _ = generate_instance(kind, 15, 9, GenParams(kappa=100))
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(15)
            y = rng.standard_normal(15)
            lhs = (p.gradient(y) - p.gradient(x)) @ (y - x)
            bound = p.mu * float((y - x) @ (y - x))
            assert lhs >= bound - 1e-9 * (1.0 + abs(bound))


class TestSerialization:
    def test_other_objectives_are_not_serialized(self):
        problem, _ = generate_instance("logsumexp", 3, 0)
        with pytest.raises(ValueError) as exc:
            problem_to_dict(ValueAndGradientOnly(problem))
        assert str(exc.value) == "cannot serialize objective of type ValueAndGradientOnly"

    @pytest.mark.parametrize("older", [False, True], ids=["current", "with-seed-and-params"])
    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_json_roundtrip(self, kind, older, tmp_path):
        problem, x0 = generate_instance(kind, 6, 3, GenParams(kappa=25))
        path = tmp_path / "problem.json"
        save_problem(path, problem, x0=x0)
        if older:  # documents once carried the generator's seed and params; the reader ignores them
            doc = json.loads(path.read_text())
            path.write_text(json.dumps({**doc, "seed": 4, "params": {"kappa": 25.0}}))
        loaded, x0_loaded = load_problem(path)
        assert np.array_equal(x0, x0_loaded)
        point = np.linspace(-1.0, 1.0, 6)
        assert loaded.value(point) == problem.value(point)
        assert np.array_equal(loaded.gradient(point), problem.gradient(point))

    def test_document_uses_flat_arrays(self):
        problem, x0 = generate_instance("quadratic", 3, 1)
        doc = problem_to_dict(problem, x0=x0)
        assert set(doc) == {"kind", "n", "matrix", "b", "mu", "x0"}
        assert doc["kind"] == "quadratic"
        assert len(doc["matrix"]) == 9
        assert json.dumps(doc)  # JSON-serializable as-is
        back, _ = problem_from_dict(doc)
        assert np.allclose(back.a, problem.a)

    def test_x0_the_reader_would_reject_is_not_written(self, tmp_path):
        problem, _ = generate_instance("logsumexp", 5, 0)
        path = tmp_path / "problem.json"
        with pytest.raises(ValueError) as exc:
            save_problem(path, problem, x0=np.zeros(3))
        assert str(exc.value) == "expected a point of dimension 5, got shape (3,)"
        assert not path.exists()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            problem_from_dict({"kind": "cubic", "n": 2})

    @pytest.mark.parametrize("mu", [None, 0.5, 2])
    def test_mu_roundtrips_as_a_float_or_none(self, mu):
        problem = QuadraticProblem(np.eye(2), np.zeros(2), mu=mu)
        back, _ = problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
        assert back.mu == mu and (mu is None or type(back.mu) is float)
