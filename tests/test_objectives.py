import json
import math

import numpy as np
import pytest

from ellipcenters import (GenParams, LogSumExpProblem, QuadraticProblem,
                          check_gradient, generate_instance, load_problem,
                          problem_from_dict, problem_to_dict, save_problem)
from ellipcenters.objectives import (CountingObjective, QuadraticLine, RayLine,
                                     restrict)


class TestQuadratic:
    def test_identity_quadratic(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        value, grad = p.value([3.0, 4.0]), p.gradient([3.0, 4.0])
        assert value == pytest.approx(12.5)
        assert np.allclose(grad, [3.0, 4.0])

    def test_minimizer_by_hand(self):
        # A x* = b gives x* = (1, 0.25) and f(x*) = -0.5 b'x* = -0.625
        p = QuadraticProblem(np.diag([1.0, 4.0]), np.array([1.0, 1.0]))
        xs = np.linalg.solve(p.a, p.b)
        assert np.allclose(xs, [1.0, 0.25])
        value, grad = p.value(xs), p.gradient(xs)
        assert value == pytest.approx(-0.625)
        assert np.linalg.norm(grad) < 1e-14

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


class TestLogSumExp:
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


class TestRestriction:
    @staticmethod
    def _ray(kind, n=30):
        p, x = generate_instance(kind, n, 1, GenParams(kappa=100))
        return p, x, np.random.default_rng(5).standard_normal(n)

    def test_quadratic_line_matches_pointwise(self):
        p, x, d = self._ray("quadratic")
        line = p.along(x, d)
        assert isinstance(restrict(p, x, d), QuadraticLine)
        assert line.value(0.0) == p.value(x)  # bit for bit
        # the line's minimum is near t = 0.5; keep the slopes away from zero
        for t in (-0.5, 1e-3, 0.25, 1.0, 4.0):
            y = x + t * d
            assert line.value(t) == pytest.approx(p.value(y), rel=1e-12)
            assert line.slope(t) == pytest.approx(float(p.gradient(y) @ d), rel=1e-12)

    def test_logsumexp_gets_the_generic_line(self):
        p, x, d = self._ray("logsumexp")
        line = restrict(p, x, d)
        assert isinstance(line, RayLine)
        for t in (0.0, 0.3, -1.2):
            y = x + t * d
            assert line.value(t) == p.value(y)
            assert line.slope(t) == float(p.gradient(y) @ d)

    def test_dispatch_is_on_the_attribute(self):
        p, x, d = self._ray("quadratic")

        class ValueAndGradientOnly:
            dimension = p.dimension
            value = staticmethod(p.value)
            gradient = staticmethod(p.gradient)

        assert isinstance(restrict(ValueAndGradientOnly(), x, d), RayLine)

    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_counting_objective_counts_each_query(self, kind):
        p, x, d = self._ray(kind)
        counted = CountingObjective(p)
        line = restrict(counted, x, d)
        assert (counted.n_value, counted.n_grad) == (0, 0)
        for t in (0.0, 0.5, 1.0):
            line.value(t)
        line.slope(0.5)
        line.slope(2.0)
        assert (counted.n_value, counted.n_grad) == (3, 2)
        assert line.value(0.7) == restrict(p, x, d).value(0.7)
        line.gradient(0.5)
        assert (counted.n_value, counted.n_grad) == (4, 3)

    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_line_from_the_callers_value_and_gradient(self, kind):
        p, x, d = self._ray(kind)
        f, g = p.value(x), p.gradient(x)
        line = restrict(p, x, d, f, g)
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
        restrict(p, x, d, f, g)
        assert matrix.products == 1  # Ad alone
        restrict(p, x, d, f)
        assert matrix.products == 3  # Ax and Ad


class TestGenerateInstance:
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
        with pytest.raises(ValueError):
            GenParams(weight_low=-1.0)
        with pytest.raises(ValueError):
            generate_instance("cubic", 4, 0)
        with pytest.raises(ValueError):
            generate_instance("quadratic", 100, 0, GenParams(max_quadratic_dim=50))

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
    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_json_roundtrip(self, kind, tmp_path):
        params = GenParams(kappa=25)
        problem, x0 = generate_instance(kind, 6, 3, params)
        path = tmp_path / "problem.json"
        save_problem(path, problem, seed=3, params=params, x0=x0)
        loaded, x0_loaded = load_problem(path)
        assert np.array_equal(x0, x0_loaded)
        point = np.linspace(-1.0, 1.0, 6)
        assert loaded.value(point) == problem.value(point)
        assert np.array_equal(loaded.gradient(point), problem.gradient(point))

    def test_document_uses_flat_arrays(self):
        problem, x0 = generate_instance("quadratic", 3, 1)
        doc = problem_to_dict(problem, seed=1, x0=x0)
        assert doc["kind"] == "quadratic"
        assert len(doc["matrix"]) == 9
        assert json.dumps(doc)  # JSON-serializable as-is
        back, _ = problem_from_dict(doc)
        assert np.allclose(back.a, problem.a)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            problem_from_dict({"kind": "cubic", "n": 2})
