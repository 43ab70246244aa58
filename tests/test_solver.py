import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (RAY_GRADIENTS, Logistic, NaNGradientAfter, Toy, Transformed,
                      ValueAndGradientOnly, chord_midpoint_value, first_ray_direction, level_step)
from ellipcenters import (GenParams, LogSumExpProblem, NumericError, QuadraticProblem, SolverConfig,
                          Termination, Variant, generate_instance, minimize, baselines, objectives,
                          run_method, solver)
from ellipcenters.geometry import build_frame, center_direction, scaled_sumsq
from ellipcenters.levelstep import find_level_step
from ellipcenters.objectives import QuadraticLine, restrict
from ellipcenters.solver import me_step, run_scale, semiline_search


def step_from(p, x, variant=Variant.SEMILINE_MIN):
    """me_step from x on p's counted view, given the pointwise value and
    gradient there."""
    f, g = p.value(x), p.gradient(x)
    return me_step(objectives.CountingObjective(p), x, f, g, scaled_sumsq(g), variant,
                   1.0, 0, run_scale(x, f, scaled_sumsq(g)))


class LoggedLines:
    """An objective whose own lines log each query as (query, t, turned)."""

    def __init__(self, inner):
        self.inner, self.dimension, self.queries = inner, inner.dimension, []
        self.value, self.gradient = inner.value, inner.gradient

    def along(self, x, d, f, g, turns):
        return LoggedLine(self.queries, restrict(self.inner, x, d, f, g, turns), False)


class LoggedLine:
    def __init__(self, queries, line, turned):
        self.queries, self.line, self.turned = queries, line, turned
        self.pointwise = line.pointwise

    def _ask(self, query, t):
        self.queries.append((query, t, self.turned))
        return getattr(self.line, query)(t)

    def value(self, t):
        return self._ask("value", t)

    def slope(self, t):
        return self._ask("slope", t)

    def gradient(self, t):
        return self._ask("gradient", t)

    def turn(self, t, x, e, krylov):
        return LoggedLine(self.queries, self.line.turn(t, x, e, krylov), True)


class TestMeStep:
    def test_radial_symmetry_takes_midpoint_to_minimizer(self):
        p = QuadraticProblem(np.eye(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        x_next, _, _, fields = step_from(p, x)
        assert fields["branch"] == "midpoint"  # grad at y = -x is collinear
        assert np.linalg.norm(x_next) <= 1e-8

    def test_two_dimensional_quadratic_one_shot(self):
        p = QuadraticProblem(np.diag([1.0, 4.0]), np.zeros(2))
        x = np.array([1.0, 1.0])
        x_next, _, _, fields = step_from(p, x)
        assert fields["branch"] == "ellipse"
        assert np.linalg.norm(x_next) <= 1e-10

    def test_descent_contract_both_branches(self):
        for kind in ("quadratic", "logsumexp"):
            p, x0 = generate_instance(kind, 10, 3, GenParams(kappa=100))
            x_next, f_next, _, fields = step_from(p, x0)
            f0 = p.value(x0)
            f_mid = chord_midpoint_value(p, SimpleNamespace(x=x0, **fields))
            assert f_next <= f_mid
            assert f_mid < f0
            assert p.value(x_next) == pytest.approx(f_next, abs=1e-12)

    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_next_gradient_comes_from_the_searched_line(self, kind):
        p, x0 = generate_instance(kind, 10, 3, GenParams(kappa=100))
        x_next, _, g_next, fields = step_from(p, x0)
        assert fields["branch"] == "ellipse"
        g = p.gradient(x_next)
        if kind == "quadratic":
            assert np.linalg.norm(g_next - g) <= 1e-12 * np.linalg.norm(g)
        else:  # the generic line evaluates at the same bits as x_next
            assert np.array_equal(g_next, g)

    @staticmethod
    def _axis_start(kind):
        """A start whose gradient is an eigenvector of A, or on log-sum-exp
        lies on a coordinate axis, so that grad f(y) is collinear with the
        chord and the step takes the midpoint branch."""
        if kind == "quadratic":
            return QuadraticProblem(np.diag([1.0, 4.0]), np.zeros(2)), np.array([1.0, 0.0])
        p, _ = generate_instance("logsumexp", 10, 3)
        return p, np.eye(10)[0] * 1.5

    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
    def test_midpoint_gradient_comes_from_the_level_line(self, kind):
        p, x = self._axis_start(kind)
        fx, gx = p.value(x), p.gradient(x)
        x_next, f_next, g_next, fields = step_from(p, x)
        assert fields["branch"] == "midpoint"
        t, _, line = level_step(p, x, fx, gx, 1.0)
        mid = 0.5 * t
        assert np.array_equal(x_next, x - mid * gx)
        assert f_next == fields["f_mid"] == line.value(mid)
        assert np.array_equal(g_next, line.gradient(mid))
        g = p.gradient(x_next)
        if kind == "quadratic":
            assert np.linalg.norm(g_next - g) <= 1e-12 * np.linalg.norm(gx)
        else:  # the line's point at t/2 has the midpoint's bits
            assert np.array_equal(g_next, g)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("branch", ["ellipse", "midpoint"])
    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp", "generic"])
    def test_f_mid_is_taken_only_where_the_step_reads_it(self, kind, branch, variant):
        # on a convex line a semiline-min ellipse step asks no value at the
        # chord midpoint, neither at the level line's u/2 nor at the turned
        # line's 0, and records NaN; decrease-search and the midpoint branch
        # read f_mid off the level line at u/2 bit for bit.  "generic" is the
        # log-sum-exp problem through its value and gradient only
        family = "quadratic" if kind == "quadratic" else "logsumexp"
        if branch == "midpoint":
            p, x = self._axis_start(family)
        else:
            p, x = generate_instance(family, 10, 3, GenParams(kappa=100))
        obj = ValueAndGradientOnly(p) if kind == "generic" else p
        logged = LoggedLines(obj)
        _, _, _, fields = step_from(logged, x, variant)
        assert fields["branch"] == branch
        u, _, line = level_step(obj, x, p.value(x), p.gradient(x), 1.0)
        values = [(t, turned) for query, t, turned in logged.queries if query == "value"]
        assert (0.0, True) not in values
        assert any(turned for *_, turned in logged.queries) == (branch == "ellipse")
        if branch == "ellipse" and variant is Variant.SEMILINE_MIN:
            assert (0.5 * u, False) not in values
            assert math.isnan(fields["f_mid"])
        else:
            assert float(fields["f_mid"]).hex() == float(line.value(0.5 * u)).hex()

    @pytest.mark.parametrize("kind", ["quadratic", "logsumexp", "generic"])
    def test_a_fallback_takes_f_mid_off_the_turned_line(self, kind, monkeypatch):
        # a search whose point is above f(x) sends semiline-min back to the
        # midpoint: its one value there, the turned line's at 0, has the bits
        # of the level line's at u/2 and is charged to the search
        family = "quadratic" if kind == "quadratic" else "logsumexp"
        p, x = generate_instance(family, 10, 3, GenParams(kappa=100))
        obj = ValueAndGradientOnly(p) if kind == "generic" else p
        monkeypatch.setattr(solver, "minimize_on_ray", lambda line, v0, *, h0, s0: (v0, math.inf))
        x_next, f_next, _, fields = step_from(obj, x)
        u, _, line = level_step(obj, x, p.value(x), p.gradient(x), 1.0)
        assert fields["branch"] == "ellipse" and fields["v"] == 0.0
        assert float(f_next).hex() == float(fields["f_mid"]).hex()
        assert float(f_next).hex() == float(line.value(0.5 * u)).hex()
        assert f_next < p.value(x)
        assert np.array_equal(x_next, x - 0.5 * u * p.gradient(x))
        assert fields["search_evals"] == (1, 0)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("kind,n_value,n_grad", [
        ("quadratic", 4, 4), ("logsumexp", 8, 3)])
    def test_midpoint_run_counts(self, kind, n_value, n_grad, variant):
        # the midpoint's gradient costs one evaluation, as a pointwise one did,
        # and the stopping test one value and one gradient at x_final where
        # the midpoint's pair drifts (log-sum-exp 9/4 -> 8/3 when the
        # stopping test kept its line's pointwise pair)
        p, x = self._axis_start(kind)
        run = minimize(p, x, SolverConfig(epsilon=1e-8, variant=variant))
        assert [r.branch for r in run.iterates] == ["midpoint", "final"]
        assert run.termination is Termination.CONVERGED
        assert (run.n_value_evals, run.n_grad_evals) == (n_value, n_grad)

    def test_level_point_gradient_never_uphill_along_ray(self):
        # the ray re-crosses the level set going uphill, so the gradients at
        # x and at the level point have a nonpositive inner product
        p, x = generate_instance("logsumexp", 12, 8)
        for _ in range(6):
            g = p.gradient(x)
            if np.linalg.norm(g) <= 0.01:
                break
            x_next, _, _, fields = step_from(p, x)
            assert p.gradient(x - fields["t"] * g) @ g <= 1e-9
            x = x_next


def search(p, base, d, variant, scale=1.0):
    """The semiline search's v on the line {base + v d} of p, from v = scale."""
    line = restrict(p, base, d, p.value(base), p.gradient(base), turns=False)
    v, _ = semiline_search(line, variant, scale=scale, bar=line.value(0.0),
                           slope=line.slope(0.0), first=0)
    return v


class TestSemilineSearch:
    def test_sphere_lands_at_origin(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        v = search(p, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), Variant.SEMILINE_MIN)
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_ascent_direction_returns_zero(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        v = search(p, np.array([1.0, 0.0]), np.array([1.0, 0.0]), Variant.SEMILINE_MIN)
        assert v == pytest.approx(0.0, abs=1e-6)

    def test_shifted_quadratic_vertex(self):
        # f restricted to the ray is (v - 0.7)^2 + 1
        p = QuadraticProblem(np.diag([2.0, 2.0]), np.array([1.4, 0.0]))
        base = np.zeros(2)
        d = np.array([1.0, 0.0])
        v = search(p, base, d, Variant.SEMILINE_MIN)
        assert v == pytest.approx(0.7, abs=1e-8)

    def test_decrease_search_beats_the_base(self):
        p, x0 = generate_instance("logsumexp", 8, 1)
        base = 0.9 * x0
        d = -p.gradient(base)
        d = d / np.linalg.norm(d)
        v = search(p, base, d, Variant.DECREASE_SEARCH, scale=1.0)
        assert v > 0.0
        assert p.value(base + v * d) < p.value(base)

    class FlatLine:
        """Above 1 everywhere but at its base, where it is 1; its slope root
        is v = 0.5.  Logs the points of its values."""

        def __init__(self):
            self.values = []

        def value(self, v):
            self.values.append(v)
            return 1.0 if v == 0.0 else 1.001

        def slope(self, v):
            return 2.0 * (v - 0.5)

    @pytest.mark.parametrize("bar,slope", [(1.0005, -1.0), (1.0, -1.0), (1.0005, 0.0),
                                           (1.0005, 1.0), (1.0005, math.nan)])
    def test_semiline_min_falls_back_to_the_base(self, bar, slope):
        # the slope root's value rounds above the bar f(x), or the slope at
        # 0 handed in is not negative: the step stays at the midpoint, takes
        # its one value there, and does not rise above f(x)
        line = self.FlatLine()
        v, f_next = semiline_search(line, Variant.SEMILINE_MIN, scale=1.0, bar=bar, slope=slope,
                                    first=0)
        assert (v, f_next) == (0.0, 1.0) and f_next <= bar
        assert line.values.count(0.0) == 1

    def test_semiline_min_keeps_a_point_level_with_the_bar(self):
        # the fallback is non-strict: a point whose value ties f(x) is kept
        line = self.FlatLine()
        v, f_next = semiline_search(line, Variant.SEMILINE_MIN, scale=1.0, bar=1.001, slope=-1.0,
                                    first=0)
        assert v == pytest.approx(0.5, rel=1e-8) and f_next == 1.001
        assert 0.0 not in line.values

    @pytest.mark.parametrize("variant", ["semiline-min", "decrease-search", None])
    def test_a_variant_that_is_not_a_member_is_named(self, variant):
        # only SolverConfig converts a name; a name here must not fall
        # through to decrease-search
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match=repr(variant)):
            search(p, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), variant, scale=0.3)


def krylov_plane_step(a, b, x):
    """Minimizer of 0.5 x'Ax - b'x over x + span{g, Ag} and the decrease in f
    it achieves: a 2x2 solve on an orthonormal basis of the plane, numpy only."""
    g = a @ x - b
    q, _ = np.linalg.qr(np.column_stack([g, a @ g]))
    qg = q.T @ g
    c = np.linalg.solve(q.T @ (a @ q), qg)
    return x - q @ c, 0.5 * float(qg @ c)


class TestKrylovPlaneOracle:
    # on a quadratic the exact semiline step minimizes f over x + span{g, Ag};
    # checked on the kappa = 1000 instances of acceptance criterion 6 and on
    # mildly conditioned ones
    @pytest.mark.parametrize("kappa", [1000.0, 10.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_semiline_min_matches_plane_minimizer(self, seed, kappa):
        p, x0 = generate_instance("quadratic", 100, seed, GenParams(kappa=kappa))
        a, b = p.a, p.b

        def f(x):
            return 0.5 * float(x @ (a @ x)) - float(b @ x)

        run = minimize(p, x0, SolverConfig(epsilon=0.01, max_iterations=2000))
        assert run.termination is Termination.CONVERGED
        worst = np.inf
        for rec, nxt in zip(run.iterates[:-1], run.iterates[1:]):
            assert rec.branch == "ellipse"
            _, oracle_decrease = krylov_plane_step(a, b, rec.x)
            worst = min(worst, (f(rec.x) - f(nxt.x)) / oracle_decrease)
        assert worst >= 1.0 - 1e-5

        x, oracle_iterations = x0, 0
        while np.linalg.norm(a @ x - b) > 0.01 and oracle_iterations < 2000:
            x, _ = krylov_plane_step(a, b, x)
            oracle_iterations += 1
        assert run.iterations == oracle_iterations

    # the counts the plane oracle above gives at epsilon = 1e-9
    @pytest.mark.parametrize("seed,iterations", [(0, 2607), (1, 2297), (2, 2263)])
    def test_carried_gradient_tracks_the_fresh_one(self, seed, iterations):
        # every gradient after the start is carried along the lines an
        # iteration searched, never recomputed as A x - b, so rounding could
        # pile up over thousands of iterations
        epsilon = 1e-9
        p, x0 = generate_instance("quadratic", 100, seed, GenParams(kappa=1000.0))
        run = minimize(p, x0, SolverConfig(epsilon=epsilon, max_iterations=5000))
        assert run.termination is Termination.CONVERGED
        assert run.iterations == iterations
        assert np.linalg.norm(p.a @ run.x_final - p.b) <= epsilon
        for rec in run.iterates:
            assert abs(rec.grad_norm - np.linalg.norm(p.a @ rec.x - p.b)) <= 1e-11


def assert_same_run(fast, generic):
    # x and f are compared relative to 1 + |.|: f crosses zero on the way to
    # a quadratic's minimum, and x goes to 0 on log-sum-exp
    assert fast.termination is generic.termination is Termination.CONVERGED
    assert fast.iterations == generic.iterations
    assert [r.branch for r in fast.iterates] == [r.branch for r in generic.iterates]
    for a, b in zip(fast.iterates, generic.iterates):
        assert np.linalg.norm(a.x - b.x) <= 1e-6 * (1.0 + np.linalg.norm(b.x))
        assert abs(a.f - b.f) <= 1e-6 * (1.0 + abs(b.f))


class TestFastPathMatchesGeneric:
    # an objective's own line restriction must reproduce the iterates of the
    # generic value/gradient line
    @pytest.mark.parametrize("variant,n,kappa,seed", [
        *[(Variant.SEMILINE_MIN, 100, kappa, seed)
          for kappa in (10.0, 1000.0) for seed in (0, 1, 2)],
        *[(Variant.SEMILINE_MIN, 2, 50.0, seed) for seed in (0, 1, 2)],
        # decrease-search accepts the first sample below the midpoint value,
        # so at kappa = 1000 rounding can flip a sample and the runs part
        *[(Variant.DECREASE_SEARCH, 100, 10.0, seed) for seed in (0, 1, 2)],
    ])
    def test_quadratic_iterates(self, variant, n, kappa, seed):
        p, x0 = generate_instance("quadratic", n, seed, GenParams(kappa=kappa))
        cfg = SolverConfig(epsilon=0.01, max_iterations=2000, variant=variant)
        assert_same_run(minimize(p, x0, cfg), minimize(ValueAndGradientOnly(p), x0, cfg))

    # every line is charged what the generic line would take, so a run
    # through the quadratic's own line counts what the generic run counts,
    # plus the pair at x that the loop takes where ME and gd converge on the
    # quadratic line's drifting gradient (BB's last pair is pointwise); not
    # at kappa = 1000 or at a tight eps, where the two lines' arithmetic
    # lets the searches take different numbers of steps
    @pytest.mark.parametrize("method,variant", [
        ("me", Variant.SEMILINE_MIN), ("me", Variant.DECREASE_SEARCH),
        ("bb-long", None), ("bb-short", None), ("gd", None)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadratic_counts(self, method, variant, seed):
        requery = 0 if method.startswith("bb") else 1
        p, x0 = generate_instance("quadratic", 100, seed, GenParams(kappa=10.0))
        kwargs = {} if variant is None else {"variant": variant}
        fast, generic = (run_method(method, obj, x0, SolverConfig(epsilon=0.01, **kwargs))
                         for obj in (p, ValueAndGradientOnly(p)))
        assert (fast.iterations, fast.n_value_evals, fast.n_grad_evals) == (
            generic.iterations, generic.n_value_evals + requery, generic.n_grad_evals + requery)
        assert fast.iterates[-1].driver_evals == tuple(
            n + requery for n in generic.iterates[-1].driver_evals)
        assert_same_run(fast, generic)

    # the log-sum-exp line computes what the generic line does, so the
    # counts must match too
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n,seed", [(n, seed) for n in (50, 1000) for seed in (0, 1, 2)])
    def test_logsumexp_iterates(self, variant, n, seed):
        p, x0 = generate_instance("logsumexp", n, seed)
        cfg = SolverConfig(epsilon=1e-8, variant=variant)
        fast = minimize(p, x0, cfg)
        generic = minimize(ValueAndGradientOnly(p), x0, cfg)
        assert (fast.n_value_evals, fast.n_grad_evals) == (
            generic.n_value_evals, generic.n_grad_evals)
        assert_same_run(fast, generic)


class CallCounter:
    """Counts the objective's pointwise value and gradient calls and passes
    its line restriction through."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.calls = {"value": 0, "gradient": 0}

    def value(self, x):
        self.calls["value"] += 1
        return self.inner.value(x)

    def gradient(self, x):
        self.calls["gradient"] += 1
        return self.inner.gradient(x)

    def along(self, x, d, f, g, turns):
        return self.inner.along(x, d, f, g, turns)


class TestMatvecBudget:
    # an ellipse iteration on a quadratic takes A g and A^2 g for the level
    # line in one sweep over A's row panels; the semiline turns off the level
    # line at the chord midpoint with no product, and every value and
    # gradient along the way comes from those lines
    @pytest.mark.parametrize("variant", list(Variant))
    def test_one_pass_over_a_per_ellipse_iteration(self, variant, count_products):
        p, x0 = generate_instance("quadratic", 600, 1, GenParams(kappa=10))
        assert p.a.nbytes > 2 * objectives.PANEL_BYTES  # a sweep over three panels or more
        matrix = count_products(p)
        obj = CallCounter(p)
        run = minimize(obj, x0, SolverConfig(epsilon=1e-6, variant=variant))
        assert run.termination is Termination.CONVERGED
        assert run.iterations >= 5
        assert all(r.branch == "ellipse" for r in run.iterates[:-1])
        # the wrapper has no value_and_gradient: Ax for f and for g at the
        # start, and at x_final, where the carried gradient met epsilon
        assert matrix.passes == 4 + run.iterations
        assert obj.calls == {"value": 2, "gradient": 2}

    @pytest.mark.parametrize("variant", list(Variant))
    def test_one_product_at_the_start_point(self, variant, count_products):
        # the quadratic's own value_and_gradient gives f and g from one Ax,
        # at the start and at x_final
        p, x0 = generate_instance("quadratic", 600, 1, GenParams(kappa=10))
        matrix = count_products(p)
        run = minimize(p, x0, SolverConfig(epsilon=1e-6, variant=variant))
        assert run.termination is Termination.CONVERGED
        assert run.iterations >= 5
        assert all(r.branch == "ellipse" for r in run.iterates[:-1])
        assert matrix.passes == 2 + run.iterations



class TestVectorBudget:
    # The most n-vectors one log-sum-exp ellipse step holds at once, as
    # tracemalloc sees numpy's buffers: 11.04 under semiline-min and 9.03
    # under decrease-search, since each step vector is one new array and a
    # turn hands the line's buffers on.  At n = 10^4 the vectors dwarf every
    # other allocation; the first step from seed 0 takes the ellipse branch.
    N = 10_000

    @pytest.mark.parametrize("variant,budget", [
        (Variant.SEMILINE_MIN, 11.5), (Variant.DECREASE_SEARCH, 9.5)])
    def test_peak_of_one_step(self, variant, budget):
        p, x = generate_instance("logsumexp", self.N, 0)
        f, g = p.value(x), p.gradient(x)
        scale = run_scale(x, f, scaled_sumsq(g))
        counted = objectives.CountingObjective(p)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fields = me_step(counted, x, f, g, scaled_sumsq(g), variant, 1.0, 0, scale)[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fields["branch"] == "ellipse"
        assert (peak - before) / (8 * self.N) <= budget


class TestNearCollinearTurn:
    # g near an eigenvector of A makes grad f(y) nearly collinear with the
    # chord; the turned line's Ae then cancels between A g and A^2 g, and is
    # held to the line that takes A e as a product
    EPS = float(np.finfo(float).eps)

    @staticmethod
    def _step(kappa, sin_theta):
        """An ellipse step's frame, direction and turned line from a point
        whose gradient is an eigenvector of A but for a part of about
        ``sin_theta``; f has its minimum 0 at the origin."""
        n = 30
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
        a = (q * np.geomspace(1.0, kappa, n)) @ q.T
        p = QuadraticProblem(0.5 * (a + a.T), np.zeros(n))
        x = q[:, 0] + sin_theta / (2.0 * kappa * (kappa - 1.0)) * q[:, -1]
        g = p.gradient(x)
        t, _, line = level_step(p, x, p.value(x), g, 1.0)
        grad_y = line.gradient(t)
        frame = build_frame(g, scaled_sumsq(g), t, grad_y)
        ca, cb, _ = center_direction(frame)
        d = ca * g + cb * grad_y
        turned = line.turn(0.5 * t, x - 0.5 * t * g, d, (-(ca + cb), cb * t))
        return p, g, t, line, frame, d, turned

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("kappa", [10.0, 1000.0])
    @pytest.mark.parametrize("sin_theta", [1e-6, 1e-7])
    def test_turned_line_keeps_the_products_accuracy(self, sin_theta, kappa, variant):
        p, g, t, line, frame, d, turned = self._step(kappa, sin_theta)
        sin = frame.wnorm / np.linalg.norm(line.gradient(t))
        assert 0.5 * sin_theta <= sin <= 2.0 * sin_theta
        # the same line, with A d from a product
        mid = 0.5 * t
        product = QuadraticLine(line.value(mid), line.gradient(mid), d, p.a @ d, None)
        assert (np.linalg.norm(turned.ad - product.ad)
                <= 4.0 * self.EPS / sin * np.linalg.norm(product.ad))
        f_base = turned.value(0.0)
        v, _ = semiline_search(turned, variant, scale=frame.lam, bar=f_base,
                               slope=turned.slope(0.0), first=0)
        # decrease-search stays at the midpoint where the decrease along d is
        # below the level step's noise floor, as it is here but at kappa 10,
        # sin 1e-6
        assert v > 0.0 or variant is Variant.DECREASE_SEARCH
        # the turned line is checked at semiline-min's v, whatever the
        # variant: of order sin theta |g| / (d . Ad), which undoes the
        # 1 / sin theta, and never 0, where both checks would hold trivially
        v, _ = semiline_search(turned, Variant.SEMILINE_MIN, scale=frame.lam, bar=f_base,
                               slope=turned.slope(0.0), first=0)
        assert v > 0.0
        assert (np.linalg.norm(turned.gradient(v) - product.gradient(v))
                <= 4.0 * self.EPS * np.linalg.norm(g))
        most = product.gd ** 2 / (2.0 * product.dad)  # the largest decrease along d
        assert abs(turned.value(v) - product.value(v)) <= 4.0 * self.EPS / sin * most


class SampleLog:
    """A line that records where its values are taken."""

    def __init__(self, line):
        self.line = line
        self.at = []

    def value(self, v):
        self.at.append(v)
        return self.line.value(v)


def test_decrease_search_takes_no_sample_below_the_noise_floor(monkeypatch):
    # no sample whose first-order decrease v |s| is within the level step's
    # noise floor 32 eps |f_mid|; at eps 1e-9 on this kappa = 1000
    # quadratic the search without the floor took about 186,000 values,
    # most of them there
    eps = float(np.finfo(float).eps)
    reach = []  # v |s| over the floor, at every value decrease-search takes
    floored = 0  # searches that stopped at the floor
    search = solver.semiline_search

    def logged(line, variant, *, scale, bar, slope, first):
        nonlocal floored
        log = SampleLog(line)
        v, f_v = search(log, variant, scale=scale, bar=bar, slope=slope, first=first)
        floor = 32.0 * eps * abs(bar)
        reach.extend(u * abs(slope) / floor for u in log.at)
        # short of the halving cap: the search's last sample was its smallest
        floored += v == 0.0 and (not log.at or 0.5 * log.at[-1] * abs(slope) <= floor)
        return v, f_v

    monkeypatch.setattr(solver, "semiline_search", logged)
    p, x0 = generate_instance("quadratic", 100, 0)
    run = minimize(p, x0, SolverConfig(epsilon=1e-9, max_iterations=10_000,
                                       variant=Variant.DECREASE_SEARCH))
    assert run.termination is Termination.CONVERGED
    assert min(reach) > 1.0
    assert floored > 1000
    assert run.n_value_evals < 20_000


def test_evaluations_per_iteration_budget():
    # the level step and the semiline search are root finds on r(t)/t and on
    # the slope; with bisection and golden section they took 81.5
    # evaluations per iteration here
    p, x0 = generate_instance("logsumexp", 1000, 7)
    run = minimize(p, x0, SolverConfig(epsilon=0.01))
    assert run.termination is Termination.CONVERGED
    assert run.evaluations <= 21 * run.iterations


class TestPinnedLogSumExpRuns:
    # re-recorded when the ellipse step's direction became a g + b grad f(y),
    # and when the exponents became alpha (u u), shifted only past 500
    # (iterations and f_final kept both times), and for decrease-search when
    # it stopped sampling below the level step's noise floor (10 -> 11 iterations,
    # f_final kept), and when the first level step took its bracket from the
    # line's value and slope (iterations and f_final kept), and for
    # semiline-min when its search took the frame's slope estimate as the
    # slope at its base (iterations and f_final kept), and when the level
    # step's noise floor took the run scale for 1 + |f| and decrease-search's
    # floor |f| for it (iterations and f_final kept); a change to a search's or the frame's
    # arithmetic shows here first (the pins also hold numpy's
    # exp and log rounding on this platform); they run on the generic line,
    # whose arithmetic is the pointwise one; the ids leave the digests out,
    # so a re-pin keeps the tests' names
    @pytest.mark.parametrize("variant,iterations,digest", [
        pytest.param(Variant.SEMILINE_MIN, 9,
                     "05b754dbc23809b05dcec1571f3c9b1df7c63fab1acc5085cbfbfb32b812515c",
                     id="semiline-min"),
        pytest.param(Variant.DECREASE_SEARCH, 11,
                     "6a0bfbf38383c94c30aaa2233fa24bdf34a2d53bb1444e330e5c395e779adda6",
                     id="decrease-search"),
    ])
    def test_iterates_bit_identical(self, variant, iterations, digest):
        p, x0 = generate_instance("logsumexp", 50, 4)
        run = minimize(ValueAndGradientOnly(p), x0, SolverConfig(epsilon=1e-8, variant=variant))
        assert run.termination is Termination.CONVERGED
        assert run.iterations == iterations
        x_bytes = b"".join(r.x.tobytes() for r in run.iterates)
        assert hashlib.sha256(x_bytes).hexdigest() == digest
        assert run.f_final.hex() == "0x1.f4bd2b7ac1bafp+1"


class TestPinnedBaselineRuns:
    # on the instance TestPinnedLogSumExpRuns pins; the exact steps solve
    # for a zero slope, which stays accurate below f's rounding floor, so gd
    # reaches eps = 1e-8 too; their slope at x comes from the gradient the
    # loop already holds; values and gradients 20/24, 19/23 and 26/60 ->
    # 19/23, 18/22 and 25/59 when the stopping test kept a pointwise pair
    @pytest.mark.parametrize("method,iterations,n_value,n_grad,termination", [
        ("bb-long", 18, 19, 23, Termination.CONVERGED),
        ("bb-short", 17, 18, 22, Termination.CONVERGED),
        ("gd", 24, 25, 59, Termination.CONVERGED),
    ])
    def test_counts_and_final_value(self, method, iterations, n_value, n_grad,
                                    termination):
        p, x0 = generate_instance("logsumexp", 50, 4)
        run = run_method(method, p, x0, SolverConfig(epsilon=1e-8))
        assert run.termination is termination
        assert (run.iterations, run.n_value_evals, run.n_grad_evals) == (
            iterations, n_value, n_grad)
        assert run.f_final.hex() == "0x1.f4bd2b7ac1bafp+1"


def _pin_id(pin):
    method, variant = pin[:2]
    return method if variant is None else f"{method}-{variant.value}"


class TestPinnedFastLineRuns:
    # the objectives' own lines and pointwise pairs, unwrapped, so a change to
    # their arithmetic or to which products they take shows here; recorded
    # before the start point took one product and log-sum-exp lines took
    # their scaled directions lazily, which moved none of these bits; the
    # log-sum-exp digests re-recorded when the exponents became alpha (u u),
    # shifted only past 500, which moved no count and no f_final; the
    # decrease-search pins re-recorded when it stopped sampling below the
    # level step's noise floor (log-sum-exp 200 -> 77 values, quadratic 172
    # -> 189 iterations); the ME value counts re-recorded when the level
    # step stopped taking values in the slope regime, which moved no
    # iteration count and no f_final (one quadratic level step took the
    # slope root where its value search used to stop outside the regime);
    # the decrease-search value counts re-recorded when its search started
    # next to the last step's first success (log-sum-exp 69 -> 60,
    # quadratic 721 -> 722), which moved no iterate; every digest and the
    # quadratic f_final re-recorded when searches with no warm start took
    # their first bracket from the line's value and slope and gd's exact
    # step its tolerance from semiline-min (log-sum-exp ME values 46 -> 45
    # and 60 -> 59), which moved no iteration count; every count rose by one
    # value and one gradient, and the ME and gd quadratic f_final moved, when
    # CONVERGED was judged on f and g taken at x_final, which moved no iterate;
    # the semiline-min pins re-recorded when its search took the frame's
    # slope estimate as the slope at its base (gradients 59 -> 47 and
    # 784 -> 597), which moved the quadratic f_final but no iteration count;
    # the log-sum-exp and BB counts fell back by one value and one gradient
    # when the stopping test kept a pointwise line's or BB's pair (46/47 ->
    # 45/46, 60/32 -> 59/31, 113/114 -> 112/113, 99/100 -> 98/99), which
    # moved no iterate and no f_final; the ME pins re-recorded when the level
    # step's noise floor took the run scale for 1 + |f| and decrease-search's
    # floor |f| for it (log-sum-exp 45/46 -> 42/47 and 59/31 -> 57/32,
    # quadratic semiline-min 682/597 -> 612/632, decrease-search 189 -> 168
    # iterations and 723/427 -> 638/397), which moved the decrease-search
    # quadratic f_final by one unit in the last place; the semiline-min value
    # counts fell by one a step when its ellipse steps stopped taking f at the
    # chord midpoint (log-sum-exp 42 -> 31, quadratic 612 -> 425), which moved
    # no iterate and no f_final
    LSE = [
        ("me", Variant.SEMILINE_MIN, 11, 31, 47, "0x1.ba18a998fffa0p+2",
         "ee38acdd8b1c4a81759c6a76063c7ecd11ae132181a439734ce31dc556f9335b"),
        ("me", Variant.DECREASE_SEARCH, 13, 57, 32, "0x1.ba18a998fffa0p+2",
         "2d083c31640cfa78fd2dd430e96b3339bc0ea80c375bfdaeba6c7c64efe6c067"),
    ]
    QUADRATIC = [
        ("me", Variant.SEMILINE_MIN, 187, 425, 632, "-0x1.3c6fc01a41632p+4",
         "a8bae379ed73ff20da09b09ab9112eacce6752278db8a82917d2df0decc2c852"),
        ("me", Variant.DECREASE_SEARCH, 168, 638, 397, "-0x1.3c6fc01a4160ep+4",
         "6a8b76c2f9799bb1a4bc295de728d141afba7225e60692271cfb89e939254ed5"),
        ("bb-long", None, 111, 112, 113, "-0x1.3c6fc01a41653p+4",
         "64bbe0f02a6802651961ef6668ca406f6f820935fbba5eb269d976510b692a77"),
        ("bb-short", None, 97, 98, 99, "-0x1.3c6fc01a41633p+4",
         "38b4ccff6d5ced0531bc2b4faba6f061b1a2261cdf5203eac2474b2c8d055906"),
        ("gd", None, 699, 701, 1400, "-0x1.3c6fc01a41604p+4",
         "b1b430bced7a673205b1d22936515487ab54b765fb8322d646314d158397c38c"),
    ]

    @staticmethod
    def _check(problem, x0, epsilon, pin):
        method, variant, iterations, n_value, n_grad, f_final, digest = pin
        kwargs = {} if variant is None else {"variant": variant}
        run = run_method(method, problem, x0, SolverConfig(epsilon, **kwargs))
        assert run.termination is Termination.CONVERGED
        assert (run.iterations, run.n_value_evals, run.n_grad_evals) == (
            iterations, n_value, n_grad)
        assert run.f_final.hex() == f_final
        x_bytes = b"".join(r.x.tobytes() for r in run.iterates)
        assert hashlib.sha256(x_bytes).hexdigest() == digest

    @pytest.mark.parametrize("pin", LSE, ids=_pin_id)
    def test_logsumexp(self, pin):
        self._check(*generate_instance("logsumexp", 1000, 7), 1e-8, pin)

    @pytest.mark.parametrize("pin", QUADRATIC, ids=_pin_id)
    def test_quadratic(self, pin):
        self._check(*generate_instance("quadratic", 200, 3, GenParams(kappa=100)), 1e-6, pin)


class InfiniteAtStart:
    """x.x everywhere except at the start point, where it is +inf."""

    dimension = 2

    def __init__(self, x0):
        self.x0 = x0

    def value(self, x):
        return float("inf") if np.array_equal(x, self.x0) else float(x @ x)

    def gradient(self, x):
        return 2.0 * np.asarray(x)


class TestMinimize:
    def test_nonfinite_start_value_named(self):
        x0 = np.array([1.0, -2.0])
        run = minimize(InfiniteAtStart(x0), x0)
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message == "non-finite objective value"
        assert run.iterations == 0

    def test_stationary_start_reports_zero_iterations(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        run = minimize(p, np.array([1e-8, 0.0]))
        assert run.termination is Termination.CONVERGED
        assert run.iterations == 0
        assert len(run.iterates) == 1

    def test_two_dimensional_newton_equivalence(self):
        for seed in range(20):
            p, x0 = generate_instance("quadratic", 2, seed, GenParams(kappa=50))
            run = minimize(p, x0, SolverConfig(epsilon=1e-8, max_iterations=4))
            assert run.termination is Termination.CONVERGED
            assert run.iterations <= 2
            first_ellipse = next(k for k, r in enumerate(run.iterates[:-1])
                                 if r.branch == "ellipse")
            xs = np.linalg.solve(p.a, p.b)
            assert np.linalg.norm(run.iterates[first_ellipse + 1].x - xs) <= 1e-8

    def test_quadratic_convergence_and_distance_bound(self):
        p, x0 = generate_instance("quadratic", 100, 0, GenParams(kappa=1000))
        run = minimize(p, x0, SolverConfig(epsilon=0.01, max_iterations=2000))
        assert run.termination is Termination.CONVERGED
        values = [r.f for r in run.iterates]
        assert all(b < a for a, b in zip(values, values[1:]))
        xs = p.solution()
        assert np.linalg.norm(run.x_final - xs) <= run.grad_norm_final / p.mu + 1e-8

    def test_logsumexp_converges_with_sandwich_descent(self):
        p, x0 = generate_instance("logsumexp", 50, 4)
        run = minimize(p, x0)
        assert run.termination is Termination.CONVERGED
        f_start = run.iterates[0].f
        for rec, nxt in zip(run.iterates[:-1], run.iterates[1:]):
            assert rec.branch in ("ellipse", "midpoint")
            f_mid = chord_midpoint_value(p, rec)
            assert nxt.f <= f_mid + 1e-12 * (1.0 + abs(rec.f))
            assert f_mid <= rec.f
            assert rec.f <= f_start  # level-set containment
            gain = p.mu * rec.t**2 / 8.0 * rec.grad_norm**2
            assert f_mid <= rec.f - gain + 1e-9 * (1.0 + abs(rec.f))

    def test_decrease_search_variant_converges(self):
        p, x0 = generate_instance("logsumexp", 30, 6)
        run = minimize(p, x0, SolverConfig(variant=Variant.DECREASE_SEARCH))
        assert run.termination is Termination.CONVERGED
        values = [r.f for r in run.iterates]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_max_iterations_reported(self):
        p, x0 = generate_instance("quadratic", 20, 2, GenParams(kappa=1000))
        run = minimize(p, x0, SolverConfig(epsilon=1e-6, max_iterations=3))
        assert run.termination is Termination.MAX_ITERATIONS
        assert run.iterations == 3

    def test_evaluation_counters_track_work(self):
        p, x0 = generate_instance("quadratic", 10, 5, GenParams(kappa=10))
        run = minimize(p, x0)
        assert run.n_grad_evals >= run.iterations + 1
        assert run.n_value_evals > run.iterations  # level step + line search work
        assert run.evaluations == run.n_value_evals + run.n_grad_evals

    def test_trace_records_steps(self):
        p, x0 = generate_instance("quadratic", 6, 9, GenParams(kappa=10))
        run = minimize(p, x0)
        for rec in run.iterates[:-1]:
            assert rec.t > 0.0
            assert rec.branch in ("ellipse", "midpoint")
        assert run.iterates[-1].branch == "final"
        assert np.isnan(run.iterates[-1].t)

    @pytest.mark.parametrize("finite_calls,iterations", [(0, 0), (5, 1)])
    def test_nonfinite_gradient_named(self, finite_calls, iterations):
        # at the start, and after a step: the first step takes four calls (x0,
        # the level point and two search slopes), the second step's level
        # point the fifth, so its search's first slope is NaN
        p, x0 = generate_instance("quadratic", 10, 1, GenParams(kappa=100))
        run = minimize(NaNGradientAfter(p, finite_calls), x0)
        assert run.termination is Termination.NUMERIC_ERROR
        assert run.message == "non-finite gradient"
        assert run.iterations == iterations


@pytest.mark.parametrize("method", ["me", "bb-long", "bb-short", "gd"])
@pytest.mark.parametrize("epsilon,max_iterations",
                         [(0.0, 50), (-1.0, 50), (float("nan"), 50), (0.01, 0),
                          (0.01, float("nan")), (0.01, float("inf")), (0.01, 2.5), (0.01, True)])
def test_stopping_rule_validated(method, epsilon, max_iterations):
    # one SolverConfig checks the stopping rule for every method; a cap that
    # is not an integer would allow 3 iterations at 2.5, and never bind at
    # NaN or inf
    p, x0 = generate_instance("quadratic", 6, 1, GenParams(kappa=10))
    with pytest.raises(ValueError):
        run_method(method, p, x0, SolverConfig(epsilon, max_iterations))


def _run_key(run):
    return run.iterations, run.n_value_evals, run.n_grad_evals, run.f_final


@pytest.mark.parametrize("variant", list(Variant))
def test_variant_given_by_name_runs_that_variant(variant):
    p, x0 = generate_instance("logsumexp", 50, 1)
    runs = {v: _run_key(minimize(p, x0, SolverConfig(epsilon=1e-6, variant=v)))
            for v in Variant}
    assert runs[Variant.SEMILINE_MIN] != runs[Variant.DECREASE_SEARCH]
    cfg = SolverConfig(epsilon=1e-6, variant=variant.value)
    assert cfg.variant is variant
    assert _run_key(minimize(p, x0, cfg)) == runs[variant]
    assert _run_key(run_method("me", p, x0, cfg)) == runs[variant]


def test_unknown_variant_name_is_rejected():
    with pytest.raises(ValueError):
        SolverConfig(variant="golden-section")


@pytest.mark.parametrize("settings,message", [
    *[(dict(epsilon=bad), "stopping tolerance must be positive")
      for bad in (0.0, -1.0, float("nan"))],
    (dict(max_iterations=0), "need at least one iteration"),
], ids=["epsilon-zero", "epsilon-negative", "epsilon-nan", "max-iterations-zero"])
def test_bad_stopping_rule_rejected_when_built(settings, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverConfig(**settings)


def _raising_gradient(x):
    raise NumericError("gradient overflow")


@pytest.mark.parametrize("method", ["me", "bb-long", "bb-short", "gd"])
@pytest.mark.parametrize("problem,x0,f,message", [
    (LogSumExpProblem(np.ones(5), np.ones(5)), 1e200 * np.ones(5), np.nan,
     "log-sum-exp value is not finite despite shifting"),
    (Toy(lambda x: float(x @ x), _raising_gradient), np.array([1.0, 2.0]), 5.0,
     "gradient overflow"),
], ids=["value-raises", "gradient-raises"])
@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_numeric_error_at_the_start_ends_the_run(method, problem, x0, f, message):
    # the terminal record sits at x0, NaN where nothing was evaluated
    run = run_method(method, problem, x0)
    assert run.termination is Termination.NUMERIC_ERROR
    assert run.message == message
    assert run.iterations == 0
    final = run.iterates[-1]
    assert np.array_equal(final.x, x0)
    assert np.array_equal([final.f, final.grad_norm], [f, np.nan], equal_nan=True)


# f = ln(e^(u1^2) + e^(u2^2)) + u1^2 + 1e14 u2^2 is ruled by u1 at x0 = (1e150,
# 1e138) and |grad f|^2 by u2, so the first bracket 4 |f| / |grad f|^2, about
# 1e-4, moves u2 to about -2e148, where f overflows; f and grad f at x0 do not
STEEP_SECOND_AXIS = LogSumExpProblem(np.ones(2), np.array([1.0, 1e14]))


@pytest.mark.parametrize("generic", [False, True], ids=["own-line", "generic-line"])
@pytest.mark.filterwarnings("ignore:overflow")
def test_overflow_along_the_first_line_ends_the_run(generic):
    obj = ValueAndGradientOnly(STEEP_SECOND_AXIS) if generic else STEEP_SECOND_AXIS
    run = minimize(obj, np.array([1e150, 1e138]))
    assert run.termination is Termination.NUMERIC_ERROR
    assert run.message == "log-sum-exp value is not finite despite shifting"
    assert run.iterations == 0


@pytest.mark.parametrize("obj,x0", [
    # max |g_i| = 1.2e154: |g|^2 overflows, |g| = 1.4e154 does not
    (LogSumExpProblem(np.ones(5), np.ones(5)), 2e153 * np.linspace(0.5, 1.5, 5)),
    # g = (1.5e308, 1.5e308) is finite, |g| is not
    (Toy(lambda x: 7.5e307 * float(x @ x), lambda x: 1.5e308 * x), np.ones(2)),
], ids=["square-overflows", "norm-overflows"])
@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_finite_gradient_with_an_overflowing_norm_is_no_error(obj, x0):
    # f and every entry of g are finite, so the run goes on
    run = minimize(obj, x0)
    assert run.iterates[0].grad_norm == pytest.approx(math.hypot(*obj.gradient(x0)), rel=1e-14)
    assert run.termination is Termination.CONVERGED


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("seed", range(4))
def test_a_start_where_f_is_zero_converges(seed, variant):
    # log-sum-exp shifted so that f(x0) = 0: the run scale's |g(x0)| |x0|
    # gives the level step a noise floor there; from |f(x0)| alone it had
    # none, and seeds 1 and 2 ended "level-step refinement stalled"
    p, x0 = generate_instance("logsumexp", 30, seed)
    run = minimize(Transformed(p, shift=-p.value(x0)), x0,
                   SolverConfig(epsilon=1e-8, variant=variant))
    assert run.iterates[0].f == 0.0
    assert run.termination is Termination.CONVERGED


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("generic", [False, True], ids=["own-line", "generic-line"])
def test_a_quadratic_from_the_origin_converges(generic, variant):
    # f(0) = 0 and x0 = 0, so the run scale is 0 and the first level step
    # has no noise floor; the search still lands on the level
    p, _ = generate_instance("quadratic", 30, 0, GenParams(kappa=100.0))
    run = minimize(ValueAndGradientOnly(p) if generic else p, np.zeros(30),
                   SolverConfig(epsilon=1e-6, variant=variant))
    assert run.termination is Termination.CONVERGED


def test_converged_is_judged_on_a_gradient_taken_at_x():
    # a step that carries a zero gradient to its point: the loop takes f and
    # g at x before it reports CONVERGED, and goes on from them while they
    # miss epsilon, here until |x| = 2^-4 sqrt 2 <= 0.1
    p = QuadraticProblem(np.eye(2), np.zeros(2))

    def halve(counted, x, f, g, g_sumsq):
        return 0.5 * x, f, np.zeros(2), {}

    run = solver.descend(p, np.ones(2), halve, SolverConfig(epsilon=0.1))
    assert run.termination is Termination.CONVERGED
    assert run.iterations == 4
    assert run.grad_norm_final == np.linalg.norm(p.gradient(run.x_final))
    assert run.f_final == p.value(run.x_final)
    assert (run.n_value_evals, run.n_grad_evals) == (5, 5)  # the start and 4 checks


def test_converged_means_the_true_gradient_meets_epsilon():
    # at kappa 1e4 the gradient carried along quadratic lines drifts from
    # A x - b; judged on it, this run stopped at |A x - b| = 1.0143 eps
    p, x0 = generate_instance("quadratic", 100, 0, GenParams(kappa=1e4))
    run = minimize(p, x0, SolverConfig(epsilon=1e-9, max_iterations=100_000))
    assert run.termination is Termination.CONVERGED
    a, b = p.a.astype(np.longdouble), p.b.astype(np.longdouble)
    residual = a @ run.x_final.astype(np.longdouble) - b
    assert float(np.sqrt(residual @ residual)) <= 1e-9


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_frame_products_keep_the_ellipse_step(variant):
    # at the first level point |g|^2 and |grad f(y)|^2 overflow; taken over
    # rescaled vectors the frame has cos theta = 0.889 and sin theta = 0.458,
    # an ordinary ellipse step, not a tangential gradient
    p = LogSumExpProblem(np.ones(5), np.ones(5))
    run = minimize(p, 2e153 * np.linspace(0.5, 1.5, 5), SolverConfig(variant=variant))
    assert run.iterates[0].branch == "ellipse"
    assert run.termination is Termination.CONVERGED


@pytest.mark.parametrize("variant", list(Variant))
def test_level_step_below_float_resolution_ends_the_run(variant, monkeypatch):
    # a step so short that the midpoint x - (t/2) g rounds onto x
    def shrunk(*args, **kwargs):
        t, r = find_level_step(*args, **kwargs)
        return 1e-30 * t, r

    monkeypatch.setattr(solver, "find_level_step", shrunk)
    p, x0 = generate_instance("quadratic", 6, 1, GenParams(kappa=10))
    run = minimize(p, x0, SolverConfig(variant=variant, max_iterations=50))
    assert run.termination is Termination.NUMERIC_ERROR
    assert run.message == "the level step collapsed onto x below float resolution"
    assert run.iterations == 0


@pytest.mark.parametrize("variant", list(Variant))
def test_a_midpoint_that_moves_only_later_entries_is_no_collapse(variant):
    # entry 0 moves by 1e-12, which rounds away at 1e6; entry 1 moves by 1
    p = QuadraticProblem(np.diag([1e-18, 1.0]), np.zeros(2))
    x0 = np.array([1e6, 1.0])
    run = minimize(p, x0, SolverConfig(variant=variant))
    assert run.termination is Termination.CONVERGED
    assert run.iterates[0].branch == "midpoint"  # so the next point is the midpoint
    midpoint = run.iterates[1].x
    assert midpoint[0] == x0[0] and midpoint[1] != x0[1]


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("kind", list(RAY_GRADIENTS))
def test_level_line_runs_along_g_over_minus_s_bit_for_bit(kind, monkeypatch):
    g = RAY_GRADIENTS[kind]
    down = first_ray_direction(monkeypatch, solver, minimize, g)
    _, s = scaled_sumsq(g)
    assert (s == 1.0) == (kind != "overflowing")
    assert down.tobytes() == (g / -s).tobytes()


def test_infinite_gradient_entry_named():
    run = minimize(Toy(lambda x: float(x @ x), lambda x: np.array([np.inf, 0.0])),
                   np.array([1.0, 2.0]))
    assert run.termination is Termination.NUMERIC_ERROR
    assert run.message == "non-finite gradient"
    assert run.iterations == 0


@pytest.mark.parametrize("method,y", [("bb-long", 0.2), ("gd", 0.3)], ids=["bb-long", "gd"])
@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_slope_of_a_finite_gradient_is_no_error(method, y, monkeypatch):
    # from x0 = 1e153 (1, y) an exact step queries a point where the generic
    # line's slope, a dot product, overflows; its gradient is finite, so the
    # exact step goes on and the run converges
    p = LogSumExpProblem(np.ones(2), np.array([1.0, 30.0]))
    x0 = 1e153 * np.array([1.0, y])
    slope, overflows = objectives.RayLine.slope, []

    def spy(line, t):
        overflows.append(not math.isfinite(s := slope(line, t)))
        return s

    monkeypatch.setattr(objectives.RayLine, "slope", spy)
    own = run_method(method, p, x0)
    generic = run_method(method, ValueAndGradientOnly(p), x0)
    assert any(overflows)
    assert own.termination is generic.termination is Termination.CONVERGED
    assert (own.iterations, own.n_value_evals, own.n_grad_evals) == (
        generic.iterations, generic.n_value_evals, generic.n_grad_evals)


@pytest.mark.parametrize("method", ["me", "bb-long", "bb-short", "gd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_start_point_rejected(method, bad):
    p, x0 = generate_instance("quadratic", 6, 1, GenParams(kappa=10))
    x0[2] = bad
    with pytest.raises(ValueError, match="initial point must be finite"):
        run_method(method, p, x0)


METHODS = [("me", Variant.SEMILINE_MIN), ("me", Variant.DECREASE_SEARCH),
           ("gd", None), ("bb-long", None), ("bb-short", None)]


def _spied_run(monkeypatch, method, variant, obj, x0, epsilon):
    """The run of ``method`` and, per step, (scale s of g_sumsq, x_next,
    f_next, g_next, branch, whether the step says its pair is pointwise)."""
    steps, descend = [], solver.descend

    def spying(o, x, step, cfg):
        def spied(counted, x, f, g, g_sumsq):
            x_next, f_next, g_next, fields = step(counted, x, f, g, g_sumsq)
            steps.append((g_sumsq[1], x_next.copy(), f_next, g_next.copy(), fields.get("branch"),
                          fields.get("pointwise", False)))
            return x_next, f_next, g_next, fields
        return descend(o, x, spied, cfg)

    monkeypatch.setattr(solver, "descend", spying)
    monkeypatch.setattr(baselines, "descend", spying)
    kwargs = {} if variant is None else {"variant": variant}
    return run_method(method, obj, x0, SolverConfig(epsilon, **kwargs)), steps


def _axis_logsumexp():
    p, _ = generate_instance("logsumexp", 10, 3)
    return p, np.eye(10)[0] * 1.5


def _generic(problem_and_start):
    """The problem behind the generic line, and its start."""
    p, x0 = problem_and_start
    return ValueAndGradientOnly(p), x0


class TestPointwiseClaim:
    # a step that says its pair is pointwise skips the pair at x before
    # CONVERGED, so wherever it says so the pair must be value(x_next) and
    # gradient(x_next) bit for bit, asked of the objective uncounted
    CASES = {
        "logsumexp-line": lambda: generate_instance("logsumexp", 50, 4),
        "logsumexp-generic": lambda: _generic(generate_instance("logsumexp", 30, 2)),
        "quadratic-generic": lambda: _generic(
            generate_instance("quadratic", 30, 2, GenParams(kappa=100))),
        "logistic-generic": lambda: (p := Logistic(60, 20, 1e-2, 0), p.x0),
        # the midpoint branch, with |g|^2 finite (s = 1)
        "midpoint-line": _axis_logsumexp,
        "midpoint-generic": lambda: _generic(_axis_logsumexp()),
        # |g|^2 overflows at the start (s != 1); ME takes ellipse steps there
        "overflow-line": lambda: (LogSumExpProblem(np.ones(5), np.ones(5)),
                                  2e153 * np.linspace(0.5, 1.5, 5)),
    }

    @pytest.mark.parametrize("method,variant", METHODS, ids=map(_pin_id, METHODS))
    @pytest.mark.parametrize("case", [
        pytest.param(case, marks=pytest.mark.filterwarnings("ignore:overflow"))
        if case.startswith("overflow") else case for case in CASES])
    def test_a_claimed_pair_is_the_pair_at_x(self, monkeypatch, case, method, variant):
        obj, x0 = self.CASES[case]()
        run, steps = _spied_run(monkeypatch, method, variant, obj, x0, 1e-6)
        assert run.termination is Termination.CONVERGED
        for s, x_next, f_next, g_next, branch, claimed in steps:
            # every line here is pointwise; the midpoint's point is the level
            # line's only where s = 1
            assert claimed == (branch != "midpoint" or s == 1.0)
            if claimed:
                assert float(obj.value(x_next)).hex() == float(f_next).hex()
                assert obj.gradient(x_next).tobytes() == g_next.tobytes()
        # the terminal record's driver pair is the re-query, or nothing
        assert run.iterates[-1].driver_evals == ((0, 0) if steps[-1][-1] else (1, 1))
        first_s, *_, first_branch, _ = steps[0]
        if case.startswith("midpoint") and method == "me":
            assert first_branch == "midpoint"
        if case == "overflow-line":
            assert first_s != 1.0

    @pytest.mark.parametrize("method,variant", METHODS, ids=map(_pin_id, METHODS))
    def test_the_quadratic_line_gets_the_requery(self, monkeypatch, method, variant):
        # its gradient g0 + t Ad drifts, so only BB's spectral steps, whose
        # pair is pointwise, skip the pair at x
        p, x0 = generate_instance("quadratic", 30, 2, GenParams(kappa=100))
        run, steps = _spied_run(monkeypatch, method, variant, p, x0, 1e-6)
        assert run.termination is Termination.CONVERGED
        assert [claimed for *_, claimed in steps] == [
            i > 0 and method.startswith("bb") for i in range(len(steps))]
        requery = (0, 0) if method.startswith("bb") else (1, 1)
        assert run.iterates[-1].driver_evals == requery

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_midpoint_claims_where_the_gradient_square_overflows(self):
        # f = 0.5 L |x|^2, L = 1e300, from 1e-131 (3, 4): g is collinear with
        # the chord, so the step takes the midpoint; |g|^2 overflows, and the
        # midpoint is the level line's own point x + (g / -s)(u / 2), so its
        # pair is the pointwise one bit for bit (x - (t / 2) g was not)
        toy = Toy(lambda x: 0.5e300 * float(x @ x), lambda x: 1e300 * x)
        x = 1e-131 * np.array([3.0, 4.0])
        f, g = toy.value(x), toy.gradient(x)
        x_next, f_next, g_next, fields = me_step(
            objectives.CountingObjective(toy), x, f, g, scaled_sumsq(g),
            Variant.SEMILINE_MIN, math.nan, 0, run_scale(x, f, scaled_sumsq(g)))
        assert fields["branch"] == "midpoint" and scaled_sumsq(g)[1] != 1.0
        assert fields["pointwise"] is True
        assert toy.value(x_next) == f_next
        assert np.array_equal(toy.gradient(x_next), g_next)

    def test_a_step_that_says_nothing_gets_the_requery(self):
        # the same pointwise steps, said and unsaid: only the unsaid run
        # takes the pair at x_final again
        p = QuadraticProblem(np.eye(2), np.zeros(2))

        def halve(says):
            def step(counted, x, f, g, g_sumsq):
                x_next = 0.5 * x
                return (x_next, *counted.value_and_gradient(x_next), dict(says))
            return step

        said, unsaid = (solver.descend(p, np.ones(2), halve(says), SolverConfig(epsilon=0.1))
                        for says in ({"pointwise": True}, {}))
        assert said.iterations == unsaid.iterations == 4
        assert np.array_equal(said.x_final, unsaid.x_final)
        assert said.iterates[-1].driver_evals == (0, 0)
        assert unsaid.iterates[-1].driver_evals == (1, 1)

    def test_a_line_that_says_nothing_drifts(self):
        # a user's own along whose lines carry no pointwise attribute
        p, x0 = generate_instance("logsumexp", 30, 2)

        class SilentLines:
            dimension = p.dimension
            value, gradient = p.value, p.gradient

            def along(self, x, d, f, g, turns):
                line = p.along(x, d, f, g, turns)
                return SimpleNamespace(value=line.value, slope=line.slope,
                                       gradient=line.gradient)

        cfg = SolverConfig(epsilon=1e-6)
        silent, own = (run_method("gd", obj, x0, cfg) for obj in (SilentLines(), p))
        assert silent.iterations == own.iterations
        assert np.array_equal(silent.x_final, own.x_final)
        assert own.iterates[-1].driver_evals == (0, 0)
        assert silent.iterates[-1].driver_evals == (1, 1)
