import math

import numpy as np
import pytest

from ellipcenters import NumericError, QuadraticProblem, Variant, linesearch
from ellipcenters.levelstep import find_level_step
from ellipcenters.linesearch import MAX_EXPANSIONS, find_root, minimize_on_ray
from ellipcenters.objectives import CountingObjective
from ellipcenters.solver import semiline_search


class ScalarLine:
    """A line from a scalar function and its derivative, counting slopes."""

    def __init__(self, h, dh):
        self.h = h
        self.dh = dh
        self.slopes = 0

    def value(self, v):
        return self.h(v)

    def slope(self, v):
        self.slopes += 1
        return self.dh(v)


def test_shifted_parabola_vertex():
    line = ScalarLine(lambda v: (v - 0.7) ** 2 + 1.0, lambda v: 2.0 * (v - 0.7))
    v, hv = minimize_on_ray(line, v0=1.0, h0=line.value(0.0), s0=line.slope(0.0))
    assert v == pytest.approx(0.7, abs=1e-8)
    assert hv == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("c", [0.0, 1e20], ids=["value-path", "slope-path"])
def test_both_searches_take_one_bare_line(c):
    # one object with only value and slope serves both ray searches: on
    # h = (v - 1)^2 / 2 + c the level step lands on the mirror point v = 2 and
    # the minimum search on v = 1.  At c = 1e20 the dip is below the rounding
    # of h, so the level step takes its slope path and reads no residual
    line = ScalarLine(lambda v: 0.5 * (v - 1.0) ** 2 + c, lambda v: v - 1.0)
    h0, s0 = line.value(0.0), line.slope(0.0)
    t, r = find_level_step(line, 1.0, h0=h0, s0=s0, scale=0.0)
    assert t == pytest.approx(2.0, rel=1e-9)
    assert math.isnan(r) == (c > 0.0)
    v, hv = minimize_on_ray(line, v0=math.nan, h0=h0, s0=s0)
    assert v == pytest.approx(1.0, rel=1e-8)
    assert hv == pytest.approx(c, abs=1e-12)


def test_increasing_function_stays_at_origin():
    line = ScalarLine(lambda v: v * v + v, lambda v: 2.0 * v + 1.0)
    v, hv = minimize_on_ray(line, v0=1.0, h0=line.value(0.0), s0=line.slope(0.0))
    assert v == 0.0 and hv == 0.0
    assert line.slopes == 1


class RefusesTheBase(ScalarLine):
    """A line that raises on any query at v = 0, where its caller holds the answers."""

    def value(self, v):
        assert v != 0.0, "value asked at v = 0"
        return super().value(v)

    def slope(self, v):
        assert v != 0.0, "slope asked at v = 0"
        return super().slope(v)


@pytest.mark.parametrize("h,dh,argmin", [
    (lambda v: (v - 0.7) ** 2 + 1.0, lambda v: 2.0 * (v - 0.7), 0.7),
    (lambda v: v * v + v, lambda v: 2.0 * v + 1.0, 0.0),
], ids=["descends", "ascends"])
def test_search_asks_nothing_at_the_base(h, dh, argmin):
    # the caller hands in the value and the slope at 0
    line = RefusesTheBase(h, dh)
    v, hv = minimize_on_ray(line, v0=1.0, h0=h(0.0), s0=dh(0.0))
    assert v == pytest.approx(argmin, abs=1e-8)
    assert hv == h(v)


class LogsTheBase(ScalarLine):
    """A line that logs each query at v = 0, where its caller holds the answers."""

    def __init__(self, h, dh):
        super().__init__(h, dh)
        self.at_base = []

    def value(self, v):
        if v == 0.0:
            self.at_base.append("value")
        return super().value(v)

    def slope(self, v):
        if v == 0.0:
            self.at_base.append("slope")
        return super().slope(v)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("h,dh,argmin", [
    (lambda v: (v - 0.7) ** 2 + 1.0, lambda v: 2.0 * (v - 0.7), 0.7),
    (lambda v: v * v + v, lambda v: 2.0 * v + 1.0, 0.0),
], ids=["descends", "ascends"])
def test_semiline_search_asks_nothing_at_the_base(h, dh, argmin, variant):
    # semiline-min takes its slope at 0 from the caller as decrease-search
    # does, so no search queries its own base but semiline-min's fallback:
    # where the slope handed in is not negative it takes the base's value
    line = LogsTheBase(h, dh)
    v, hv = semiline_search(line, variant, scale=1.0, bar=h(0.0), slope=dh(0.0), first=0)
    assert hv == h(v) and hv <= h(0.0)
    falls_back = variant is Variant.SEMILINE_MIN and dh(0.0) >= 0.0
    assert line.at_base == (["value"] if falls_back else [])
    if variant is Variant.SEMILINE_MIN:
        assert v == pytest.approx(argmin, abs=1e-8)


class CountsQueries(ScalarLine):
    """A line that counts its values and slopes together."""

    def __init__(self, h, dh):
        super().__init__(h, dh)
        self.queries = 0

    def value(self, v):
        self.queries += 1
        return super().value(v)

    def slope(self, v):
        self.queries += 1
        return super().slope(v)


@pytest.mark.parametrize("v0", [1e-3, 1.0, 1e6, math.nan])
@pytest.mark.parametrize("c", [1.0, 1e-3])
def test_negative_slope_estimate_on_a_rising_line(c, v0):
    # semiline-min's slope at 0 is the frame's estimate, always negative; on
    # a line that rises from 0 (true slope c >= 0) phi never turns negative,
    # so the bracket's low end stays at 0 and its high end shrinks to the
    # least subnormal, the float floor: about 1000 queries, bounded here
    def h(v):
        return c * v + 0.5 * v * v

    line = CountsQueries(h, lambda v: c + v)
    v, hv = minimize_on_ray(line, v0, h0=0.0, s0=-1.0)
    assert v <= math.ulp(0.0) and hv == h(v)  # c v above h0, below float resolution
    assert line.queries <= 1100
    line = CountsQueries(h, lambda v: c + v)
    v, hv = semiline_search(line, Variant.SEMILINE_MIN, scale=v0, bar=0.0, slope=-1.0,
                            first=0)
    assert v <= math.ulp(0.0) and hv <= 0.0
    assert line.queries <= 1100


def test_nonquadratic_convex():
    # exp(v) - 2v has its minimum at ln 2
    line = ScalarLine(lambda v: math.exp(v) - 2.0 * v, lambda v: math.exp(v) - 2.0)
    v, _ = minimize_on_ray(line, v0=0.1, h0=line.value(0.0), s0=line.slope(0.0))
    assert v == pytest.approx(math.log(2.0), abs=1e-8)


def test_far_minimum_found_by_doubling():
    line = ScalarLine(lambda v: (v - 300.0) ** 2, lambda v: 2.0 * (v - 300.0))
    v, _ = minimize_on_ray(line, v0=1.0, h0=line.value(0.0), s0=line.slope(0.0))
    assert v == pytest.approx(300.0, rel=1e-8)


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(linesearch, "MAX_EVALS", 10)
    line = ScalarLine(lambda v: (v - 1e9) ** 2, lambda v: 2.0 * (v - 1e9))
    with pytest.raises(NumericError, match="budget"):
        minimize_on_ray(line, v0=1e-6, h0=line.value(0.0), s0=line.slope(0.0))
    assert line.slopes == 1 + 10  # the slope at 0, then the kernel's budget


def test_nan_raises():
    line = ScalarLine(lambda v: -v, lambda v: -1.0 if v == 0.0 else float("nan"))
    with pytest.raises(NumericError, match="^non-finite gradient$"):
        minimize_on_ray(line, v0=1.0, h0=line.value(0.0), s0=line.slope(0.0))


def test_nan_slope_at_the_origin_stays_there():
    # the caller's own gradient check names it
    line = ScalarLine(lambda v: 1.0, lambda v: float("nan"))
    assert minimize_on_ray(line, v0=1.0, h0=1.0, s0=line.slope(0.0)) == (0.0, 1.0)


def test_unbounded_ray_named_within_the_expansion_cap():
    line = ScalarLine(lambda v: -v, lambda v: -1.0)
    with pytest.raises(NumericError, match=(
            "^the objective looks unbounded below along the ray: the search still descended "
            f"after {MAX_EXPANSIONS} bracket expansions$")):
        minimize_on_ray(line, v0=1.0, h0=line.value(0.0), s0=line.slope(0.0))
    assert line.slopes == 1 + 1 + MAX_EXPANSIONS


def test_collapsed_bracket_returns_the_last_point_evaluated():
    # a unit step at c never meets ftol = 0, so each search ends when no
    # float lies between the bracket ends; the midpoint of the last pair
    # rounds onto one of them, which need not be the point phi was last
    # evaluated at (141 of these 200 searches returned phi at the other end;
    # c = 0.9 returned 0.8999999999999999 with phi = 1)
    for c in np.linspace(0.1, 0.9, 200).tolist():
        seen = []

        def phi(t):
            seen.append(t)
            return 1.0 if t >= c else -1.0

        t, f = find_root(phi, -1.0, 1.0, ftol=0.0, xtol=0.0)
        assert (t, f) == (seen[-1], phi(t)), c
        assert math.nextafter(t, 0.0) < c <= math.nextafter(t, 2.0)


@pytest.mark.parametrize("start", [0.6, 1.0, 1.7, 50.0])
def test_quadratic_line_lands_on_the_closed_form(start):
    # the slope of a parabola is affine, so the first secant step, between
    # v = 0 and v0 or extrapolated past v0 (by at most a doubling), is the
    # closed-form minimizer -slope(0) / <d, Ad>
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6))
    p = QuadraticProblem(m @ m.T + 6.0 * np.eye(6), rng.standard_normal(6))
    x, d = rng.standard_normal(6), rng.standard_normal(6)
    d *= -np.sign(p.gradient(x) @ d)  # a descent direction
    counted = CountingObjective(p)
    line = counted.along(x, d, p.value(x), p.gradient(x), False)
    exact = -line.line.gd / line.line.dad
    v, _ = minimize_on_ray(line, v0=start * exact, h0=p.value(x), s0=float(p.gradient(x) @ d))
    assert v == pytest.approx(exact, rel=1e-12)
    assert counted.n_grad <= 3 and counted.n_value == 1


class TestAgainstScipy:
    # scipy is a test-only reference: the package never imports it
    @pytest.mark.parametrize("phi,t0", [
        (lambda t: t**3 - 2.0, 1.0),
        (lambda t: math.exp(t) - 5.0, 0.1),
        (lambda t: math.atan(t - 3.0), 0.5),
        (lambda t: t - 1e-3 / (t + 1e-9), 10.0),
        (lambda t: math.log1p(t) - 0.01, 100.0),
    ], ids=["cubic", "exp", "atan", "pole", "log"])
    def test_root_matches_brentq(self, phi, t0):
        optimize = pytest.importorskip("scipy.optimize")
        t, f = find_root(phi, phi(0.0), t0, ftol=0.0, xtol=1e-14)
        hi = t0
        while phi(hi) < 0.0:
            hi *= 2.0
        reference = optimize.brentq(phi, 0.0, hi, xtol=1e-300, rtol=1e-15)
        assert t == pytest.approx(reference, rel=1e-12)
        assert f == phi(t)

    @pytest.mark.parametrize("h,dh,v0", [
        (lambda v: math.exp(v) - 2.0 * v, lambda v: math.exp(v) - 2.0, 0.1),
        (lambda v: math.cosh(v - 4.0), lambda v: math.sinh(v - 4.0), 1.0),
        (lambda v: (v - 2.5) ** 4 + v, lambda v: 4.0 * (v - 2.5) ** 3 + 1.0, 10.0),
        (lambda v: math.log1p(math.exp(3.0 - v)) + 0.1 * v,
         lambda v: 0.1 - 1.0 / (1.0 + math.exp(v - 3.0)), 1.0),
    ], ids=["exp", "cosh", "quartic", "softplus"])
    def test_minimum_matches_minimize_scalar(self, h, dh, v0):
        optimize = pytest.importorskip("scipy.optimize")
        v, hv = minimize_on_ray(ScalarLine(h, dh), v0=v0, h0=h(0.0), s0=dh(0.0))
        reference = optimize.minimize_scalar(h, bounds=(0.0, 20.0), method="bounded",
                                             options={"xatol": 1e-12})
        # values agree to rounding; the argmin only to sqrt(eps), which is
        # all a value-based reference can resolve
        assert hv <= reference.fun + 1e-14 * (1.0 + abs(reference.fun))
        assert v == pytest.approx(reference.x, abs=1e-6)
