"""Per-step certificates from the theory, checked on the records of whole runs.

On a quadratic, f(x - s g) is a parabola symmetric about its two level
points, so the chord midpoint is the exact steepest-descent point, where f
has fallen by t |g|^2 / 4, and since f(x_next) <= f_mid every ME step
contracts f - f* by at least the Kantorovich factor ((K - 1) / (K + 1))^2,
K = L / mu.  On any mu-strongly convex f, f(y) = f(x) gives
f_mid <= f(x) - (mu / 8) t^2 |g|^2.  The slack in each bound is rounding, a
few units of eps (1 + |f|), except where the level step's own tolerance
enters, as stated there.
"""
import numpy as np
import pytest

from conftest import chord_midpoint_value
from ellipcenters import GenParams, SolverConfig, Variant, generate_instance, minimize

EPS = float(np.finfo(float).eps)
ROUNDING = 8.0 * EPS  # times (1 + |f|): the slack for rounding
VARIANTS = pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)


@VARIANTS
@pytest.mark.parametrize("n,kappa,seed,epsilon", [
    (100, 1000.0, 0, 1e-6), (30, 100.0, 0, 1e-9), (30, 100.0, 1, 1e-9),
    (30, 100.0, 2, 1e-9), (1000, 10.0, 0, 1e-6)])
def test_quadratic_steps_contract_by_the_kantorovich_factor(n, kappa, seed, epsilon, variant):
    # at n = 100, kappa = 1000 the worst step reaches 0.987 of the factor;
    # steps whose gap is within 1e4 rounding units of f* are not checked
    p, x0 = generate_instance("quadratic", n, seed, GenParams(kappa))
    eigs = np.linalg.eigvalsh(p.a)
    k = eigs[-1] / eigs[0]
    factor = ((k - 1.0) / (k + 1.0)) ** 2
    f_star = p.value(p.solution())
    floor = 1e4 * EPS * (1.0 + abs(f_star))
    run = minimize(p, x0, SolverConfig(epsilon=epsilon, variant=variant, max_iterations=5000))
    checked = 0
    for rec, nxt in zip(run.iterates[:-1], run.iterates[1:]):
        # the level point solves f(y) = f(x) to 1e-10 (1 + |f|), which moves
        # f_mid by a quarter of that residual; 2.5e-14 was measured
        drop = rec.t * rec.grad_norm ** 2 / 4.0
        assert abs(chord_midpoint_value(p, rec) - (rec.f - drop)) <= 2.5e-11 * (1.0 + abs(rec.f))
        if rec.f - f_star <= floor:
            continue
        checked += 1
        assert nxt.f - f_star <= factor * (rec.f - f_star) + ROUNDING * (1.0 + abs(f_star))
    assert checked >= 10


@VARIANTS
@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_logsumexp_midpoint_and_next_iterate_bounds(n, seed, variant):
    # the worst (mu / 8) (t |g|)^2 / (f - f_mid) measured was 0.644; the next
    # iterate may sit above f_mid by the level step's noise floor
    p, x0 = generate_instance("logsumexp", n, seed)
    run = minimize(p, x0, SolverConfig(epsilon=1e-8, variant=variant))
    for rec, nxt in zip(run.iterates[:-1], run.iterates[1:]):
        gain = p.mu / 8.0 * (rec.t * rec.grad_norm) ** 2
        f_mid = chord_midpoint_value(p, rec)
        assert f_mid <= rec.f - gain + ROUNDING * (1.0 + abs(rec.f))
        assert nxt.f <= f_mid + 32.0 * EPS * (1.0 + abs(rec.f))
    assert run.iterations >= 5
