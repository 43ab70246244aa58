"""Every record splits the one evaluation counter by phase: the level step's,
the search's (the semiline search, or a baseline's exact ray search) and the
driver's, which is the rest.  Over a run the three phases sum to the run's
value and gradient counts, on every method, family and ending; the splits
of the benchmark's shapes are pinned; and the benchmark's tracer, which
counts the objective's own calls and shares no code with the counter,
reads the same numbers wherever it sees every query."""
import math
import sys
from pathlib import Path

import pytest

from conftest import Huber, Logistic, NaNGradientAfter, ValueAndGradientOnly
from ellipcenters import (BenchConfig, GenParams, SolverConfig, Termination, generate_instance,
                          minimize, run_benchmark, run_method, solver)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracer import Tracer  # noqa: E402

PHASES = ("level", "search", "driver")
METHODS = [("me", "semiline-min"), ("me", "decrease-search"), ("bb-long", "semiline-min"),
           ("bb-short", "semiline-min"), ("gd", "semiline-min")]


def phase_totals(runs):
    """{phase: (values, gradients)} per run, averaged over ``runs``."""
    return {phase: tuple(sum(getattr(rec, f"{phase}_evals")[i]
                             for run in runs for rec in run.iterates) / len(runs)
                         for i in (0, 1))
            for phase in PHASES}


def assert_conserved(run):
    totals = phase_totals([run])
    assert sum(v for v, _ in totals.values()) == run.n_value_evals
    assert sum(g for _, g in totals.values()) == run.n_grad_evals


def assert_records_consistent(run, method):
    for rec in run.iterates[:-1]:
        if method != "me":
            assert (rec.level_path, rec.level_evals) == ("", (0, 0))
            assert math.isnan(rec.sin_theta)
            continue
        # the residual is NaN exactly on the slope path
        assert rec.level_path == ("slope" if math.isnan(rec.level_residual) else "value")
        if rec.branch == "ellipse":
            assert 0.0 < rec.sin_theta <= 1.0
        else:
            assert math.isnan(rec.sin_theta)
            assert rec.search_evals == (0, 0)
    final = run.iterates[-1]
    assert final.level_evals == final.search_evals == (0, 0)


@pytest.mark.parametrize("wrap", [None, ValueAndGradientOnly], ids=["own-line", "generic-line"])
@pytest.mark.parametrize("kind", ["quadratic", "logsumexp"])
@pytest.mark.parametrize("method,variant", METHODS, ids=lambda v: v)
def test_phases_sum_to_the_run_totals(method, variant, kind, wrap):
    p, x0 = generate_instance(kind, 30, 2, GenParams(kappa=100))
    run = run_method(method, p if wrap is None else wrap(p), x0,
                     SolverConfig(epsilon=1e-8, variant=variant))
    assert run.termination is Termination.CONVERGED
    assert_conserved(run)
    assert_records_consistent(run, method)
    # the start point's pair is the first record's
    assert min(run.iterates[0].driver_evals) >= 1


@pytest.mark.parametrize("finite_calls", [0, 1, 2, 5])
@pytest.mark.parametrize("method,variant", METHODS, ids=lambda v: v)
def test_phases_sum_to_the_run_totals_on_a_numeric_error(method, variant, finite_calls):
    p, x0 = generate_instance("quadratic", 10, 1, GenParams(kappa=100))
    run = run_method(method, NaNGradientAfter(p, finite_calls), x0,
                     SolverConfig(variant=variant))
    assert run.termination is Termination.NUMERIC_ERROR
    assert_conserved(run)
    assert_records_consistent(run, method)


def test_a_raising_step_is_charged_to_the_terminal_record():
    # the level point's gradient is NaN, so the frame raises after the level
    # step: the start pair and all the step took land on the terminal record
    p, x0 = generate_instance("quadratic", 10, 1, GenParams(kappa=100))
    run = minimize(NaNGradientAfter(p, 1), x0)
    assert run.termination is Termination.NUMERIC_ERROR and run.iterations == 0
    final = run.iterates[-1]
    assert final.driver_evals == (run.n_value_evals, run.n_grad_evals)
    assert run.n_value_evals > 1 and run.n_grad_evals == 2


def test_lse_tight_shaped_phase_split():
    # log-sum-exp n = 10^4, eps 1e-8, semiline-min: values/gradients per solve
    # (search gradients 41.25 -> 30.25 when semiline-min took the frame's
    # slope estimate as the slope at its base; driver (14, 11) -> (13, 10)
    # when the stopping test kept the log-sum-exp line's pointwise pair;
    # level (22.25, 6) -> (17.75, 10) and driver (13, 10) -> (13, 8) when the
    # level step's noise floor took the run scale for 1 + |f|: more level
    # steps take the slope path, whose last slope leaves grad f(y) free;
    # driver (13, 8) -> (1, 8) when the ellipse steps stopped taking f at the
    # chord midpoint, and a fallback to it would be charged to the search)
    runs = [minimize(*generate_instance("logsumexp", 10_000, seed), SolverConfig(epsilon=1e-8))
            for seed in range(4)]
    assert phase_totals(runs) == {"level": (17.75, 10), "search": (12, 30.25),
                                  "driver": (1, 8)}


def test_protocol_shaped_phase_split():
    # the benchmark protocol's log-sum-exp sizes, 10 instances, decrease-search
    # (every driver pair fell by one, ME's (6.80, 11.60) -> (5.80, 10.60),
    # gd's (2, 2) -> (1, 1) and bb-long's (9.7, 9.7) -> (8.7, 8.7), when the
    # stopping test kept a pointwise line's or BB's pair; ME's level values
    # 16.40 -> 16.03 when the level step's noise floor took the run scale)
    _, details = run_benchmark(BenchConfig(
        kind="logsumexp", sizes=(100, 1000, 4000), epsilon=0.01, base_seed=7,
        methods=("me", "gd", "bb-long"), variant="decrease-search"))
    split = {method: phase_totals([d.run for d in details if d.method == method])
             for method in ("me", "gd", "bb-long")}
    expected = {"me": {"level": (16.03, 0), "search": (12.27, 0), "driver": (5.80, 10.60)},
                "gd": {"level": (0, 0), "search": (9.73, 30.47), "driver": (1, 1)},
                "bb-long": {"level": (0, 0), "search": (1, 4.33), "driver": (8.7, 8.7)}}
    for method, phases in expected.items():
        for phase, pair in phases.items():
            assert split[method][phase] == pytest.approx(pair, abs=0.005), (method, phase)


@pytest.mark.parametrize("variant", ["semiline-min", "decrease-search"])
@pytest.mark.parametrize("make", [lambda: Logistic(200, 50, 1e-2, 0),
                                  lambda: Huber(120, 40, 1.0, 0)], ids=["logistic", "huber"])
def test_the_tracer_reads_the_same_counts(make, variant):
    # neither objective has along or value_and_gradient, so every query
    # reaches the tracer's proxy; a fresh tracer, since its unattributed
    # counts carry over between runs
    p = make()
    tracer = Tracer()
    with tracer.installed({"solver": solver}):
        run = minimize(tracer.objective(p), p.x0, SolverConfig(epsilon=1e-6, variant=variant))
    assert run.termination is Termination.CONVERGED
    totals = phase_totals([run])
    level = [s for s in tracer.spans if s.name == "levelstep.find_level_step"]
    assert len(level) == run.iterations
    assert totals["level"] == (sum(s.n_value for s in level), sum(s.n_grad for s in level))
    charged = tracer.spans + [tracer.unattributed]
    assert (sum(v for v, _ in totals.values()), sum(g for _, g in totals.values())) == (
        sum(s.n_value for s in charged), sum(s.n_grad for s in charged))
