import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

import ellipcenters.bench as bench_mod
from ellipcenters import (BenchConfig, BenchRecord, GenParams, SolverConfig, SolverRun,
                          Termination, Variant, bb_minimize, emit_table,
                          gd_exact_minimize, generate_instance, run_benchmark)
from ellipcenters.cli import build_parser
from ellipcenters.objectives import MAX_QUADRATIC_DIM
from ellipcenters.solver import IterateRecord


def small_config(**overrides):
    base = dict(kind="logsumexp", sizes=(5, 8), instances_per_size=3,
                epsilon=0.01, base_seed=2)
    base.update(overrides)
    return BenchConfig(**base)


COUNTS = "sizes, instances per size and base seed must be integers"


class TestRunBenchmark:
    def test_records_cover_every_cell(self):
        records, details = run_benchmark(small_config())
        assert len(records) == 3 * 2  # methods x sizes
        assert len(details) == 3 * 2 * 3
        for r in records:
            assert r.mean_final_grad_norm <= 0.01 + 1e-12

    def test_deterministic_across_reruns(self):
        cfg = small_config()
        rec1, _ = run_benchmark(cfg)
        rec2, _ = run_benchmark(cfg)
        strip = lambda rs: [(r.method, r.n, r.mean_iterations, r.mean_optimal_value,
                             r.mean_final_grad_norm, r.mean_evaluations) for r in rs]
        assert strip(rec1) == strip(rec2)

    def test_methods_share_start_points_and_agree(self):
        _, details = run_benchmark(small_config(sizes=(10,)))
        by_instance = {}
        for d in details:
            by_instance.setdefault(d.instance, []).append(d)
        for group in by_instance.values():
            finals = [d.final_value for d in group]
            for fa in finals:
                for fb in finals:
                    assert abs(fa - fb) <= 0.05 * (1.0 + abs(fa))

    def test_logsumexp_means_near_log_n(self):
        records, _ = run_benchmark(small_config(sizes=(50,), instances_per_size=5))
        for r in records:
            assert abs(r.mean_optimal_value - math.log(50)) <= 0.05

    def test_quadratic_kind_runs(self):
        records, details = run_benchmark(small_config(
            kind="quadratic", sizes=(6,), params=GenParams(kappa=10)))
        assert all(d.termination == "converged" for d in details)
        assert all(d.mu is not None for d in details)

    def test_numeric_failures_flagged_not_dropped(self, monkeypatch):
        def broken(method, problem, x0, *args, **kwargs):
            run = SolverRun(
                iterates=[IterateRecord(x=np.asarray(x0, float),
                                        f=problem.value(x0), grad_norm=1.0)],
                termination=Termination.NUMERIC_ERROR, message="boom")
            return run

        monkeypatch.setattr(bench_mod, "run_method", broken)
        records, details = run_benchmark(small_config(sizes=(5,), methods=("me",)))
        assert len(details) == 3
        assert all(d.flagged for d in details)
        assert len(records) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(kind="logsumexp", sizes=())
        with pytest.raises(ValueError):
            BenchConfig(kind="logsumexp", sizes=(5,), instances_per_size=0)
        with pytest.raises(ValueError):
            run_benchmark(BenchConfig(kind="logsumexp", sizes=(5,),
                                      methods=("newton",)))

    @pytest.mark.parametrize("overrides,message", [
        (dict(kind="quadratics"), "unknown problem kind 'quadratics'"),
        (dict(methods=("me", "bb-long", "gd ")), "unknown method 'gd '"),
        (dict(sizes=(5, 0)), "problem sizes must be at least 1"),
        (dict(kind="quadratic", sizes=(5, MAX_QUADRATIC_DIM + 1)),
         f"quadratic sizes must be at most {MAX_QUADRATIC_DIM}"),
        (dict(epsilon=0.0), "stopping tolerance must be positive"),
        (dict(epsilon=float("nan")), "stopping tolerance must be positive"),
        (dict(max_iterations=0), "need at least one iteration"),
        (dict(max_iterations=2.5), "max_iterations must be an integer"),
        (dict(instances_per_size=2.5), COUNTS),
        (dict(instances_per_size=float("nan")), COUNTS),
        (dict(instances_per_size=True), COUNTS),
        (dict(sizes=(5, 2.5)), COUNTS),
        (dict(base_seed=0.5), COUNTS),
        (dict(base_seed=-3), "seed must be a nonnegative integer, not -3"),
        (dict(methods=()), "need at least one method"),
    ], ids=["kind", "method", "size", "quadratic-size", "epsilon-zero", "epsilon-nan",
            "max-iterations", "max-iterations-fraction", "instances-fraction", "instances-nan",
            "instances-bool", "size-fraction", "seed-fraction", "seed-negative", "no-methods"])
    def test_bad_config_rejected_when_built(self, overrides, message, monkeypatch):
        # the error comes before any instance is generated or solved
        def unreachable(*args, **kwargs):
            raise AssertionError("a bad config reached the protocol")

        monkeypatch.setattr(bench_mod, "generate_instance", unreachable)
        monkeypatch.setattr(bench_mod, "run_method", unreachable)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_benchmark(small_config(**overrides))

    def test_negative_base_seed_rejected_when_built(self):
        # numpy's generators take no negative seed; the config names it first
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, not -1$"):
            BenchConfig(kind="logsumexp", sizes=(5,), base_seed=-1)

    def test_method_names_are_kept_in_one_place(self):
        _, details = run_benchmark(small_config(sizes=(5,), instances_per_size=1,
                                                methods=bench_mod.METHODS))
        assert [d.method for d in details] == list(bench_mod.METHODS)
        assert all(d.termination == "converged" for d in details)
        with pytest.raises(ValueError, match="unknown method 'newton'"):
            bench_mod.run_method("newton", *generate_instance("logsumexp", 3, 0))

    def test_run_setting_defaults_are_kept_in_one_place(self):
        solver, gen = SolverConfig(), GenParams()

        def defaults(fn):
            return {name: p.default for name, p in inspect.signature(fn).parameters.items()
                    if name in ("epsilon", "max_iterations", "variant")}

        # every method takes the stopping rule as one SolverConfig, or its default
        for fn in (bench_mod.run_method, bb_minimize, gd_exact_minimize):
            assert defaults(fn) == {}
            assert inspect.signature(fn).parameters["cfg"].default is None
        cfg = BenchConfig(kind="logsumexp", sizes=(5,))
        assert (cfg.epsilon, cfg.max_iterations, cfg.variant, cfg.params) == (
            solver.epsilon, solver.max_iterations, solver.variant, gen)
        parser = build_parser()
        solve = parser.parse_args(["solve"])
        bench = parser.parse_args(["bench", "--problem", "f2", "--sizes", "5"])
        for args in (solve, bench):
            assert (args.epsilon, args.max_iterations, args.variant, args.kappa) == (
                solver.epsilon, solver.max_iterations, solver.variant.value, gen.kappa)
        assert (bench.instances, bench.seed) == (cfg.instances_per_size, cfg.base_seed)
        assert parser.parse_args(["gradcheck", "--problem", "f2"]).kappa == gen.kappa

    @pytest.mark.parametrize("field,value", [("sizes", (5, 8, 5)), ("methods", ("me", "me"))])
    def test_duplicate_sizes_or_methods_rejected(self, field, value):
        with pytest.raises(ValueError, match="distinct"):
            small_config(**{field: value})

    @pytest.mark.parametrize("variant", list(Variant))
    def test_variant_given_by_name_runs_that_variant(self, variant):
        def counts(variant):
            cfg = small_config(sizes=(50,), instances_per_size=1, epsilon=1e-6,
                               base_seed=1, methods=("me",), variant=variant)
            return [(d.iterations, d.run.n_value_evals, d.run.n_grad_evals, d.final_value)
                    for d in run_benchmark(cfg)[1]]

        cfg = small_config(variant=variant.value)
        assert cfg.variant is variant
        assert counts(variant.value) == counts(variant)
        assert counts(Variant.SEMILINE_MIN) != counts(Variant.DECREASE_SEARCH)
        with pytest.raises(ValueError):
            small_config(variant="golden-section")


class TestEmitTable:
    def make_record(self, method="me", n=100):
        return BenchRecord(method=method, n=n, mean_iterations=4.1,
                           mean_optimal_value=4.605170, mean_final_grad_norm=0.004,
                           mean_evaluations=311.0, mean_wall_time_ms=12.25)

    def test_csv_exact_header_with_timing(self):
        text = emit_table([self.make_record()], fmt="csv", timing=True)
        lines = text.splitlines()
        assert lines[0] == ("method,n,mean_iterations,mean_optimal_value,"
                            "mean_final_grad_norm,mean_evaluations,mean_wall_time_ms")
        assert len(lines) == 2
        assert lines[1].startswith("me,100,4.1,4.60517,")

    def test_csv_without_timing_column(self):
        text = emit_table([self.make_record()], fmt="csv", timing=False)
        assert "wall_time" not in text
        assert text.splitlines()[1] == "me,100,4.1,4.60517,0.004,311"

    def test_six_significant_digits(self):
        rec = dataclasses.replace(self.make_record(), mean_optimal_value=1234.56789)
        text = emit_table([rec], fmt="csv", timing=False)
        assert "1234.57" in text

    def test_markdown_grouped_by_size(self):
        records = [self.make_record(method=m, n=n)
                   for m in ("me", "bb-long", "bb-short") for n in (100, 200)]
        text = emit_table(records, fmt="markdown", timing=False)
        body = [line for line in text.splitlines() if line.startswith("|")][2:]
        assert len(body) == 6
        sizes = [int(line.split("|")[2]) for line in body]
        assert sizes == [100, 100, 100, 200, 200, 200]

    GOLDEN_HEADER = ("method,n,mean_iterations,mean_optimal_value,"
                     "mean_final_grad_norm,mean_evaluations")
    GOLDEN = {
        ("csv", True): (
            GOLDEN_HEADER + ",mean_wall_time_ms\n"
            "bb-long,100,5.1,9.21034,0.004,311,12.25\n"
            "gd,200,7.1,18.4207,0.004,311,12.25\n"
            "me,100,6.1,13.8155,0.004,311,12.25\n"
            "me,200,4.1,4.60517,0.004,311,12.25\n"),
        ("csv", False): (
            GOLDEN_HEADER + "\n"
            "bb-long,100,5.1,9.21034,0.004,311\n"
            "gd,200,7.1,18.4207,0.004,311\n"
            "me,100,6.1,13.8155,0.004,311\n"
            "me,200,4.1,4.60517,0.004,311\n"),
        ("markdown", True): (
            "| method | n | mean_iterations | mean_optimal_value | mean_final_grad_norm"
            " | mean_evaluations | mean_wall_time_ms |\n"
            "| --- | --- | --- | --- | --- | --- | --- |\n"
            "| bb-long | 100 | 5.1 | 9.21034 | 0.004 | 311 | 12.25 |\n"
            "| me | 100 | 6.1 | 13.8155 | 0.004 | 311 | 12.25 |\n"
            "| gd | 200 | 7.1 | 18.4207 | 0.004 | 311 | 12.25 |\n"
            "| me | 200 | 4.1 | 4.60517 | 0.004 | 311 | 12.25 |\n"),
    }

    @pytest.mark.parametrize("fmt,timing", list(GOLDEN))
    def test_golden_text(self, fmt, timing):
        records = [BenchRecord(method=m, n=n, mean_iterations=4.1 + i,
                               mean_optimal_value=4.605170 * (i + 1), mean_final_grad_norm=0.004,
                               mean_evaluations=311.0, mean_wall_time_ms=12.25)
                   for i, (m, n) in enumerate([("me", 200), ("bb-long", 100), ("me", 100),
                                               ("gd", 200)])]
        assert emit_table(records, fmt=fmt, timing=timing) == self.GOLDEN[fmt, timing]

    def test_rejects_empty_and_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table([], fmt="csv")
        with pytest.raises(ValueError):
            emit_table([self.make_record()], fmt="html")
