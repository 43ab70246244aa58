import hashlib
import json

import numpy as np
import pytest

from ellipcenters import (GenParams, bench, cli, LogSumExpProblem, SolverRun, Termination,
                          generate_instance, problem_from_dict, problem_to_dict, save_problem)
from ellipcenters.cli import main
from ellipcenters.solver import IterateRecord


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--frobnicate"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


TRACE_HEADER = ("iter,f,grad_norm,t_k,v_k,branch,level_path,level_residual,sin_theta,"
                "level_values,level_grads,search_values,search_grads,"
                "driver_values,driver_grads")


def test_solve_from_problem_file(tmp_path, capsys):
    problem, x0 = generate_instance("quadratic", 8, 4, GenParams(kappa=10))
    path = tmp_path / "p.json"
    save_problem(path, problem, x0=x0)
    trace = tmp_path / "trace.csv"
    code = main(["solve", "--problem-file", str(path), "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "termination=converged" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert lines[-1].split(",")[5] == "final"
    assert len(lines) >= 3


@pytest.mark.parametrize("method", bench.METHODS)
def test_solve_summary_splits_the_evaluations_by_phase(capsys, method):
    assert main(["solve", "--problem", "f2", "--n", "20", "--seed", "0", "--method", method]) == 0
    summary, phases = capsys.readouterr().out.splitlines()
    totals = dict(item.split("=") for item in summary.split())
    counts = dict(item.split("=") for item in phases.split())
    values, grads = zip(*(map(int, counts.pop(f"{phase}_evals").split("/"))
                          for phase in ("level", "search", "driver")))
    assert (sum(values), sum(grads)) == (int(totals["value_evals"]), int(totals["grad_evals"]))
    paths = {key: int(n) for key, n in counts.items() if key.endswith("_path")}
    branches = {key: int(n) for key, n in counts.items() if key not in paths}
    assert sum(branches.values()) == int(totals["iterations"])
    if method == "me":
        assert sum(paths.values()) == int(totals["iterations"])
        # driver values 4 -> 1 when semiline-min stopped taking f at the chord midpoint
        assert phases == ("level_evals=12/0 search_evals=3/13 driver_evals=1/4 "
                          "ellipse=3 value_path=3")
    else:
        assert list(branches) == [method] and not paths


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_solve_numeric_error_at_the_start_is_summarized(tmp_path, capsys):
    path = tmp_path / "p.json"
    save_problem(path, LogSumExpProblem(np.ones(5), np.ones(5)), x0=1e200 * np.ones(5))
    code = main(["solve", "--problem-file", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "termination=numeric-error iterations=0" in captured.out
    assert captured.err.startswith("note: ")


def test_solve_generated_instance(capsys):
    code = main(["solve", "--problem", "f2", "--n", "12", "--seed", "3",
                 "--method", "bb-long"])
    assert code == 0
    assert "termination=converged" in capsys.readouterr().out


def test_solve_requires_a_problem(capsys):
    code = main(["solve"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    code = main(["gradcheck", "--problem", "f1", "--n", "10", "--seed", "1",
                 "--samples", "20", "--kappa", "10"])
    assert code == 0
    assert "max relative gradient error" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:overflow")
def test_gradcheck_with_an_overflowing_step_fails(capsys):
    code = main(["gradcheck", "--problem", "f1", "--n", "4", "--step", "1e300"])
    assert code == 2
    assert "gradient check is not finite" in capsys.readouterr().err


def test_verify_geometry_writes_csv(tmp_path):
    out = tmp_path / "geometry.csv"
    code = main(["verify-geometry", "--samples", "100", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,theta,m,a,b,c,d,classification,u,v,max_residual"
    assert len(lines) == 1 + 100 + 20  # admissible rows plus the beyond-bound block
    assert any(",hyperbola," in line for line in lines[1:])


def test_bench_writes_deterministic_csv(tmp_path):
    args = ["bench", "--problem", "f2", "--sizes", "6", "9", "--instances", "2",
            "--epsilon", "0.01", "--seed", "5"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == ("method,n,mean_iterations,mean_optimal_value,"
                      "mean_final_grad_norm,mean_evaluations")


def test_bench_timing_flag_adds_column(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["bench", "--problem", "f2", "--sizes", "6", "--instances", "2",
                 "--seed", "5", "--timing", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0].endswith("mean_wall_time_ms")


def test_bench_markdown_format(capsys):
    code = main(["bench", "--problem", "f2", "--sizes", "6", "--instances", "2",
                 "--seed", "5", "--format", "markdown"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("| method |")


# sha256 of the files these commands write, pinned so that a change to the
# CSV dialect, the number formats or the rows shows (the trace re-pinned
# when the stopping test took f and g at x_final: its final row's driver
# counts went from 0,0 to 1,1, again when semiline-min took the frame's
# slope estimate as the slope at its base: its v, grad_norm and search
# gradient columns moved, and again when the stopping test kept the
# log-sum-exp line's pointwise pair: the final row's driver counts went
# back to 0,0, and again when semiline-min's ellipse steps stopped taking f
# at the chord midpoint: each step row's driver values fell by one)
WRITTEN_FILES = {
    "solve-trace": (["solve", "--problem", "f2", "--n", "20", "--seed", "0", "--trace"],
                    "aec949e6ae35dac97f9c35a0493b609bb2ec147780bd5e835ee36ef6daaf6d94"),
    "verify-geometry": (["verify-geometry", "--samples", "50", "--seed", "1", "--out"],
                        "ab71590ec5e268aee0e2950ca7aeffeb7171a306c5b3bb56f74b2190110e4473"),
}


@pytest.mark.parametrize("command", list(WRITTEN_FILES))
def test_written_file_is_pinned(tmp_path, command):
    args, digest = WRITTEN_FILES[command]
    out = tmp_path / "out.csv"
    assert main(args + [str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if command == "solve-trace":  # the six columns the trace had before the phase counts
        six = "".join(",".join(line.split(",")[:6]) + "\n"
                      for line in out.read_text().splitlines())
        assert hashlib.sha256(six.encode()).hexdigest() == (
            "c9ded7256c791fa8affa07bc7b599feb493f8f5fbeaf3624ffe9d720b139054f")


@pytest.mark.parametrize("seed", [None, 3])
def test_problem_file_without_x0_starts_from_the_seeded_draw(tmp_path, capsys, seed):
    problem, _ = generate_instance("logsumexp", 20, 0)
    bare, drawn = tmp_path / "bare.json", tmp_path / "drawn.json"
    save_problem(bare, problem)
    save_problem(drawn, problem,
                 x0=np.random.default_rng(0 if seed is None else seed).standard_normal(20))
    seed_args = [] if seed is None else ["--seed", str(seed)]
    assert main(["solve", "--problem-file", str(bare)] + seed_args) == 0
    from_bare = capsys.readouterr()
    assert main(["solve", "--problem-file", str(drawn)]) == 0
    assert from_bare == capsys.readouterr()
    assert "termination=converged" in from_bare.out


@pytest.mark.parametrize("command", [
    ["solve", "--problem", "f2", "--n", "5"],
    ["bench", "--problem", "f2", "--sizes", "5"],
    ["gradcheck", "--problem", "f2", "--n", "5"],
    ["solve", "--problem-file"],
    ["verify-geometry"],
], ids=["solve", "bench", "gradcheck", "solve-problem-file", "verify-geometry"])
def test_negative_seed_is_user_error(tmp_path, capsys, monkeypatch, command):
    def unreachable(*args, **kwargs):
        raise AssertionError("a negative seed reached a run")

    monkeypatch.setattr(bench, "run_method", unreachable)
    monkeypatch.setattr(cli, "run_method", unreachable)
    if command[-1] == "--problem-file":  # a document without x0 starts from the --seed draw
        bare = tmp_path / "bare.json"
        save_problem(bare, generate_instance("logsumexp", 5, 0)[0])
        command = command + [str(bare)]
    assert main(command + ["--seed", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a nonnegative integer, not -2\n"


def test_bench_names_each_flagged_run_and_exits_2(capsys, monkeypatch):
    def broken(method, problem, x0, *args, **kwargs):
        return SolverRun(iterates=[IterateRecord(x=np.asarray(x0, float),
                                                 f=problem.value(x0), grad_norm=1.0)],
                         termination=Termination.NUMERIC_ERROR, message="boom")

    monkeypatch.setattr(bench, "run_method", broken)
    code = main(["bench", "--problem", "f2", "--sizes", "5", "--instances", "2",
                 "--seed", "5", "--methods", "me"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("method,n,")
    assert captured.err == ("flagged: me n=5 seed=5 ended with a numeric error\n"
                            "flagged: me n=5 seed=6 ended with a numeric error\n")


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "survey_geometry", crash)
    assert main(["verify-geometry", "--samples", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def test_bad_problem_file_is_user_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "cubic", "n": 2}')
    code = main(["solve", "--problem-file", str(path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["n", "b"])
def test_problem_file_missing_a_field_is_user_error(tmp_path, capsys, field):
    problem, x0 = generate_instance("quadratic", 4, 2, GenParams(kappa=10))
    doc = problem_to_dict(problem, x0=x0)
    del doc[field]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", "--problem-file", str(path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: problem document lacks {field!r}\n"


@pytest.mark.parametrize("kind,field,message", [
    ("logsumexp", "alpha", "all weights must be finite"),
    ("quadratic", "matrix", "matrix and right-hand side must be finite"),
    ("quadratic", "b", "matrix and right-hand side must be finite"),
])
def test_problem_file_with_nan_data_is_user_error(tmp_path, capsys, kind, field, message):
    problem, x0 = generate_instance(kind, 4, 2, GenParams(kappa=10))
    doc = problem_to_dict(problem, x0=x0)
    doc[field][0] = float("nan")  # json writes and reads it as NaN
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", "--problem-file", str(path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


MU_MESSAGE = "mu must be None or a finite positive number"
N_MESSAGE = "n must be a positive integer"


@pytest.mark.parametrize("kind,field,bad,message", [
    *[("quadratic", "mu", bad, MU_MESSAGE)
      for bad in ("abc", -1.0, 0.0, float("nan"), float("inf"), True, [1, 2])],
    *[(kind, "n", bad, N_MESSAGE)
      for kind in ("quadratic", "logsumexp") for bad in (2.5, 2.0, "2", True, 0)],
    ("logsumexp", "n", 3, "n = 3 does not match the problem data"),
])
def test_problem_file_with_a_bad_scalar_is_user_error(tmp_path, capsys, kind, field, bad,
                                                      message):
    problem, _ = generate_instance(kind, 2, 2, GenParams(kappa=10))
    doc = problem_to_dict(problem)  # no x0, whose length would also catch a wrong n
    doc[field] = bad
    path = tmp_path / "bad-scalar.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", "--problem-file", str(path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind,field", [
    ("quadratic", "matrix"), ("quadratic", "b"), ("logsumexp", "alpha"),
    ("logsumexp", "beta"), ("quadratic", "x0"),
])
def test_problem_file_with_an_object_for_an_array_is_user_error(tmp_path, capsys, kind, field):
    problem, x0 = generate_instance(kind, 2, 2, GenParams(kappa=10))
    doc = problem_to_dict(problem, x0=x0)
    doc[field] = {"a": 1}
    path = tmp_path / "object-for-array.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", "--problem-file", str(path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {field} must be an array of numbers\n"


def test_problem_document_must_be_an_object():
    with pytest.raises(ValueError, match="JSON object"):
        problem_from_dict([1, 2, 3])


def test_gradcheck_without_samples_is_user_error(capsys):
    code = main(["gradcheck", "--problem", "f1", "--n", "4", "--samples", "0"])
    assert code == 1
    assert capsys.readouterr().err == "error: need at least one sample\n"


KAPPA_MESSAGE = "error: condition-number target must be finite and >= 1\n"


@pytest.mark.parametrize("kappa", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("command", [
    ["solve", "--problem", "f1", "--n", "4", "--seed", "0"],
    ["bench", "--problem", "f1", "--sizes", "4", "--instances", "1"],
    ["gradcheck", "--problem", "f1", "--n", "4", "--samples", "1"],
])
def test_non_finite_kappa_is_user_error(capsys, command, kappa):
    assert main(command + ["--kappa", kappa]) == 1
    assert capsys.readouterr().err == KAPPA_MESSAGE


@pytest.mark.parametrize("option,value,message", [
    *[("--step", bad, "step must be finite and positive") for bad in ("nan", "inf", "0")],
    *[("--tol", bad, "tolerance must be a nonnegative number") for bad in ("nan", "-0.001")],
])
def test_gradcheck_bad_step_or_tolerance_is_user_error(capsys, option, value, message):
    code = main(["gradcheck", "--problem", "f2", "--n", "4", "--samples", "1",
                 option, value])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("option,values,message", [
    ("--sizes", ["5", "5"], "problem sizes must be distinct"),
    ("--methods", ["me", "gd", "me"], "methods must be distinct"),
])
def test_bench_duplicates_are_user_error(capsys, option, values, message):
    args = {"--sizes": ["5"], "--methods": ["me"], option: values}
    code = main(["bench", "--problem", "f2", "--instances", "1",
                 "--sizes", *args["--sizes"], "--methods", *args["--methods"]])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bench_rejects_a_bad_size_before_solving(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a bad size reached the protocol")

    monkeypatch.setattr(bench, "generate_instance", unreachable)
    assert main(["bench", "--problem", "f2", "--sizes", "2000", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: problem sizes must be at least 1\n"


def test_bench_rejects_a_quadratic_size_past_the_memory_guard(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a size past the memory guard reached the protocol")

    monkeypatch.setattr(bench, "generate_instance", unreachable)
    assert main(["bench", "--problem", "f1", "--sizes", "100", "9000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: quadratic sizes must be at most 8000\n"


@pytest.mark.parametrize("option,message", [
    ("--epsilon", "stopping tolerance must be positive"),
    ("--max-iterations", "need at least one iteration"),
], ids=["epsilon", "max-iterations"])
def test_solve_checks_the_stopping_rule_before_the_instance(capsys, option, message):
    # n = 9000 is past the quadratic memory guard: a check after generation
    # would name the guard instead
    code = main(["solve", "--problem", "f1", "--n", "9000", "--seed", "0", option, "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
