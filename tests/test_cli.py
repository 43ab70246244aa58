import json

import numpy as np
import pytest

from ellipcenters import (GenParams, LogSumExpProblem, generate_instance,
                          problem_from_dict, problem_to_dict, save_problem)
from ellipcenters.cli import main


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


def test_solve_from_problem_file(tmp_path, capsys):
    problem, x0 = generate_instance("quadratic", 8, 4, GenParams(kappa=10))
    path = tmp_path / "p.json"
    save_problem(path, problem, seed=4, x0=x0)
    trace = tmp_path / "trace.csv"
    code = main(["solve", "--problem-file", str(path), "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "termination=converged" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,f,grad_norm,t_k,v_k,branch"
    assert lines[-1].endswith("final")
    assert len(lines) >= 3


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
