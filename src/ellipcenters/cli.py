"""Command-line interface.

Subcommands: ``solve`` a problem file (or a freshly generated instance),
``bench`` the full comparison protocol, ``verify-geometry`` the conic
fitting, ``gradcheck`` the analytic gradients.  Data goes to files or
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage error,
2 completion with numeric flags, 3 internal error.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

from .bench import BenchConfig, emit_table, run_benchmark, run_method
from .errors import NumericError
from .geometry import survey_geometry
from .objectives import GenParams, check_gradient, generate_instance, load_problem
from .solver import Variant

_PROBLEM_KINDS = {"f1": "quadratic", "f2": "logsumexp"}
_SURVEY_COLUMNS = ["lambda", "theta", "m", "a", "b", "c", "d",
                   "classification", "u", "v", "max_residual"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this interface reserves 2
    # for numeric-flagged completions
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _num(value: float) -> str:
    return "" if math.isnan(value) else "%.12g" % value


def _write_trace(path: str, run) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "f", "grad_norm", "t_k", "v_k", "branch"])
        for k, rec in enumerate(run.iterates):
            writer.writerow([k, _num(rec.f), _num(rec.grad_norm),
                             _num(rec.t), _num(rec.v), rec.branch])


def _cmd_solve(args) -> int:
    if args.problem_file:
        problem, x0 = load_problem(args.problem_file)
        if x0 is None:
            seed = args.seed if args.seed is not None else 0
            x0 = np.random.default_rng(seed).standard_normal(problem.dimension)
    else:
        if args.problem is None or args.n is None or args.seed is None:
            raise ValueError("need either --problem-file or --problem, --n and --seed")
        kind = _PROBLEM_KINDS[args.problem]
        problem, x0 = generate_instance(kind, args.n, args.seed, GenParams(kappa=args.kappa))
    run = run_method(args.method, problem, x0, args.epsilon, args.max_iterations,
                     Variant(args.variant))
    if args.trace:
        _write_trace(args.trace, run)
    print(f"method={args.method} n={problem.dimension} termination={run.termination.value} "
          f"iterations={run.iterations} f_final={run.f_final:.12g} "
          f"grad_norm={run.grad_norm_final:.6g} value_evals={run.n_value_evals} "
          f"grad_evals={run.n_grad_evals}")
    if run.message:
        print(f"note: {run.message}", file=sys.stderr)
    return 2 if run.termination.value == "numeric-error" else 0


def _cmd_bench(args) -> int:
    cfg = BenchConfig(
        kind=_PROBLEM_KINDS[args.problem],
        sizes=tuple(args.sizes),
        instances_per_size=args.instances,
        epsilon=args.epsilon,
        base_seed=args.seed,
        methods=tuple(args.methods),
        params=GenParams(kappa=args.kappa),
        max_iterations=args.max_iterations,
        variant=Variant(args.variant),
    )
    records, details = run_benchmark(cfg)
    _write_text(args.out, emit_table(records, fmt=args.format, timing=args.timing))
    flagged = [d for d in details if d.flagged]
    for d in flagged:
        print(f"flagged: {d.method} n={d.n} seed={d.seed} ended with a numeric error",
              file=sys.stderr)
    return 2 if flagged else 0


def _cmd_verify_geometry(args) -> int:
    rows = survey_geometry(args.samples, args.seed)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_SURVEY_COLUMNS)
    for r in rows:
        writer.writerow(["%.12g" % r.lam, "%.12g" % r.theta, "%.12g" % r.m,
                         "%.12g" % r.a, "%.12g" % r.b, "%.12g" % r.c, "%.12g" % r.d,
                         r.classification, _num(r.u), _num(r.v),
                         "%.3e" % r.max_residual])
    _write_text(args.out, buffer.getvalue())
    bad = sum(not r.ok for r in rows)
    worst = max(r.max_residual for r in rows if r.classification == "ellipse")
    print(f"checked {len(rows)} conics: {bad} failures, "
          f"worst ellipse residual {worst:.3e}", file=sys.stderr)
    return 2 if bad else 0


def _cmd_gradcheck(args) -> int:
    if args.samples < 1:
        raise ValueError("need at least one sample")
    kind = _PROBLEM_KINDS[args.problem]
    problem, _ = generate_instance(kind, args.n, args.seed, GenParams(kappa=args.kappa))
    rng = np.random.default_rng(args.seed + 1_000_003)
    worst = max(check_gradient(problem, rng.standard_normal(args.n), args.step)
                for _ in range(args.samples))
    print(f"max relative gradient error {worst:.3e} "
          f"over {args.samples} points (h={args.step:g})")
    return 0 if worst <= args.tol else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="ellipcenters",
                     description="Ellipse-center solver, baselines and benchmarks "
                                 "for strongly convex minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="minimize one problem instance")
    solve.add_argument("--problem-file", help="JSON problem document")
    solve.add_argument("--problem", choices=sorted(_PROBLEM_KINDS),
                       help="generate an instance of this family instead")
    solve.add_argument("--n", type=int, help="dimension of the generated instance")
    solve.add_argument("--seed", type=int, help="seed of the generated instance")
    solve.add_argument("--kappa", type=float, default=1000.0,
                       help="condition-number target for generated quadratics (default %(default)s)")
    solve.add_argument("--method", choices=["me", "bb-long", "bb-short", "gd"],
                       default="me", help="solver to run (default %(default)s)")
    solve.add_argument("--variant", choices=[v.value for v in Variant],
                       default=Variant.SEMILINE_MIN.value,
                       help="semiline rule for the me method (default %(default)s)")
    solve.add_argument("--epsilon", type=float, default=0.01,
                       help="gradient-norm stopping tolerance (default %(default)s)")
    solve.add_argument("--max-iterations", type=int, default=1000,
                       help="iteration cap (default %(default)s)")
    solve.add_argument("--trace", help="write the per-iteration trace CSV here")
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run the benchmark protocol")
    bench.add_argument("--problem", choices=sorted(_PROBLEM_KINDS), required=True)
    bench.add_argument("--sizes", type=int, nargs="+", required=True,
                       help="problem sizes to run")
    bench.add_argument("--instances", type=int, default=10,
                       help="instances per size (default %(default)s)")
    bench.add_argument("--epsilon", type=float, default=0.01,
                       help="stopping tolerance (default %(default)s)")
    bench.add_argument("--seed", type=int, default=0,
                       help="base seed; instance i uses seed + i (default %(default)s)")
    bench.add_argument("--methods", nargs="+",
                       choices=["me", "bb-long", "bb-short", "gd"],
                       default=["me", "bb-long", "bb-short"],
                       help="methods to compare (default: me bb-long bb-short)")
    bench.add_argument("--kappa", type=float, default=1000.0,
                       help="condition-number target for f1 (default %(default)s)")
    bench.add_argument("--max-iterations", type=int, default=1000,
                       help="iteration cap per run (default %(default)s)")
    bench.add_argument("--variant", choices=[v.value for v in Variant],
                       default=Variant.SEMILINE_MIN.value,
                       help="semiline rule for the me method (default %(default)s)")
    bench.add_argument("--out", help="write the table here instead of stdout")
    bench.add_argument("--format", choices=["csv", "markdown"], default="csv",
                       help="table format (default %(default)s)")
    bench.add_argument("--timing", action="store_true",
                       help="include the machine-dependent wall-time column")
    bench.set_defaults(func=_cmd_bench)

    verify = sub.add_parser("verify-geometry",
                            help="sample the conic fit and report residuals")
    verify.add_argument("--samples", type=int, default=1000,
                        help="admissible configurations to sample (default %(default)s)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", help="write the CSV here instead of stdout")
    verify.set_defaults(func=_cmd_verify_geometry)

    gradcheck = sub.add_parser("gradcheck",
                               help="compare analytic gradients with central differences")
    gradcheck.add_argument("--problem", choices=sorted(_PROBLEM_KINDS), required=True)
    gradcheck.add_argument("--n", type=int, default=20)
    gradcheck.add_argument("--seed", type=int, default=0)
    gradcheck.add_argument("--samples", type=int, default=100)
    gradcheck.add_argument("--step", type=float, default=1e-6,
                           help="central-difference step (default %(default)s)")
    gradcheck.add_argument("--tol", type=float, default=1e-5,
                           help="acceptable relative error (default %(default)s)")
    gradcheck.add_argument("--kappa", type=float, default=1000.0)
    gradcheck.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
