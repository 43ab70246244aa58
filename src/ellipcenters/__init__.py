"""Ellipse-center descent for strongly convex minimization.

A first-order solver whose iterates are centers of ellipses tangent to the
gradient at the current point and at a second point on the same level set,
plus spectral-step and exact-line-search baselines and a benchmark harness.

The top level exports what a user runs or gets back; the layers' own names
(the level step, frame, searches, conic oracle and layer-only errors) are
imported from their modules.
"""

from .baselines import bb_minimize, gd_exact_minimize
from .bench import BenchConfig, BenchRecord, RunDetail, emit_table, run_benchmark, run_method
from .errors import NumericError
from .objectives import (GenParams, LogSumExpProblem, QuadraticProblem, check_gradient,
                         generate_instance, load_problem, problem_from_dict, problem_to_dict,
                         save_problem)
from .solver import IterateRecord, SolverConfig, SolverRun, Termination, Variant, minimize

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "BenchRecord", "GenParams", "IterateRecord", "LogSumExpProblem",
    "NumericError", "QuadraticProblem", "RunDetail", "SolverConfig", "SolverRun", "Termination",
    "Variant", "bb_minimize", "check_gradient", "emit_table", "gd_exact_minimize",
    "generate_instance", "load_problem", "minimize", "problem_from_dict", "problem_to_dict",
    "run_benchmark", "run_method", "save_problem",
]
