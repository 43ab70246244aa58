"""Ellipse-center descent for strongly convex minimization.

A first-order solver whose iterates are centers of ellipses tangent to the
gradient at the current point and at a second point on the same level set,
plus spectral-step and exact-line-search baselines and a benchmark harness.
"""

from .baselines import bb_minimize, bb_step_size, gd_exact_minimize
from .bench import (BenchConfig, BenchRecord, RunDetail, emit_table,
                    run_benchmark, run_method)
from .errors import (DegeneratePlaneError, NonCoerciveError, NumericError,
                     StationaryPointError)
from .geometry import (ConicClass, ConicCoefficients, LocalFrame, build_frame,
                       center_direction, classify_conic, conic_center,
                       conic_gradient, conic_value, ellipse_bound, fit_conic,
                       survey_geometry)
from .levelstep import LevelStepResult, find_level_step
from .linesearch import minimize_on_ray
from .objectives import (GenParams, LogSumExpProblem, Objective,
                         QuadraticProblem, check_gradient, generate_instance,
                         load_problem, problem_from_dict, problem_to_dict,
                         save_problem)
from .solver import (IterateRecord, SolverConfig, SolverRun, Termination,
                     Variant, me_step, minimize, semiline_search)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "BenchRecord", "ConicClass", "ConicCoefficients",
    "DegeneratePlaneError", "GenParams", "IterateRecord", "LevelStepResult",
    "LocalFrame", "LogSumExpProblem", "NonCoerciveError",
    "NumericError", "Objective", "QuadraticProblem", "RunDetail",
    "SolverConfig", "SolverRun", "StationaryPointError", "Termination",
    "Variant", "bb_minimize", "bb_step_size", "build_frame",
    "center_direction", "check_gradient", "classify_conic", "conic_center",
    "conic_gradient", "conic_value", "ellipse_bound", "emit_table",
    "find_level_step", "fit_conic", "gd_exact_minimize", "generate_instance",
    "load_problem", "me_step", "minimize", "minimize_on_ray",
    "problem_from_dict", "problem_to_dict", "run_benchmark", "run_method",
    "save_problem", "semiline_search", "survey_geometry",
]
