"""The package's top level exports what a user runs or gets back; the
layers' own names are imported from their modules."""
import importlib

import pytest

import ellipcenters

PUBLIC = {
    # problem families and their I/O
    "QuadraticProblem", "LogSumExpProblem", "GenParams", "generate_instance",
    "load_problem", "save_problem", "problem_to_dict", "problem_from_dict",
    "check_gradient",
    # methods
    "minimize", "bb_minimize", "gd_exact_minimize", "run_method",
    # configs and results
    "SolverConfig", "Variant", "Termination", "SolverRun", "IterateRecord",
    # the bench
    "BenchConfig", "BenchRecord", "RunDetail", "run_benchmark", "emit_table",
    "NumericError",
}

INTERNALS = {
    "solver": ("me_step", "semiline_search", "run_scale"),
    "levelstep": ("find_level_step",),
    "linesearch": ("minimize_on_ray",),
    "geometry": ("build_frame", "center_direction", "downhill", "LocalFrame", "ConicClass",
                 "ConicCoefficients", "classify_conic", "conic_center", "conic_gradient",
                 "conic_value", "ellipse_bound", "fit_conic", "survey_geometry"),
    "baselines": ("bb_step_size",),
    "errors": ("DegeneratePlaneError",),
}


def test_all_is_the_user_api():
    assert set(ellipcenters.__all__) == PUBLIC
    assert len(ellipcenters.__all__) == len(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_is_a_package_attribute(name):
    assert hasattr(ellipcenters, name)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in INTERNALS.items() for n in names])
def test_layer_name_is_imported_from_its_module(module, name):
    assert not hasattr(ellipcenters, name)
    assert hasattr(importlib.import_module(f"ellipcenters.{module}"), name)
