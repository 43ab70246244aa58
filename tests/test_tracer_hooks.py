"""The benchmark's tracer rebinds module attributes of the package
(``perfbench.tracer.TARGETS``) to time each layer; these tests keep those
names in place and called through their modules, so a refactor that drops
one fails here rather than only in the benchmark's own smoke test."""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from ellipcenters import BenchConfig, GenParams, run_benchmark
from ellipcenters.levelstep import find_level_step
from ellipcenters.linesearch import minimize_on_ray

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracer import TARGETS  # noqa: E402


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, *_ in TARGETS])
def test_target_is_a_callable_module_attribute(module, attr):
    assert callable(getattr(importlib.import_module(f"ellipcenters.{module}"), attr, None))


def test_ray_search_keeps_its_h0_parameter():
    # keyword-only, so that no caller can pass it by position; the base
    # slope s0 is taken the same way, and neither has a default.  The level
    # step takes its line's value and slope at 0 as the minimum search does,
    # and its run scale the same way
    for search, names in ((minimize_on_ray, ("h0", "s0")),
                          (find_level_step, ("h0", "s0", "scale"))):
        params = inspect.signature(search).parameters
        for name in names:
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert params[name].default is inspect.Parameter.empty


def test_every_target_is_called_through_its_module(monkeypatch):
    calls = {}

    def spy(label, fn):
        def wrapped(*args, **kwargs):
            calls.setdefault(label, []).append(kwargs)
            return fn(*args, **kwargs)
        return wrapped

    for module, attr, *_ in TARGETS:
        mod = importlib.import_module(f"ellipcenters.{module}")
        monkeypatch.setattr(mod, attr, spy(f"{module}.{attr}", getattr(mod, attr)))
    run_benchmark(BenchConfig(kind="quadratic", sizes=(6,), instances_per_size=1,
                              methods=("me", "gd"), params=GenParams(kappa=10)))
    assert sorted(calls) == sorted(f"{m}.{a}" for m, a, *_ in TARGETS)
    # the tracer reads a ray search's base value from the h0 keyword
    for label in ("solver.minimize_on_ray", "baselines.minimize_on_ray"):
        assert all("h0" in kwargs for kwargs in calls[label])
