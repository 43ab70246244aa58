"""The benchmark's tracer rebinds module attributes of the package
(``perfbench.tracer.TARGETS``) to time each layer; these tests keep those
names in place and called through their modules, so a refactor that drops
one fails here rather than only in the benchmark's own smoke test."""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from ellipcenters import BenchConfig, GenParams, minimize_on_ray, run_benchmark

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracer import TARGETS  # noqa: E402


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, *_ in TARGETS])
def test_target_is_a_callable_module_attribute(module, attr):
    assert callable(getattr(importlib.import_module(f"ellipcenters.{module}"), attr, None))


def test_ray_search_keeps_its_h0_parameter():
    assert "h0" in inspect.signature(minimize_on_ray).parameters


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
