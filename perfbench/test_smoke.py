"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench -q
"""
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import SETUP_BEFORE  # noqa: E402
from perfbench.tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# one metric per layer that is nonzero exactly when the traced run reached it
LAYER_PROBES = {
    "objectives": "objectives.self_share",
    "levelstep": "levelstep.calls",
    "geometry": "geometry.calls",
    "linesearch": "linesearch.calls",
    "solver": "solver.self_share",
    "baselines": "baselines.self_share",
    "bench": "bench.generate_ms",
}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def outputs():
    found = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            found[workload, trace] = (json.loads(lines[-2].removeprefix("details ")),
                                      json.loads(lines[-1]))
    return found


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_named_metric_with_its_unit(outputs, workload, trace):
    details, result = outputs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert details["missing_layers"] == [] and details["signature_mismatches"] == 0
    if trace:
        assert all(0.0 <= us < 100.0 for us in details["proxy_outside_us"].values())
    else:
        assert len(details["setup_samples_s"]) > SETUP_BEFORE  # some taken between passes


def test_traced_runs_reach_every_layer(outputs):
    reached = {layer for layer, probe in LAYER_PROBES.items()
               if any(outputs[w, 1][1]["metrics"][probe]["value"] > 0 for w in WORKLOADS)}
    assert set(LAYER_PROBES) == set(LAYERS) and reached == set(LAYERS)


def test_missing_target_is_reported_not_fatal():
    tracer = Tracer()
    empty = types.SimpleNamespace()
    with tracer.installed({"solver": empty, "baselines": empty, "bench": empty}):
        pass
    assert "solver.find_level_step" in tracer.missing
    assert "bench.run_method" in tracer.missing


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
