"""Benchmark of the ellipse-center solver, measured from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload lse-tight --seed 0 --seconds 25 --trace 0

The run builds the workload's state (instance generation, warm-up), then
repeats the workload's pass (see workloads.py) until the next pass would end
after ``--seconds``.  Every solve is checked by an oracle that shares no code
with the solver.  ``setup_s`` is the median wall time of a fresh interpreter
that imports the package, generates the pool and warms up; the samples are
taken before the passes and between them, evenly over the run.

``--trace 0`` prints the end-to-end metrics of untraced passes.  Every pass
solves the same instances, so each time is taken where other tenants of the
machine disturbed it least: the solve percentiles are over each solve's
fastest repeat, and ``wall_s`` adds those up with the fastest repeat of the
rest of the pass (oracle checks; for ``protocol`` also instance generation
and ``run_benchmark``'s own work).  ``--trace 1``
alternates untraced and traced passes, requires every traced solve to match
its untraced twin bit for bit, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
starts with ``details`` and carries the machine facts, the tail percentile
and its sample count and the pass and set-up samples; the same record, with
every solve time added, is written to perfbench/results/.  BLAS runs on one
thread.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("quad-wide", "lse-tight", "protocol")
SETUP_BEFORE = 3     # set-up samples taken before the first pass
SETUP_SAMPLES = 11   # ... and between passes, evenly over the run, up to this many in all
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END_UNITS = {
    "wall_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "evals_per_solve": "count/solve",
    "iters_per_solve": "count/solve",
    "solved_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the smoke-test sizes instead of the benchmark sizes")
    return parser.parse_args(argv)


def tail(values):
    """(value, percentile, n) at the highest of TAIL_PERCENTILES that has at
    least ten values beyond it, by nearest rank; the maximum if none has."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], p, n
    return ordered[-1], 100.0, n


def setup_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Wall time of a fresh interpreter that imports the package and sets the
    workload up, as a user starting the program pays it."""
    table = "TINY" if tiny else "FULL"
    code = f"from perfbench import workloads; workloads.{table}[{workload!r}].setup({seed})"
    start = perf_counter()
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=path))
    return perf_counter() - start


def one_pass(workload, state, refs, tracer=None):
    start = perf_counter()
    rows = workload.run_pass(state, refs, tracer)
    return perf_counter() - start, rows


def run_passes(workload, state, refs, seconds, setups, sample_setup=None,
               tracer=None, modules=None):
    """Untraced passes (alternating with traced ones when a tracer is given)
    until the next cycle would end after ``seconds``; at least one cycle.
    After a cycle ``sample_setup``, when given, adds a set-up sample to
    ``setups`` whenever one is due, so that the SETUP_SAMPLES spread over the
    run: slow stretches of the machine last seconds."""
    plain, traced = [], []
    spacing = seconds / (SETUP_SAMPLES - SETUP_BEFORE)
    start = perf_counter()
    while True:
        plain.append(one_pass(workload, state, refs))
        cycle = statistics.median(wall for wall, _ in plain)
        if tracer is not None:
            with tracer.installed(modules):
                traced.append(one_pass(workload, state, refs, tracer))
            cycle += statistics.median(wall for wall, _ in traced)
        if sample_setup is not None and len(setups) < SETUP_SAMPLES:
            if perf_counter() - start >= (len(setups) - SETUP_BEFORE) * spacing:
                setups.append(sample_setup())
            cycle += statistics.median(setups)
        if perf_counter() - start + cycle > seconds:
            return plain, traced


def mismatches(passes) -> int:
    """Solves whose iterations, evaluation counts or f_final differ from the
    first pass's solve of the same instance."""
    reference = [row.signature for row in passes[0][1]]
    return sum(row.signature != ref
               for _, rows in passes for row, ref in zip(rows, reference, strict=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ellipcenters" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # must precede the first numpy import

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import ellipcenters
    from ellipcenters import baselines, bench, solver
    from perfbench import machine, tracer as tracing, workloads
    if not Path(ellipcenters.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported ellipcenters from {ellipcenters.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    sample_setup = None
    setup_samples = []
    if not args.trace:
        def sample_setup():
            return setup_seconds(args.workload, args.seed, args.tiny)
        setup_samples = [sample_setup() for _ in range(SETUP_BEFORE)]
    state = workload.setup(args.seed)
    refs = workload.references(args.seed, state)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.calibrate()
    modules = {"solver": solver, "baselines": baselines, "bench": bench}
    plain, traced = run_passes(workload, state, refs, args.seconds, setup_samples,
                               sample_setup, tracer, modules)

    rows = [row for _, pass_rows in plain for row in pass_rows]
    traced_rows = [row for _, pass_rows in traced for row in pass_rows]
    attempted = len(rows) + len(traced_rows)
    failed = sum(not row.ok for row in rows + traced_rows)
    differing = mismatches(plain + traced)
    times = [min(row.ms for row in repeats)
             for repeats in zip(*(pass_rows for _, pass_rows in plain), strict=True)]
    rest_s = min(wall - sum(row.ms for row in pass_rows) / 1e3 for wall, pass_rows in plain)
    tail_ms, tail_p, tail_n = tail(times)

    if args.trace:
        me = [row for row in traced_rows if row.method == "me"]
        overhead = min(w for w, _ in traced) / min(w for w, _ in plain) - 1.0
        values = tracing.layer_metrics(
            tracer, solves=len(traced_rows),
            me_iterations=sum(row.iterations for row in me),
            ellipse_steps=sum(row.ellipse_steps for row in me),
            midpoint_steps=sum(row.midpoint_steps for row in me),
            overhead_frac=overhead)
        units = tracing.UNITS
    else:
        values = {
            "wall_s": sum(times) / 1e3 + rest_s,
            "solve_ms_p50": statistics.median(times),
            "solve_ms_tail": tail_ms,
            "evals_per_solve": statistics.fmean(row.evals for row in rows),
            "iters_per_solve": statistics.fmean(row.iterations for row in rows),
            "solved_frac": sum(row.ok for row in rows) / len(rows),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}

    details = {
        "workload": args.workload, "tiny": args.tiny, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(plain), "traced_passes": len(traced),
        "pass_wall_s": [wall for wall, _ in plain],
        "traced_pass_wall_s": [wall for wall, _ in traced],
        "solve_ms": [[row.ms for row in pass_rows] for _, pass_rows in plain],
        "solve_ms_tail": {"percentile": tail_p, "n": tail_n},
        "setup_samples_s": setup_samples,
        "proxy_outside_us": tracer.outside_us() if tracer else None,
        "signature_mismatches": differing,
        "missing_layers": tracer.missing if tracer else [],
        "machine": machine.facts(ROOT, args.seed),
    }
    result = {"correct": failed == 0 and differing == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    if details["missing_layers"]:
        print("perfbench: missing layers " + ", ".join(details["missing_layers"]),
              file=sys.stderr)
    print("details " + json.dumps({k: v for k, v in details.items() if k != "solve_ms"}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
