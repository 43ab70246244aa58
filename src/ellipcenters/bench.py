"""Benchmark harness: seeded instances, shared start points, tabulated means.

For every configured size it generates ``instances_per_size`` seeded
instances, runs every method from the same start point, and aggregates mean
iterations, mean value at termination, mean final gradient norm, mean
evaluation count and mean wall time per (method, size).  Output is
deterministic for a fixed config; wall time is the one machine-dependent
column, so table emission takes a ``timing`` switch.  ``csv_text`` is the
package's one CSV writer: the bench table, the CLI's ``solve --trace`` file
and its conic survey all go through it.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

from .baselines import bb_minimize, gd_exact_minimize
from .objectives import (KINDS, MAX_QUADRATIC_DIM, GenParams, _check_seed, _is_count,
                         generate_instance)
from .solver import SolverConfig, SolverRun, Termination, Variant, minimize

METHODS = ("me", "bb-long", "bb-short", "gd")
DEFAULT_METHODS = ("me", "bb-long", "bb-short")


def run_method(method: str, problem, x0, cfg: SolverConfig | None = None) -> SolverRun:
    """Run one named method, one of ``METHODS``, on a problem from x0 under cfg."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "me":
        return minimize(problem, x0, cfg)
    if method == "gd":
        return gd_exact_minimize(problem, x0, cfg)
    return bb_minimize(problem, x0, method.removeprefix("bb-"), cfg)


@dataclass(frozen=True)
class BenchConfig:
    kind: str                       # "quadratic" or "logsumexp"
    sizes: tuple[int, ...]
    instances_per_size: int = 10
    epsilon: float = SolverConfig.epsilon
    base_seed: int = 0
    methods: tuple[str, ...] = DEFAULT_METHODS
    params: GenParams = field(default_factory=GenParams)
    max_iterations: int = SolverConfig.max_iterations
    variant: Variant = SolverConfig.variant  # or its name
    # the stopping rule of every run, built once from the three fields above
    _solver: SolverConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # reject a bad config before the first instance is solved
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if not self.sizes:
            raise ValueError("need at least one problem size")
        if not all(map(_is_count, (*self.sizes, self.instances_per_size, self.base_seed))):
            raise ValueError("sizes, instances per size and base seed must be integers")
        _check_seed(self.base_seed)  # instance i takes base_seed + i
        if min(self.sizes) < 1:
            raise ValueError("problem sizes must be at least 1")
        if self.kind == "quadratic" and max(self.sizes) > MAX_QUADRATIC_DIM:
            raise ValueError(f"quadratic sizes must be at most {MAX_QUADRATIC_DIM}")
        if len(set(self.sizes)) < len(self.sizes):
            raise ValueError("problem sizes must be distinct")
        if self.instances_per_size < 1:
            raise ValueError("need at least one instance per size")
        if not self.methods:
            raise ValueError("need at least one method")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError("methods must be distinct")
        solver = SolverConfig(self.epsilon, self.max_iterations, self.variant)
        object.__setattr__(self, "variant", solver.variant)
        object.__setattr__(self, "_solver", solver)


@dataclass
class RunDetail:
    """One (method, size, instance) run, with its full trace kept."""

    method: str
    n: int
    instance: int
    seed: int
    termination: str
    iterations: int
    final_value: float
    final_grad_norm: float
    evaluations: int
    wall_time_ms: float
    flagged: bool
    mu: float | None
    run: SolverRun


@dataclass(frozen=True)
class BenchRecord:
    """Aggregated means for one (method, size) cell."""

    method: str
    n: int
    mean_iterations: float
    mean_optimal_value: float
    mean_final_grad_norm: float
    mean_evaluations: float
    mean_wall_time_ms: float


def _run_instance(cfg: BenchConfig, n: int, instance: int) -> list[RunDetail]:
    seed = cfg.base_seed + instance
    problem, x0 = generate_instance(cfg.kind, n, seed, cfg.params)
    details = []
    for method in cfg.methods:
        start = time.perf_counter()
        run = run_method(method, problem, x0, cfg._solver)
        wall_ms = (time.perf_counter() - start) * 1e3
        details.append(RunDetail(
            method=method, n=n, instance=instance, seed=seed,
            termination=run.termination.value, iterations=run.iterations,
            final_value=run.f_final, final_grad_norm=run.grad_norm_final,
            evaluations=run.evaluations, wall_time_ms=wall_ms,
            flagged=run.termination is Termination.NUMERIC_ERROR,
            mu=getattr(problem, "mu", None), run=run,
        ))
    return details


def run_benchmark(cfg: BenchConfig):
    """Run the full protocol.  Returns (records, details).

    Instances are generated from seed = base_seed + instance index and every
    method starts from the same x0.  Results are deterministic for a fixed
    config (wall times aside); numeric failures are flagged on their detail
    rows, never dropped.
    """
    details = [d for n in cfg.sizes for i in range(cfg.instances_per_size)
               for d in _run_instance(cfg, n, i)]

    records = []
    for method in cfg.methods:
        for n in cfg.sizes:
            cell = [d for d in details if d.method == method and d.n == n]
            count = len(cell)
            records.append(BenchRecord(
                method=method, n=n,
                mean_iterations=sum(d.iterations for d in cell) / count,
                mean_optimal_value=sum(d.final_value for d in cell) / count,
                mean_final_grad_norm=sum(d.final_grad_norm for d in cell) / count,
                mean_evaluations=sum(d.evaluations for d in cell) / count,
                mean_wall_time_ms=sum(d.wall_time_ms for d in cell) / count,
            ))
    records.sort(key=lambda r: (r.method, r.n))
    return records, details


def _fmt(value: float) -> str:
    return "%.6g" % float(value)


def csv_text(header, rows) -> str:
    """The header and rows in the package's one CSV dialect: comma-separated,
    minimal quoting, each line ending in a bare newline."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


_ROW_ORDER = {"csv": lambda r: (r.method, r.n), "markdown": lambda r: (r.n, r.method)}


def emit_table(records, fmt: str = "csv", timing: bool = True) -> str:
    """Render aggregated records as CSV (sorted by method, then size) or as a
    markdown table grouped by size.  Values carry 6 significant digits."""
    if not records:
        raise ValueError("no records to emit")
    if fmt not in _ROW_ORDER:
        raise ValueError(f"unknown table format {fmt!r}")
    columns = ["method", "n", "mean_iterations", "mean_optimal_value",
               "mean_final_grad_norm", "mean_evaluations"]
    if timing:
        columns.append("mean_wall_time_ms")
    rows = [[r.method, str(r.n), *(_fmt(getattr(r, c)) for c in columns[2:])]
            for r in sorted(records, key=_ROW_ORDER[fmt])]
    if fmt == "csv":
        return csv_text(columns, rows)
    return "".join("| " + " | ".join(cells) + " |\n"
                   for cells in [columns, ["---"] * len(columns), *rows])
