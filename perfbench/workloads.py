"""The benchmark's workloads: what each one solves, and one pass over it.

A pass is the workload's fixed unit of work.  For the single-problem
workloads it solves every instance of a seeded pool once with
``solver.minimize``; for ``protocol`` it is one ``bench.run_benchmark``
call.  Instance i of a pool uses seed + i.  Timed passes hand the solver
the generated problem objects unwrapped; a traced pass wraps them in the
tracer's proxy and opens the root span itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from ellipcenters import bench, objectives, solver
from ellipcenters.objectives import GenParams
from ellipcenters.solver import SolverConfig, Termination, Variant

from perfbench.oracle import Reference

WARMUP_ITERATIONS = 20  # enough to touch every code path of a solve
MAX_ITERATIONS = 1000
PROTOCOL_METHODS = ("me", "bb-long", "bb-short", "gd")


@dataclass(frozen=True)
class Solve:
    """One finished solve, reduced to what the metrics and checks need."""

    key: tuple
    method: str
    ms: float
    iterations: int
    evals: int
    signature: tuple          # iterations, evaluation counts and f_final bits
    ok: bool                  # converged and passed the oracle
    ellipse_steps: int = 0
    midpoint_steps: int = 0


def _reduce(key, method, ms, run, ok) -> Solve:
    branches = [rec.branch for rec in run.iterates]
    return Solve(key, method, ms, run.iterations, run.evaluations,
                 (run.iterations, run.n_value_evals, run.n_grad_evals,
                  float(run.f_final).hex()),
                 ok, branches.count("ellipse"), branches.count("midpoint"))


@dataclass(frozen=True)
class PoolWorkload:
    """A pool of seeded instances of one family, each solved by ``minimize``."""

    name: str
    kind: str
    n: int
    epsilon: float
    pool: int
    kappa: float = 1000.0

    def config(self, max_iterations: int = MAX_ITERATIONS) -> SolverConfig:
        return SolverConfig(epsilon=self.epsilon, variant=Variant.SEMILINE_MIN,
                            max_iterations=max_iterations)

    def setup(self, seed: int):
        """Generate the pool and warm up.  Returns the pass state."""
        params = GenParams(kappa=self.kappa)
        pool = [objectives.generate_instance(self.kind, self.n, seed + i, params)
                for i in range(self.pool)]
        problem, x0 = pool[0]
        solver.minimize(problem, x0, self.config(WARMUP_ITERATIONS))
        return pool

    def references(self, seed: int, pool) -> list[Reference]:
        return [Reference(problem) for problem, _ in pool]

    def run_pass(self, pool, refs, tracer=None) -> list[Solve]:
        cfg = self.config()
        out = []
        for i, ((problem, x0), ref) in enumerate(zip(pool, refs)):
            start = perf_counter()
            if tracer is None:
                run = solver.minimize(problem, x0, cfg)
            else:
                run = tracer.call("solver.minimize", "solver", solver.minimize,
                                  (tracer.objective(problem), x0, cfg), {})
            ms = (perf_counter() - start) * 1e3
            ok = (run.termination is Termination.CONVERGED
                  and ref.check(run.x_final, run.f_final, self.epsilon))
            out.append(_reduce(i, "me", ms, run, ok))
        return out


@dataclass(frozen=True)
class ProtocolWorkload:
    """One ``run_benchmark`` call over every method of the comparison, on
    log-sum-exp instances at epsilon 0.01."""

    name: str
    sizes: tuple[int, ...]
    instances: int

    def config(self, seed: int, instances: int | None = None) -> bench.BenchConfig:
        return bench.BenchConfig(kind="logsumexp", sizes=self.sizes,
                                 instances_per_size=instances or self.instances,
                                 epsilon=0.01, base_seed=seed,
                                 methods=PROTOCOL_METHODS, variant=Variant.DECREASE_SEARCH)

    def setup(self, seed: int):
        """Warm up on one instance per size; ``run_benchmark`` generates its own."""
        bench.run_benchmark(self.config(seed, instances=1))
        return seed

    def references(self, seed: int, state) -> dict:
        return {(n, i): Reference(objectives.generate_instance("logsumexp", n, seed + i)[0])
                for n in self.sizes for i in range(self.instances)}

    def run_pass(self, seed, refs, tracer=None) -> list[Solve]:
        cfg = self.config(seed)
        if tracer is None:
            _, details = bench.run_benchmark(cfg)
        else:
            _, details = tracer.call("bench.run_benchmark", "bench", bench.run_benchmark,
                                     (cfg,), {})
        out = []
        for d in details:
            ok = (d.termination == Termination.CONVERGED.value
                  and refs[(d.n, d.instance)].check(d.run.x_final, d.final_value, 0.01))
            out.append(_reduce((d.method, d.n, d.instance), d.method,
                               d.wall_time_ms, d.run, ok))
        expected = len(self.sizes) * self.instances * len(PROTOCOL_METHODS)
        if len(out) != expected:
            raise RuntimeError(f"run_benchmark returned {len(out)} runs, expected {expected}")
        return out


# Why each workload is here is recorded in BENCHMARK.json and README.md.
FULL = {
    "quad-wide": PoolWorkload("quad-wide", "quadratic", 1000, 0.01, pool=2, kappa=10.0),
    "lse-tight": PoolWorkload("lse-tight", "logsumexp", 10000, 1e-8, pool=16),
    "protocol": ProtocolWorkload("protocol", sizes=(100, 1000, 4000), instances=10),
}

# Same shapes at sizes that finish in about a second, for the smoke test.
TINY = {
    "quad-wide": PoolWorkload("quad-wide", "quadratic", 80, 0.01, pool=1, kappa=10.0),
    "lse-tight": PoolWorkload("lse-tight", "logsumexp", 300, 1e-8, pool=2),
    "protocol": ProtocolWorkload("protocol", sizes=(20, 50), instances=2),
}
