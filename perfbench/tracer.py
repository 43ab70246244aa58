"""Span tracing of the solver's layers, applied from outside the program.

For the length of a traced pass the tracer rebinds the module attributes the
program calls through (``TARGETS``) to wrappers that record a span around
each call, and it hands the solver objectives wrapped in a counting, timing
proxy.  Nothing in the package is edited, and the untimed, unwrapped code
runs again as soon as the pass ends.

A span records its name, layer, parent, start and end.  Objective calls are
not spans: each one is charged to the innermost open span as a count and a
time, so a span's self time is its duration minus its child spans and minus
the objective time charged to it.  Spans are kept in memory.

The proxy's own cost outside the window it times (dispatching through it,
the first clock read, its bookkeeping) would land in the enclosing span's
self time.  ``Tracer.calibrate`` measures that cost per call on an idle
objective, and ``layer_metrics`` subtracts calls x cost from each span's self
time and from the total.  The span wrappers' own cost is not corrected: it
is charged to the parent span's self time.
"""
from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

LAYERS = ("objectives", "levelstep", "geometry", "linesearch", "solver",
          "baselines", "bench")

UNITS = {
    "objectives.value_calls": "count/solve",
    "objectives.gradient_calls": "count/solve",
    "objectives.value_us": "us",
    "objectives.gradient_us": "us",
    "objectives.self_share": "ratio",
    "objectives.value_gbps_computed": "GB/s",
    "levelstep.calls": "count/solve",
    "levelstep.self_share": "ratio",
    "levelstep.value_evals_per_call": "count/call",
    "levelstep.grad_evals_per_call": "count/call",
    "levelstep.slope_path_frac": "ratio",
    "levelstep.stationary_frac": "ratio",
    "linesearch.calls": "count/solve",
    "linesearch.self_share": "ratio",
    "linesearch.evals_per_call": "count/call",
    "linesearch.useful_frac": "ratio",
    "geometry.calls": "count/solve",
    "geometry.us_per_call": "us/call",
    "geometry.self_share": "ratio",
    "geometry.degenerate_frac": "ratio",
    "solver.self_share": "ratio",
    "solver.evals_per_iter.level": "count/iter",
    "solver.evals_per_iter.semiline": "count/iter",
    "solver.evals_per_iter.driver": "count/iter",
    "solver.branch_ellipse_frac": "ratio",
    "solver.branch_midpoint_frac": "ratio",
    "baselines.self_share": "ratio",
    "baselines.gd.linesearch_share": "ratio",
    "bench.generate_ms": "ms",
    "bench.overhead_share": "ratio",
    "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child_s",
                 "n_value", "n_grad", "value_s", "grad_s", "flag", "raised")

    def __init__(self, name: str, layer: str, parent: int):
        self.name = name
        self.layer = layer
        self.parent = parent            # index into Tracer.spans, -1 for a root
        self.start = self.end = 0.0
        self.child_s = 0.0              # filled in by Tracer.close_all
        self.n_value = self.n_grad = 0
        self.value_s = self.grad_s = 0.0
        self.flag = False               # per-layer outcome, see TARGETS
        self.raised = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def evals(self) -> int:
        return self.n_value + self.n_grad

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.value_s - self.grad_s


def computed_bytes(problem) -> int:
    """Bytes of problem data one value call reads: a quadratic's matrix, or a
    log-sum-exp's two weight vectors and the point."""
    a = getattr(problem, "a", None)
    if a is not None:
        return a.nbytes
    return problem.alpha.nbytes + problem.beta.nbytes + 8 * problem.dimension


class TracedObjective:
    """Counting, timing proxy; every attribute but value and gradient is forwarded."""

    __slots__ = ("_inner", "_tracer", "_bytes")

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer
        self._bytes = computed_bytes(inner)

    def value(self, x):
        start = perf_counter()
        try:
            return self._inner.value(x)
        finally:
            elapsed = perf_counter() - start
            span = self._tracer.current()
            span.n_value += 1
            span.value_s += elapsed
            self._tracer.value_bytes += self._bytes

    def gradient(self, x):
        start = perf_counter()
        try:
            return self._inner.gradient(x)
        finally:
            elapsed = perf_counter() - start
            span = self._tracer.current()
            span.n_grad += 1
            span.grad_s += elapsed

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Idle:
    """Objective that does no work, for timing the proxy alone."""

    a = SimpleNamespace(nbytes=0)

    def value(self, x):
        return 0.0

    def gradient(self, x):
        return x


def _outside_s(method: str, calls: int = 20000, rounds: int = 5) -> float:
    """Seconds per call the proxy spends outside its timed window, beyond
    what a direct call of the same objective costs; median of ``rounds``."""
    idle = _Idle()
    tracer = Tracer()
    proxied = getattr(TracedObjective(idle, tracer), method)
    direct = getattr(idle, method)
    window = tracer.unattributed
    samples = []
    for _ in range(rounds):
        window.value_s = window.grad_s = 0.0
        start = perf_counter()
        for _ in range(calls):
            proxied(None)
        through_proxy = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            direct(None)
        plain = perf_counter() - start
        timed = window.value_s + window.grad_s
        samples.append(max(0.0, (through_proxy - timed - plain) / calls))
    return statistics.median(samples)


def _ray_useful(result, args, kwargs) -> bool:
    """The ray search found a point below its base value h0."""
    h0 = kwargs.get("h0", args[4] if len(args) > 4 else None)
    return h0 is not None and result[1] < h0


def _level_stationary(result, args, kwargs) -> bool:
    return bool(getattr(result, "near_stationary", False))


# (module, attribute, span name, layer, outcome flag).  run_method's span
# takes its layer from the method: "me" is the solver, the rest baselines.
TARGETS = (
    ("solver", "find_level_step", "levelstep.find_level_step", "levelstep", _level_stationary),
    ("solver", "build_frame", "geometry.build_frame", "geometry", None),
    ("solver", "center_direction", "geometry.center_direction", "geometry", None),
    ("solver", "minimize_on_ray", "linesearch.minimize_on_ray", "linesearch", _ray_useful),
    ("baselines", "minimize_on_ray", "linesearch.minimize_on_ray", "linesearch", _ray_useful),
    ("bench", "generate_instance", "bench.generate_instance", "bench", None),
    ("bench", "run_method", "bench.run_method", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.unattributed = Span("unattributed", "objectives", -1)
        self.value_bytes = 0
        self.missing: list[str] = []
        self.value_outside_s = self.grad_outside_s = 0.0

    def calibrate(self) -> None:
        """Measure the proxy's per-call cost outside its timed window."""
        self.value_outside_s = _outside_s("value")
        self.grad_outside_s = _outside_s("gradient")

    def outside_us(self) -> dict[str, float]:
        return {"value": self.value_outside_s * 1e6, "gradient": self.grad_outside_s * 1e6}

    def self_s(self, span: Span) -> float:
        """A span's self time less the proxy cost charged to it."""
        return (span.self_s - span.n_value * self.value_outside_s
                - span.n_grad * self.grad_outside_s)

    def current(self) -> Span:
        return self.spans[self.stack[-1]] if self.stack else self.unattributed

    def objective(self, problem) -> TracedObjective:
        return TracedObjective(problem, self)

    def call(self, name, layer, fn, args, kwargs, flag=None):
        span = Span(name, layer, self.stack[-1] if self.stack else -1)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.raised = True
            raise
        finally:
            span.end = perf_counter()
            self.stack.pop()
        if flag is not None:
            span.flag = flag(result, args, kwargs)
        return result

    def _wrapper(self, fn, name, layer, flag):
        if name == "bench.run_method":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                method = args[0] if args else kwargs["method"]
                if method == "me":
                    return self.call("solver.minimize", "solver", fn, args, kwargs)
                return self.call(f"baselines.{method}", "baselines", fn, args, kwargs)
        elif name == "bench.generate_instance":  # hand back a proxied objective
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                problem, x0 = self.call(name, layer, fn, args, kwargs)
                return self.objective(problem), x0
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, layer, fn, args, kwargs, flag)
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Rebind every target present in ``modules`` for the duration of the block.

        A target that is missing is recorded in ``missing`` and skipped.
        """
        saved = []
        try:
            for module, attr, name, layer, flag in TARGETS:
                mod = modules.get(module)
                original = getattr(mod, attr, None)
                if original is None:
                    label = f"{module}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrapper(original, name, layer, flag))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def close_all(self) -> None:
        """Charge each span's duration to its parent's child time."""
        for span in self.spans:
            span.child_s = 0.0
        for span in self.spans:
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.duration


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, *, solves: int, me_iterations: int,
                  ellipse_steps: int, midpoint_steps: int,
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer numbers from the spans of the traced passes.

    ``solves`` is the number of traced solves, ``me_iterations`` the
    iterations of the ellipse-center runs among them and ``*_steps`` how
    many of those took each branch.
    """
    tracer.close_all()
    spans = tracer.spans
    by_layer = {layer: [s for s in spans if s.layer == layer] for layer in LAYERS}
    charged = spans + [tracer.unattributed]
    total = (sum(s.duration for s in spans if s.parent < 0)
             - sum(s.n_value for s in spans) * tracer.value_outside_s
             - sum(s.n_grad for s in spans) * tracer.grad_outside_s)
    n_value = sum(s.n_value for s in charged)
    n_grad = sum(s.n_grad for s in charged)
    value_s = sum(s.value_s for s in charged)
    grad_s = sum(s.grad_s for s in charged)

    def share(layer):
        return _ratio(sum(tracer.self_s(s) for s in by_layer[layer]), total)

    def parent_layer(span):
        return spans[span.parent].layer if span.parent >= 0 else ""

    level = by_layer["levelstep"]
    ray = by_layer["linesearch"]
    frames = [s for s in by_layer["geometry"] if s.name == "geometry.build_frame"]
    gd = [i for i, s in enumerate(spans) if s.name == "baselines.gd"]
    gd_set = set(gd)
    run_benchmark = [s for s in by_layer["bench"] if s.name == "bench.run_benchmark"]
    generate = [s for s in by_layer["bench"] if s.name == "bench.generate_instance"]

    return {
        "objectives.value_calls": _ratio(n_value, solves),
        "objectives.gradient_calls": _ratio(n_grad, solves),
        "objectives.value_us": _ratio(value_s, n_value) * 1e6,
        "objectives.gradient_us": _ratio(grad_s, n_grad) * 1e6,
        "objectives.self_share": _ratio(value_s + grad_s, total),
        "objectives.value_gbps_computed": _ratio(tracer.value_bytes, value_s) / 1e9,
        "levelstep.calls": _ratio(len(level), solves),
        "levelstep.self_share": share("levelstep"),
        "levelstep.value_evals_per_call": _ratio(sum(s.n_value for s in level), len(level)),
        "levelstep.grad_evals_per_call": _ratio(sum(s.n_grad for s in level), len(level)),
        "levelstep.slope_path_frac": _ratio(sum(s.n_grad > 0 for s in level), len(level)),
        "levelstep.stationary_frac": _ratio(sum(s.flag for s in level), len(level)),
        "linesearch.calls": _ratio(len(ray), solves),
        "linesearch.self_share": share("linesearch"),
        "linesearch.evals_per_call": _ratio(sum(s.evals for s in ray), len(ray)),
        "linesearch.useful_frac": _ratio(sum(s.flag for s in ray), len(ray)),
        "geometry.calls": _ratio(len(frames), solves),
        "geometry.us_per_call": _ratio(sum(s.duration for s in by_layer["geometry"]),
                                       len(frames)) * 1e6,
        "geometry.self_share": share("geometry"),
        "geometry.degenerate_frac": _ratio(sum(s.raised for s in by_layer["geometry"]),
                                           len(frames)),
        "solver.self_share": share("solver"),
        "solver.evals_per_iter.level": _ratio(sum(s.evals for s in level), me_iterations),
        "solver.evals_per_iter.semiline": _ratio(
            sum(s.evals for s in ray if parent_layer(s) == "solver"), me_iterations),
        "solver.evals_per_iter.driver": _ratio(
            sum(s.evals for s in by_layer["solver"]), me_iterations),
        "solver.branch_ellipse_frac": _ratio(ellipse_steps, me_iterations),
        "solver.branch_midpoint_frac": _ratio(midpoint_steps, me_iterations),
        "baselines.self_share": share("baselines"),
        "baselines.gd.linesearch_share": _ratio(
            sum(s.duration for s in ray if s.parent in gd_set),
            sum(spans[i].duration for i in gd)),
        "bench.generate_ms": _ratio(sum(s.duration for s in generate), len(generate)) * 1e3,
        "bench.overhead_share": _ratio(sum(tracer.self_s(s) for s in run_benchmark),
                                       sum(s.duration for s in run_benchmark)),
        "trace.overhead_frac": overhead_frac,
    }
