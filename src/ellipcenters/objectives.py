"""Strongly convex test objectives.

Two families: dense quadratics ``0.5 x'Ax - b'x`` with a positive definite
matrix, and a log-sum-exp of scaled squares plus a quadratic penalty.  Both
expose ``dimension``, ``value(x)``, ``gradient(x)`` and a strong-convexity
lower bound ``mu`` when it is known.  Instances are generated from seeds so
every run is reproducible, and they round-trip through plain JSON.

The searches along a ray ask ``restrict(obj, x, d)`` for the line
``t -> f(x + t d)``, which answers ``value(t)``, ``slope(t)`` and
``gradient(t)``.  An objective may offer a cheaper restriction through an
optional ``along(x, d, f, g)`` method (quadratics do: once the line holds
grad f(x) and Ad, every query along it costs O(1)); any other objective gets
the generic line over its own ``value`` and ``gradient``.
``CountingObjective`` counts every query an objective answers, pointwise or
along such a line.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import NumericError


@runtime_checkable
class Objective(Protocol):
    """Evaluation contract shared by all problem classes."""

    @property
    def dimension(self) -> int: ...

    def value(self, x: np.ndarray) -> float: ...

    def gradient(self, x: np.ndarray) -> np.ndarray: ...


def _check_point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected a point of dimension {n}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class QuadraticProblem:
    """f(x) = 0.5 x'Ax - b'x with A symmetric positive definite.

    ``mu`` is the smallest eigenvalue of A when known (always set for
    generated instances).
    """

    a: np.ndarray
    b: np.ndarray
    mu: float | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if b.shape != (a.shape[0],):
            raise ValueError("right-hand side length does not match the matrix")
        scale = float(np.abs(a).max()) or 1.0
        if float(np.abs(a - a.T).max()) > 1e-12 * scale:
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        return self.b.shape[0]

    def value(self, x) -> float:
        x = _check_point(x, self.dimension)
        return float(0.5 * (x @ (self.a @ x)) - self.b @ x)

    def gradient(self, x) -> np.ndarray:
        x = _check_point(x, self.dimension)
        return self.a @ x - self.b

    def along(self, x, d, f=None, g=None) -> "QuadraticLine":
        """The parabola t -> f(x + t d), from the product Ad.

        ``f`` and ``g`` are the value and gradient at x when the caller holds
        them; the product Ax is taken only when one of them is missing.
        """
        n = self.dimension
        x = _check_point(x, n)
        d = _check_point(d, n)
        if f is None or g is None:
            ax = self.a @ x
            # the same expressions as value and gradient, so value(0.0) == value(x)
            f = float(0.5 * (x @ ax) - self.b @ x) if f is None else f
            g = ax - self.b if g is None else g
        return QuadraticLine(float(f), np.asarray(g, dtype=float), d, self.a @ d)

    def solution(self) -> np.ndarray:
        """The unique minimizer, from a direct linear solve."""
        return np.linalg.solve(self.a, self.b)

    def min_value(self) -> float:
        return float(-0.5 * self.b @ self.solution())


@dataclass(frozen=True)
class LogSumExpProblem:
    """f(x) = ln(sum_i exp(alpha_i x_i^2)) + sum_i beta_i x_i^2.

    All weights must be positive; the global minimizer is the origin with
    value ln(n).  The quadratic penalty alone makes f strongly convex with
    ``mu = 2 min(beta)``.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.ndim != 1 or alpha.shape != beta.shape or alpha.size == 0:
            raise ValueError("alpha and beta must be equal-length nonempty vectors")
        if alpha.min() <= 0.0 or beta.min() <= 0.0:
            raise ValueError("all weights must be positive")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def dimension(self) -> int:
        return self.alpha.shape[0]

    @property
    def mu(self) -> float:
        return 2.0 * float(self.beta.min())

    def value(self, x) -> float:
        x = _check_point(x, self.dimension)
        sq = x * x
        z = self.alpha * sq
        # shift by the max exponent so exp never overflows
        zmax = float(z.max())
        val = zmax + float(np.log(np.exp(z - zmax).sum())) + float(self.beta @ sq)
        if not np.isfinite(val):
            raise NumericError("log-sum-exp value is not finite despite shifting")
        return val

    def gradient(self, x) -> np.ndarray:
        x = _check_point(x, self.dimension)
        z = self.alpha * x * x
        w = np.exp(z - z.max())
        w /= w.sum()
        g = 2.0 * x * (self.alpha * w + self.beta)
        if not np.all(np.isfinite(g)):
            raise NumericError("log-sum-exp gradient is not finite despite shifting")
        return g

    def solution(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def min_value(self) -> float:
        return float(np.log(self.dimension))


class QuadraticLine:
    """f0 + t <g0, d> + t^2 <d, Ad> / 2: a quadratic along x + t d.

    Its gradient g0 + t Ad is affine in t, so no query needs a matrix product.
    """

    __slots__ = ("f0", "gd", "dad", "g0", "ad")

    def __init__(self, f0: float, g0: np.ndarray, d: np.ndarray, ad: np.ndarray):
        self.f0 = f0
        self.gd = float(g0 @ d)
        self.dad = float(d @ ad)
        self.g0 = g0
        self.ad = ad

    def value(self, t: float) -> float:
        return self.f0 + t * (self.gd + 0.5 * t * self.dad)

    def slope(self, t: float) -> float:
        return self.gd + t * self.dad

    def gradient(self, t: float) -> np.ndarray:
        return self.g0 + t * self.ad


class RayLine:
    """t -> f(x + t d) through the objective's own value and gradient.

    It keeps the last gradient it took, so the gradient at the point a slope
    search ended on costs nothing more.
    """

    __slots__ = ("obj", "x", "d", "_t", "_g")

    def __init__(self, obj, x: np.ndarray, d: np.ndarray):
        self.obj = obj
        self.x = x
        self.d = d
        self._t = self._g = None

    def value(self, t: float) -> float:
        return self.obj.value(self.x + t * self.d)

    def slope(self, t: float) -> float:
        return float(self.gradient(t) @ self.d)

    def gradient(self, t: float) -> np.ndarray:
        if t != self._t:
            self._t, self._g = t, self.obj.gradient(self.x + t * self.d)
        return self._g


def restrict(obj, x, d, f=None, g=None):
    """The line t -> f(x + t d), with ``value(t)``, ``slope(t)`` and ``gradient(t)``.

    ``f`` and ``g`` are the value and gradient at x, when the caller already
    holds them.  Uses the objective's own ``along(x, d, f, g)`` when it has
    one, else a ``RayLine`` that evaluates f and its gradient at each queried
    point (and ignores ``f`` and ``g``).
    """
    along = getattr(obj, "along", None)
    if along is not None:
        return along(x, d, f, g)
    return RayLine(obj, x, d)


class CountingObjective:
    """Pass-through wrapper that counts value and gradient evaluations.

    Along a line, each ``value(t)`` counts as one value evaluation and each
    ``slope(t)`` or ``gradient(t)`` as one gradient evaluation, whichever
    line serves them.
    """

    def __init__(self, inner):
        self.inner = inner
        self.n_value = 0
        self.n_grad = 0

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    def value(self, x) -> float:
        self.n_value += 1
        return self.inner.value(x)

    def gradient(self, x):
        self.n_grad += 1
        return self.inner.gradient(x)

    def along(self, x, d, f=None, g=None):
        along = getattr(self.inner, "along", None)
        if along is None:  # the generic line already counts through self
            return RayLine(self, x, d)
        return _CountedLine(self, along(x, d, f, g))


class _CountedLine:
    __slots__ = ("counter", "line")

    def __init__(self, counter: CountingObjective, line):
        self.counter = counter
        self.line = line

    def value(self, t: float) -> float:
        self.counter.n_value += 1
        return self.line.value(t)

    def slope(self, t: float) -> float:
        self.counter.n_grad += 1
        return self.line.slope(t)

    def gradient(self, t: float) -> np.ndarray:
        self.counter.n_grad += 1
        return self.line.gradient(t)


def check_gradient(obj: Objective, x, h: float = 1e-6) -> float:
    """Max relative mismatch between the analytic gradient and central differences.

    Returns max_i |g_i - (f(x + h e_i) - f(x - h e_i)) / 2h| / (1 + |g_i|).
    """
    if h <= 0.0:
        raise ValueError("step must be positive")
    x = _check_point(x, obj.dimension)
    g = obj.gradient(x)
    worst = 0.0
    for i in range(obj.dimension):
        step = np.zeros_like(x)
        step[i] = h
        diff = (obj.value(x + step) - obj.value(x - step)) / (2.0 * h)
        worst = max(worst, abs(g[i] - diff) / (1.0 + abs(g[i])))
    return worst


@dataclass(frozen=True)
class GenParams:
    """Knobs for random instance generation."""

    kappa: float = 1000.0          # condition-number target for quadratics
    weight_low: float = 0.5        # weight range for the log-sum-exp family
    weight_high: float = 1.5
    max_quadratic_dim: int = 8000  # memory guard for the dense n x n matrix

    def __post_init__(self):
        if self.kappa < 1.0:
            raise ValueError("condition-number target must be >= 1")
        if not (0.0 < self.weight_low <= self.weight_high):
            raise ValueError("weight range must be positive and ordered")
        if self.max_quadratic_dim < 1:
            raise ValueError("matrix dimension guard must be positive")


KINDS = ("quadratic", "logsumexp")


def generate_instance(kind: str, n: int, seed: int, params: GenParams | None = None):
    """Seeded random instance of the given family plus a Gaussian start point.

    Quadratics get a spectrum drawn log-uniformly from [1, kappa] under a
    random rotation; log-sum-exp weights are uniform in the configured range.
    The same (kind, n, seed, params) always reproduces the same instance and
    the same start point, bit for bit.

    Returns (problem, x0).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    params = params or GenParams()
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        if n > params.max_quadratic_dim:
            raise ValueError(
                f"dense quadratic of dimension {n} exceeds the memory guard "
                f"({params.max_quadratic_dim}); raise max_quadratic_dim to allow it"
            )
        spectrum = np.exp(rng.uniform(0.0, np.log(params.kappa), n))
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        q = q * signs
        a = (q * spectrum) @ q.T
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(n)
        problem = QuadraticProblem(a, b, mu=float(spectrum.min()))
    else:
        alpha = rng.uniform(params.weight_low, params.weight_high, n)
        beta = rng.uniform(params.weight_low, params.weight_high, n)
        problem = LogSumExpProblem(alpha, beta)
    x0 = rng.standard_normal(n)
    return problem, x0


def problem_to_dict(problem, *, seed: int | None = None,
                    params: GenParams | None = None, x0=None) -> dict:
    """JSON-ready document with the problem data as flat arrays."""
    doc: dict = {"n": problem.dimension, "seed": seed}
    doc["params"] = None if params is None else {
        "kappa": params.kappa,
        "weight_low": params.weight_low,
        "weight_high": params.weight_high,
        "max_quadratic_dim": params.max_quadratic_dim,
    }
    if isinstance(problem, QuadraticProblem):
        doc["kind"] = "quadratic"
        doc["matrix"] = problem.a.ravel().tolist()
        doc["b"] = problem.b.tolist()
        doc["mu"] = problem.mu
    elif isinstance(problem, LogSumExpProblem):
        doc["kind"] = "logsumexp"
        doc["alpha"] = problem.alpha.tolist()
        doc["beta"] = problem.beta.tolist()
    else:
        raise ValueError(f"cannot serialize objective of type {type(problem).__name__}")
    doc["x0"] = None if x0 is None else np.asarray(x0, dtype=float).tolist()
    return doc


def problem_from_dict(doc: dict):
    """Inverse of problem_to_dict.  Returns (problem, x0_or_None)."""
    kind = doc.get("kind")
    n = int(doc["n"])
    if kind == "quadratic":
        a = np.asarray(doc["matrix"], dtype=float).reshape(n, n)
        problem = QuadraticProblem(a, np.asarray(doc["b"], dtype=float), mu=doc.get("mu"))
    elif kind == "logsumexp":
        problem = LogSumExpProblem(np.asarray(doc["alpha"], dtype=float),
                                   np.asarray(doc["beta"], dtype=float))
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    x0 = doc.get("x0")
    if x0 is not None:
        x0 = _check_point(x0, n)
    return problem, x0


def save_problem(path, problem, *, seed: int | None = None,
                 params: GenParams | None = None, x0=None) -> None:
    doc = problem_to_dict(problem, seed=seed, params=params, x0=x0)
    Path(path).write_text(json.dumps(doc) + "\n")


def load_problem(path):
    doc = json.loads(Path(path).read_text())
    return problem_from_dict(doc)
