"""Strongly convex test objectives.

Two families: dense quadratics ``0.5 x'Ax - b'x`` with a positive definite
matrix, and a log-sum-exp of scaled squares plus a quadratic penalty.  Both
expose ``dimension``, ``value(x)``, ``gradient(x)`` and a strong-convexity
lower bound ``mu`` when it is known.  Instances are generated from seeds so
every run is reproducible, and they round-trip through plain JSON.

An objective is any object with ``dimension``, ``value(x)`` and
``gradient(x)``.  The searches along a ray ask ``restrict(obj, x, d, f, g,
turns)``, with the value f and gradient g at x that the caller holds, for
the line ``t -> f(x + t d)``, which answers ``value(t)``, ``slope(t)`` and
``gradient(t)``.  An objective may offer a cheaper restriction through an
optional ``along(x, d, f, g, turns)`` method.  Both families do: a
quadratic's line is a parabola with coefficients from f, g and Ad, so every
query costs O(1); a log-sum-exp line shares one set of exponential weights
among the queries at one t and takes a slope without forming the gradient.
Any other objective gets the generic line over its own ``value`` and
``gradient``.  No other line holds f or g; a search is handed its base
value and slope.
A line is ``pointwise`` when its value and gradient at t are ``value(x +
t d)`` and ``gradient(x + t d)`` bit for bit: the generic and log-sum-exp
lines are, a quadratic's (its gradient g0 + t Ad drifts) and a line
without the attribute are not.
A log-sum-exp point and line share one exponent rule, alpha (u u), one
weighing, one value and one gradient, so a line's value and gradient at
t = 0 are the pointwise ones bit for bit.
An objective may also offer ``value_and_gradient(x)``, the pair at one
point for less than the two calls: a quadratic's takes one product Ax,
and its ``value`` and ``gradient`` are the halves of that pair.
Every line's ``turn(t, x, e, krylov)`` starts a line through x, its point at
t, along a new direction e = alpha d + gamma A d in its Krylov plane.  A
quadratic's line restricted with ``turns=True`` holds A^2 d beside Ad, both
from one pass over A (``matrix_powers``), so the new line takes Ae = alpha
Ad + gamma A^2 d and the line's value and gradient at t with no product;
every other line restarts at x along e, as ``restrict(obj, x, e, f, g,
turns)`` would.
``CountingObjective`` counts every query an objective answers, pointwise or
along a line.  Along any line a query costs what the generic line would
take, so a count measures the oracle queries the search made, not the line
that answered them, save at convergence: the descent loop takes f and g at
x again after a step on a line that is not pointwise, so a run that ends on
a quadratic's own line takes one value and one gradient more than on the
generic line.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError


def _is_count(value) -> bool:
    """Whether value is an integer of an integral type, bool excepted."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected a point of dimension {n}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class QuadraticProblem:
    """f(x) = 0.5 x'Ax - b'x with A symmetric positive definite.

    ``mu`` is the smallest eigenvalue of A when known (always set for
    generated instances): None or a finite positive number.
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
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("matrix and right-hand side must be finite")
        scale = float(np.abs(a).max()) or 1.0
        if float(np.abs(a - a.T).max()) > 1e-12 * scale:
            raise ValueError("matrix must be symmetric")
        mu = self.mu
        if mu is not None:
            if (isinstance(mu, bool) or not isinstance(mu, numbers.Real)
                    or not 0.0 < mu < math.inf):
                raise ValueError("mu must be None or a finite positive number")
            object.__setattr__(self, "mu", float(mu))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        return self.b.shape[0]

    def value(self, x) -> float:
        return self.value_and_gradient(x)[0]

    def gradient(self, x) -> np.ndarray:
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x) -> tuple[float, np.ndarray]:
        """The value and the gradient at x, from one product Ax."""
        x = _check_point(x, self.dimension)
        ax = self.a @ x
        return float(0.5 * x.dot(ax) - self.b.dot(x)), ax - self.b

    def along(self, x, d, f, g, turns) -> "QuadraticLine":
        """The parabola t -> f(x + t d), from the value ``f`` and gradient
        ``g`` at x and the product Ad; it does not read x.  With ``turns``
        the line also holds A^2 d, taken in the same pass over A, so that
        ``QuadraticLine.turn`` needs no product.
        """
        d = _check_point(d, self.b.shape[0])
        ad, a2d = matrix_powers(self.a, d) if turns else (self.a @ d, None)
        return QuadraticLine(float(f), np.asarray(g, dtype=float), d, ad, a2d)

    def solution(self) -> np.ndarray:
        """The unique minimizer, from a direct linear solve."""
        return np.linalg.solve(self.a, self.b)


_EXP_FLOOR = 700.0  # numpy's exp leaves its fast path below about -708
_SHIFT_ABOVE = 500.0  # exponents up to this leave n e^z far from overflow


def _lse_weigh(alpha, beta, u, w, uu):
    """(shift, sum w, beta . (u u)) for w = exp(z - shift) in ``w``, where
    z = alpha (u u), the one exponent rule, with u u in ``uu`` (which may be
    ``w``).  Every z is at least 0, so exp runs unshifted on its fast path
    up to max z = _SHIFT_ABOVE.  Past it (or at a NaN) the shift is max z,
    and exponents below -_EXP_FLOOR are raised to it: beside a largest
    weight of 1, weights below e^-700 change neither the sum nor, with
    beta >= 0.5, a gradient."""
    bu = beta.dot(np.multiply(u, u, uu))
    z = np.multiply(alpha, uu, w)
    zmax = z[z.argmax()]  # max z, NaN first; faster than np.maximum.reduce up to n = 10^4
    shift = 0.0 if zmax <= _SHIFT_ABOVE else zmax
    if shift:
        z -= shift
        np.maximum(z, -_EXP_FLOOR, out=z)
    np.exp(z, z)
    return shift, np.add.reduce(z), bu


def _lse_value(shift, sw, bu) -> float:
    """shift + ln(sum w) + beta . (u u), the last taken by the weighing."""
    val = float(shift) + float(np.log(sw)) + float(bu)
    if not math.isfinite(val):
        raise NumericError("log-sum-exp value is not finite despite shifting")
    return val


def _lse_gradient(alpha, beta, u, w, sw) -> np.ndarray:
    """2 u (w alpha / sum w + beta) in a new array; g . g is finite only when g is."""
    g = np.multiply(w, alpha)
    g *= 1.0 / sw
    g += beta
    g *= u
    g += g
    if not (math.isfinite(g.dot(g)) or np.isfinite(g).all()):
        raise NumericError("log-sum-exp gradient is not finite despite shifting")
    return g


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
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise ValueError("all weights must be finite")
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
        w, uu = np.empty((2, x.shape[0]))
        return _lse_value(*_lse_weigh(self.alpha, self.beta, x, w, uu))

    def gradient(self, x) -> np.ndarray:
        x = _check_point(x, self.dimension)
        w = np.empty(x.shape)
        sw = _lse_weigh(self.alpha, self.beta, x, w, w)[1]
        return _lse_gradient(self.alpha, self.beta, x, w, sw)

    def along(self, x, d, f, g, turns) -> "LogSumExpLine":
        """The line t -> f(x + t d).  It reads neither ``f`` nor ``g``, and
        it turns by restarting, so ``turns`` changes nothing."""
        n = self.alpha.shape[0]
        return LogSumExpLine(self.alpha, self.beta, _check_point(x, n), _check_point(d, n))

    def solution(self) -> np.ndarray:
        return np.zeros(self.dimension)


# Row panels of A small enough that the second product on each is read from
# L2.  On a 2 MiB-L2 Xeon the n = 1000 pair took 395 us with 512 KiB and
# with 1 MiB panels, 435 us with 256 KiB ones, and 490 us as two products;
# 512 KiB still fits beside the vectors in a 1 MiB L2, which was not timed.
PANEL_BYTES = 1 << 19


def matrix_powers(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A d, A (A d)) for a symmetric A, in one pass over A.

    By symmetry A (A d) = sum_j A_j^T (A_j d) over the row panels A_j, so
    each panel of about ``PANEL_BYTES`` is read from memory once and used
    for both products while it is still in cache.  The panels are views of
    A; a matrix that fits in one panel takes the two products whole.
    """
    n = d.shape[0]
    rows = max(1, PANEL_BYTES // (a.itemsize * n))
    if rows >= n:
        ad = a @ d
        return ad, ad @ a
    ad = np.empty(n)
    a2d = np.zeros(n)
    for i in range(0, n, rows):
        panel = a[i:i + rows]
        ad[i:i + rows] = part = panel @ d
        a2d += part @ panel
    return ad, a2d


class QuadraticLine:
    """f0 + t <g0, d> + t^2 <d, Ad> / 2: a quadratic along x + t d.

    Its gradient g0 + t Ad is affine in t, so no query needs a matrix
    product.  A line that holds A^2 d as well (``a2d``) can turn.
    """

    __slots__ = ("f0", "gd", "dad", "g0", "ad", "a2d")
    pointwise = False  # g0 + t Ad drifts from the product A(x + t d) - b by rounding

    def __init__(self, f0: float, g0: np.ndarray, d: np.ndarray, ad: np.ndarray,
                 a2d: np.ndarray | None):
        self.f0 = f0
        self.ad = ad
        self.a2d = a2d
        self.gd = float(g0.dot(d))
        self.dad = float(d.dot(ad))
        self.g0 = g0

    def value(self, t: float) -> float:
        return self.f0 + t * (self.gd + 0.5 * t * self.dad)

    def slope(self, t: float) -> float:
        return self.gd + t * self.dad

    def gradient(self, t: float) -> np.ndarray:
        return self.g0 + t * self.ad

    def turn(self, t: float, x: np.ndarray, e: np.ndarray, krylov) -> "QuadraticLine":
        """The parabola through this line's point at t along e = alpha d +
        gamma A d, with (alpha, gamma) = ``krylov``, from this line's value
        and gradient at t and Ae = alpha Ad + gamma A^2 d: no product.  ``x``
        is the caller's copy of that point, which the parabola does not need.

        The two terms of Ae cancel as e nears d.  On the ellipse step alpha
        and gamma grow as 1 / sin(theta), so Ae is off by about
        eps / sin(theta) relative where A @ e is off by eps.  The step's
        searches stop at v of order sin(theta) |g| / (e . Ae), so the
        gradient there stays within eps |g| of the one A @ e gives, and the
        value within eps / sin(theta) of the most f can fall along e.
        """
        if self.a2d is None:
            raise ValueError("a quadratic line turns only when restricted with turns=True")
        alpha, gamma = krylov
        return QuadraticLine(self.value(t), self.gradient(t), e,
                             alpha * self.ad + gamma * self.a2d, None)


class LogSumExpLine:
    """ln(sum_i exp(alpha_i u_i^2)) + sum_i beta_i u_i^2 along u = x + t d.

    The first query at a t computes u, u u, beta . (u u) and w = exp(alpha
    (u u) - shift) once, into buffers the line owns; a value, slope or
    gradient at that t reuses them.  The weighing, the value and the
    gradient run the pointwise ones' code, so the line's value and gradient
    at t are ``value(x + t d)`` and ``gradient(x + t d)`` bit for bit, and
    at t = 0 ``value(x)`` and ``gradient(x)``: the line is ``pointwise``.
    A slope needs no gradient vector: 2 (sum w alpha d u / sum w + sum
    beta d u), its own sum, which agrees with ``gradient . d`` to rounding.
    A turn hands the buffers on; queried again, this line takes new ones.
    """

    __slots__ = ("alpha", "beta", "x", "d", "ad", "bd",
                 "_t", "_u", "_w", "_tmp", "_shift", "_sw", "_bu")
    pointwise = True

    def __init__(self, alpha, beta, x, d, buffers=(None, None, None)):
        self.alpha, self.beta = alpha, beta
        self.x, self.d = x, d
        self.ad = self.bd = None  # alpha d and beta d, on the first slope
        self._t = None  # t of u and w
        self._u, self._w, self._tmp = buffers  # on the first weighing when None

    def _weigh(self, t: float) -> None:
        if t != self._t:
            self._t = None  # until the buffers hold t
            if self._u is None:
                self._u, self._w, self._tmp = np.empty((3, self.x.shape[0]))
            if t == 0.0:
                self._u[...] = self.x
            else:
                np.add(np.multiply(self.d, t, self._u), self.x, self._u)
            self._shift, self._sw, self._bu = _lse_weigh(
                self.alpha, self.beta, self._u, self._w, self._tmp)
            self._t = t

    def value(self, t: float) -> float:
        self._weigh(t)
        return _lse_value(self._shift, self._sw, self._bu)

    def slope(self, t: float) -> float:
        self._weigh(t)
        # the gradient is not finite exactly when the weights are not; a slope
        # that overflows from a finite gradient is returned, as the generic
        # line returns it
        if not math.isfinite(self._sw):
            raise NumericError("log-sum-exp gradient is not finite despite shifting")
        if self.ad is None:
            self.ad, self.bd = self.alpha * self.d, self.beta * self.d
        adu = np.multiply(self.ad, self._u, self._tmp)
        return 2.0 * (float(self._w.dot(adu)) / float(self._sw)
                      + float(self.bd.dot(self._u)))

    def gradient(self, t: float) -> np.ndarray:
        self._weigh(t)
        return _lse_gradient(self.alpha, self.beta, self._u, self._w, self._sw)

    def turn(self, t: float, x: np.ndarray, e: np.ndarray, krylov) -> "LogSumExpLine":
        """The line through x, the point at t, along e, started afresh in this line's buffers."""
        buffers, self._t, self._u = (self._u, self._w, self._tmp), None, None
        return LogSumExpLine(self.alpha, self.beta, x, e, buffers)


class RayLine:
    """t -> f(x + t d) through the objective's own value and gradient.

    It keeps the last gradient it took, so the gradient at the point a
    slope search ended on costs nothing more.
    """

    __slots__ = ("obj", "x", "d", "_t", "_g")
    pointwise = True

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

    def turn(self, t: float, x: np.ndarray, e: np.ndarray, krylov) -> "RayLine":
        """The line through x, the point at t, along e, started afresh."""
        return RayLine(self.obj, x, e)


def restrict(obj, x, d, f, g, turns):
    """The line t -> f(x + t d), with ``value(t)``, ``slope(t)`` and ``gradient(t)``.

    ``f`` and ``g`` are the value and gradient at x that the caller holds;
    ``turns`` says the caller will turn off the line.  Uses the objective's
    own ``along(x, d, f, g, turns)`` when it has one, else a ``RayLine``
    that evaluates f and its gradient at each queried point.
    """
    along = getattr(obj, "along", None)
    if along is not None:
        return along(x, d, f, g, turns)
    return RayLine(obj, x, d)


class CountingObjective:
    """Pass-through wrapper that counts value and gradient evaluations.

    Pointwise, each ``value(x)`` and ``gradient(x)`` counts one.  Along a
    line, ``_CountedLine`` charges each query what the generic line would
    take, whichever line answers it.
    """

    def __init__(self, inner):
        self.inner = inner
        self.n_value = 0
        self.n_grad = 0

    def value(self, x) -> float:
        self.n_value += 1
        return self.inner.value(x)

    def gradient(self, x):
        self.n_grad += 1
        return self.inner.gradient(x)

    def value_and_gradient(self, x):
        """One value and one gradient, by the inner objective's own pair if it has one."""
        both = getattr(self.inner, "value_and_gradient", None)
        if both is None:
            return self.value(x), self.gradient(x)
        self.n_value += 1
        self.n_grad += 1
        return both(x)

    def along(self, x, d, f, g, turns):
        return _CountedLine(self, restrict(self.inner, x, d, f, g, turns))


class _CountedLine:
    """Charges the queries on a line to a counter by the generic line's rule.

    A slope or gradient at the t of the last slope or gradient is free, and
    every other query costs one evaluation.
    """

    __slots__ = ("counter", "line", "_gt", "pointwise")

    def __init__(self, counter: CountingObjective, line):
        self.counter = counter
        self.line = line
        self.pointwise = getattr(line, "pointwise", False)  # the inner line's word
        self._gt = None  # t of the last slope or gradient

    def value(self, t: float) -> float:
        self.counter.n_value += 1
        return self.line.value(t)

    def slope(self, t: float) -> float:
        if t != self._gt:
            self.counter.n_grad += 1
            self._gt = t
        return self.line.slope(t)

    def gradient(self, t: float) -> np.ndarray:
        if t != self._gt:
            self.counter.n_grad += 1
            self._gt = t
        return self.line.gradient(t)

    def turn(self, t: float, x, e, krylov) -> "_CountedLine":
        return _CountedLine(self.counter, self.line.turn(t, x, e, krylov))


def check_gradient(obj, x, h: float = 1e-6) -> float:
    """Max relative mismatch between the analytic gradient and central differences.

    Returns max_i |g_i - (f(x + h e_i) - f(x - h e_i)) / 2h| / (1 + |g_i|),
    and raises NumericError on a term that is not finite (f overflows).
    """
    if not 0.0 < h < math.inf:
        raise ValueError("step must be finite and positive")
    x = _check_point(x, obj.dimension)
    g = obj.gradient(x)
    worst = 0.0
    for i in range(obj.dimension):
        step = np.zeros_like(x)
        step[i] = h
        diff = (obj.value(x + step) - obj.value(x - step)) / (2.0 * h)
        err = abs(g[i] - diff) / (1.0 + abs(g[i]))
        if not math.isfinite(err):
            raise NumericError(f"gradient check is not finite at coordinate {i}")
        worst = max(worst, err)
    return worst


@dataclass(frozen=True)
class GenParams:
    """Knobs for random instance generation."""

    kappa: float = 1000.0  # condition-number target for quadratics

    def __post_init__(self):
        if not 1.0 <= self.kappa < math.inf:
            raise ValueError("condition-number target must be finite and >= 1")


KINDS = ("quadratic", "logsumexp")
WEIGHTS = (0.5, 1.5)      # range of the log-sum-exp weights
MAX_QUADRATIC_DIM = 8000  # memory guard for the dense n x n matrix


def generate_instance(kind: str, n: int, seed: int, params: GenParams | None = None):
    """Seeded random instance of the given family plus a Gaussian start point.

    Quadratics get a spectrum drawn log-uniformly from [1, kappa] under a
    random rotation; log-sum-exp weights are uniform in ``WEIGHTS``.
    The same (kind, n, seed, params) reproduces the same instance and the
    same start point, bit for bit, under a fixed BLAS thread count.  A
    quadratic's QR factorization and products may round differently under
    another count: with OpenBLAS, the instances at n = 100 and 1000 differ
    between 1 and 2 threads.

    Returns (problem, x0).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    params = params or GenParams()
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        if n > MAX_QUADRATIC_DIM:
            raise ValueError(
                f"dense quadratic of dimension {n} exceeds the memory guard "
                f"({MAX_QUADRATIC_DIM})"
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
        alpha = rng.uniform(*WEIGHTS, n)
        beta = rng.uniform(*WEIGHTS, n)
        problem = LogSumExpProblem(alpha, beta)
    x0 = rng.standard_normal(n)
    return problem, x0


def problem_to_dict(problem, *, seed: int | None = None,
                    params: GenParams | None = None, x0=None) -> dict:
    """JSON-ready document with the problem data as flat arrays."""
    doc: dict = {"n": problem.dimension, "seed": seed}
    doc["params"] = None if params is None else asdict(params)
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


def _numbers(doc: dict, field: str) -> np.ndarray:
    try:
        return np.asarray(doc[field], dtype=float)
    except (TypeError, ValueError):  # an object, a string, a ragged list
        raise ValueError(f"{field} must be an array of numbers") from None


def problem_from_dict(doc: dict):
    """Inverse of problem_to_dict.  Returns (problem, x0_or_None).

    Raises ValueError on a document that is not an object, names an unknown
    kind, lacks a field, or holds an ``n`` that is not a positive integer or
    not the data's dimension, a data field or x0 that is not an array of
    numbers, or data the problem rejects.
    """
    if not isinstance(doc, dict):
        raise ValueError("a problem document must be a JSON object")
    kind = doc.get("kind")
    try:
        n = doc["n"]
        if not _is_count(n) or n < 1:
            raise ValueError("n must be a positive integer")
        if kind == "quadratic":
            a = _numbers(doc, "matrix").reshape(n, n)
            problem = QuadraticProblem(a, _numbers(doc, "b"), mu=doc.get("mu"))
        elif kind == "logsumexp":
            problem = LogSumExpProblem(_numbers(doc, "alpha"), _numbers(doc, "beta"))
        else:
            raise ValueError(f"unknown problem kind {kind!r}")
        if problem.dimension != n:
            raise ValueError(f"n = {n} does not match the problem data")
    except KeyError as exc:
        raise ValueError(f"problem document lacks {exc.args[0]!r}") from None
    x0 = doc.get("x0")
    if x0 is not None:
        x0 = _check_point(_numbers(doc, "x0"), n)
    return problem, x0


def save_problem(path, problem, *, seed: int | None = None,
                 params: GenParams | None = None, x0=None) -> None:
    doc = problem_to_dict(problem, seed=seed, params=params, x0=x0)
    Path(path).write_text(json.dumps(doc) + "\n")


def load_problem(path):
    doc = json.loads(Path(path).read_text())
    return problem_from_dict(doc)
