import math
from types import SimpleNamespace

import numpy as np
import pytest

from ellipcenters.geometry import scaled_sumsq
from ellipcenters.levelstep import find_level_step
from ellipcenters.objectives import restrict
from ellipcenters.solver import run_scale

byte_bounds = getattr(np.lib, "array_utils", np).byte_bounds  # moved in numpy 2.0


class Tally:
    """Products taken with one matrix, and the passes they made over it.

    A product streams the rows of the matrix it touches, except a product on
    a row panel (a view of fewer rows than the matrix) right after one on
    the same panel, whose rows are still in cache.  ``passes`` is the rows
    streamed over the matrix's row count.
    """

    def __init__(self, matrix: np.ndarray):
        self.start = byte_bounds(matrix)[0]
        self.row_bytes = matrix.strides[0]
        self.n = matrix.shape[0]
        self.products = 0
        self.rows = 0
        self.last = None

    def record(self, view: np.ndarray) -> None:
        low, high = byte_bounds(view)
        block = ((low - self.start) // self.row_bytes,
                 (high - self.start - 1) // self.row_bytes + 1)
        self.products += 1
        if not (block == self.last and block[1] - block[0] < self.n):
            self.rows += block[1] - block[0]
        self.last = block

    @property
    def passes(self) -> float:
        return self.rows / self.n


class CountingMatrix(np.ndarray):
    """A view of a matrix that counts the products taken with it or with any
    view of it, ``m @ v`` and ``v @ m`` alike (``np.matmul`` too), and hands
    back plain arrays, so nothing downstream is counted twice."""

    def __array_finalize__(self, obj):
        self.tally = getattr(obj, "tally", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = []
        for operand in inputs:
            if isinstance(operand, CountingMatrix):
                if ufunc is np.matmul:
                    operand.tally.record(operand)
                operand = operand.view(np.ndarray)
            plain.append(operand)
        return getattr(ufunc, method)(*plain, **kwargs)

    @property
    def products(self) -> int:
        return self.tally.products

    @property
    def passes(self) -> float:
        return self.tally.passes


@pytest.fixture
def count_products():
    """Swap a quadratic's matrix for a counting view of the same data;
    returns the view, whose ``products`` and ``passes`` start at 0."""

    def install(problem):
        view = problem.a.view(CountingMatrix)
        view.tally = Tally(problem.a)
        object.__setattr__(problem, "a", view)  # the dataclass is frozen
        return view

    return install


def level_step(obj, x, f, g, t_init):
    """``find_level_step`` on the line ``me_step`` builds: from x along -g / s,
    with (|g / s|^2, s) = ``scaled_sumsq(g)``, from the value ``f`` and
    gradient ``g`` at x, under the run scale of a run started at x.
    Returns (t along -g / s, residual, the line)."""
    gg, s = scaled_sumsq(g)
    line = restrict(obj, x, g / -s, f, g, turns=True)
    t, r = find_level_step(line, t_init, h0=f, s0=-gg * s, scale=run_scale(x, f, (gg, s)))
    return t, r, line


def chord_midpoint_value(obj, rec):
    """f at the chord midpoint x - t g / 2 of an ME record: its ``f_mid``,
    or where the step took none (a semiline-min ellipse step that did not
    fall back to the midpoint records NaN), ``obj``'s value there."""
    if not math.isnan(rec.f_mid):
        return rec.f_mid
    return obj.value(rec.x - 0.5 * rec.t * obj.gradient(rec.x))


class Toy:
    """A two-dimensional objective from a value and a gradient function."""

    dimension = 2

    def __init__(self, value, gradient):
        self.value = value
        self.gradient = gradient


# objectives no method can minimize; every run must end in a numeric error
HOSTILE = {
    "infinite-start": Toy(lambda x: float("inf"), lambda x: 2.0 * x),
    "concave": Toy(lambda x: -float(x @ x), lambda x: -2.0 * x),
    "sign-flipped-gradient": Toy(lambda x: float(x @ x), lambda x: -2.0 * x),
    "linear": Toy(lambda x: float(-x[0]), lambda x: np.array([-1.0, 0.0])),
}


# gradients whose ray direction must be g / -s bit for bit, with (|g / s|^2,
# s) = scaled_sumsq(g): signed zeros and subnormals, where s = 1, a gradient
# whose |g|^2 overflows, where s = max |g_i|, and dtypes whose negation is
# not the division's (unsigned wraps, and bool has no negation)
RAY_GRADIENTS = {
    "signed-zeros-and-subnormals": np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1.0, 3.5]),
    "overflowing": np.array([1e300, -1e300, 0.0, -0.0, 5e-324, 1e-310, 3.0]),
    "unsigned": np.array([3, 0, 7], dtype=np.uint8),
    "bool": np.array([True, False, True]),
}


class _Stop(Exception):
    """Ends a run once its first line is built."""


def first_ray_direction(monkeypatch, module, run, g):
    """The direction of the first line ``module`` restricts to in ``run(obj,
    x0)``, where obj's gradient is g everywhere; the run ends there."""
    seen = []

    def spy(obj, x, d, f, g, turns):
        seen.append(d)
        raise _Stop

    monkeypatch.setattr(module, "restrict", spy)
    obj = SimpleNamespace(dimension=g.size, value=lambda x: 1.0, gradient=lambda x: g.copy())
    with pytest.raises(_Stop):
        run(obj, np.ones(g.size))
    return seen[0]


class ValueAndGradientOnly:
    """Exposes only dimension, value and gradient, so every query along a ray
    takes the generic line even when the wrapped objective has a cheaper one."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def dimension(self):
        return self.inner.dimension

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        return self.inner.gradient(x)


class NaNGradientAfter:
    """An objective whose gradient turns NaN after ``calls`` finite ones."""

    def __init__(self, inner, calls: int):
        self.inner = inner
        self.calls = calls
        self.dimension = inner.dimension

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        self.calls -= 1
        return self.inner.gradient(x) if self.calls >= 0 else np.full(self.dimension, np.nan)


class Transformed:
    """z -> a f(Q z + c) + shift, through value and gradient only."""

    def __init__(self, inner, q=None, c=None, a=1.0, shift=0.0):
        n = inner.dimension
        self.inner = inner
        self.q = np.eye(n) if q is None else q
        self.c = np.zeros(n) if c is None else c
        self.a = a
        self.shift = shift
        self.dimension = n

    def point(self, z):
        return self.q @ z + self.c

    def start(self, x0):
        return self.q.T @ (x0 - self.c)

    def value(self, z):
        return self.a * self.inner.value(self.point(z)) + self.shift

    def gradient(self, z):
        return self.a * (self.q.T @ self.inner.gradient(self.point(z)))


class RegularizedLoss:
    """(mu / 2) |x|^2 plus a loss of the residuals r = A x - b, with no
    ``along``: every search on it runs on the generic line.  A subclass
    gives the loss and its derivative in r as ``loss(r)`` and ``dloss(r)``.

    A is standard Gaussian with its columns scaled from 1 to ``cond``; b and
    the start point ``x0`` are standard Gaussian.  Each loss is convex with
    a Lipschitz derivative, so f is mu-strongly convex and smooth: the class
    the paper's convergence proof covers."""

    def __init__(self, m: int, n: int, mu: float, seed: int, cond: float = 1.0):
        rng = np.random.default_rng(seed)
        self.a = rng.standard_normal((m, n)) * np.geomspace(1.0, cond, n)
        self.b = rng.standard_normal(m)
        self.x0 = rng.standard_normal(n)
        self.mu = mu
        self.dimension = n

    def value(self, x):
        return self.loss(self.a @ x - self.b) + 0.5 * self.mu * float(x @ x)

    def gradient(self, x):
        return self.dloss(self.a @ x - self.b) @ self.a + self.mu * x


class Logistic(RegularizedLoss):
    """sum softplus(r) + (mu / 2) |x|^2."""

    def loss(self, r):
        return float(np.logaddexp(0.0, r).sum())

    def dloss(self, r):
        return np.exp(-np.logaddexp(0.0, -r))  # the logistic sigmoid


class AffineLogSumExp(RegularizedLoss):
    """ln sum exp(r) + (mu / 2) |x|^2."""

    def loss(self, r):
        top = r.max()
        return float(top + np.log(np.exp(r - top).sum()))

    def dloss(self, r):
        w = np.exp(r - r.max())
        return w / w.sum()


class Huber(RegularizedLoss):
    """sum huber_delta(r) + (mu / 2) |x|^2: r^2 / 2 within delta, and
    delta (|r| - delta / 2) past it.  Its derivative is Lipschitz but its
    second derivative jumps at |r| = delta."""

    def __init__(self, m, n, mu, seed, cond=1.0, delta=1.0):
        super().__init__(m, n, mu, seed, cond)
        self.delta = delta

    def loss(self, r):
        s = np.abs(r)
        return float(np.where(s <= self.delta, 0.5 * r * r,
                              self.delta * (s - 0.5 * self.delta)).sum())

    def dloss(self, r):
        return np.clip(r, -self.delta, self.delta)
