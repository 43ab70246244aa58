import numpy as np
import pytest


class CountingMatrix(np.ndarray):
    """A view of a matrix that counts its products ``m @ v`` and hands back
    plain arrays, so nothing downstream is counted twice."""

    def __matmul__(self, other):
        self.products += 1
        return self.view(np.ndarray) @ other


@pytest.fixture
def count_products():
    """Swap a quadratic's matrix for a counting view of the same data;
    returns the view, whose ``products`` starts at 0."""

    def install(problem):
        view = problem.a.view(CountingMatrix)
        view.products = 0
        object.__setattr__(problem, "a", view)  # the dataclass is frozen
        return view

    return install


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
