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
