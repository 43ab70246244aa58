"""Independent correctness checks for benchmark solves.

Everything here is computed with numpy from the problem's raw data; no
solver, line-search or level-step code is called.  A quadratic's optimum
comes from a direct linear solve and its strong-convexity modulus from the
smallest eigenvalue; the log-sum-exp family is minimized at the origin with
value ln n and is at least 2 min(beta)-strongly convex.

A result passes when, at its final point x with recomputed gradient g,
- |g| meets the stopping tolerance,
- |x - x*| <= |g| / mu (the strong-convexity distance bound),
- f* <= f(x) <= f* + |g|^2 / (2 mu), and the reported f equals f(x),
each up to rounding.
"""
from __future__ import annotations

import math

import numpy as np

_REL = 1e-10  # rounding slack, relative to 1 + |f*| or to the bound itself


class Reference:
    """Optimum, optimal value and strong-convexity modulus of one instance."""

    def __init__(self, problem):
        if hasattr(problem, "a"):  # 0.5 x'Ax - b'x
            a = np.asarray(problem.a, dtype=float)
            b = np.asarray(problem.b, dtype=float)
            self.x_star = np.linalg.solve(a, b)
            self.f_star = float(-0.5 * (b @ self.x_star))
            self.mu = float(np.linalg.eigvalsh(a)[0])
            self._a, self._b = a, b
            self._lse = None
        else:  # ln sum exp(alpha x^2) + beta . x^2
            alpha = np.asarray(problem.alpha, dtype=float)
            beta = np.asarray(problem.beta, dtype=float)
            self.x_star = np.zeros(alpha.size)
            self.f_star = math.log(alpha.size)
            self.mu = 2.0 * float(beta.min())
            self._lse = (alpha, beta)

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self._lse is None:
            ax = self._a @ x
            return float(0.5 * (x @ ax) - self._b @ x), ax - self._b
        alpha, beta = self._lse
        sq = x * x
        z = alpha * sq
        top = float(z.max())
        w = np.exp(z - top)
        total = float(w.sum())
        value = top + math.log(total) + float(beta @ sq)
        return value, 2.0 * x * (alpha * w / total + beta)

    def check(self, x, f_reported: float, epsilon: float) -> bool:
        """True when the final point x and its reported value pass every check."""
        x = np.asarray(x, dtype=float)
        if not (np.all(np.isfinite(x)) and math.isfinite(f_reported)):
            return False
        f, g = self.value_and_gradient(x)
        gnorm = float(np.linalg.norm(g))
        slack = _REL * (1.0 + abs(self.f_star))
        distance = float(np.linalg.norm(x - self.x_star))
        return (gnorm <= epsilon * (1.0 + 1e-6)
                and distance <= (gnorm / self.mu * (1.0 + 1e-6)
                                 + _REL * (1.0 + float(np.linalg.norm(self.x_star))))
                and self.f_star - slack <= f <= self.f_star + gnorm ** 2 / (2.0 * self.mu) + slack
                and abs(f - f_reported) <= slack)
