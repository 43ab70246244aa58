"""Exception types shared across the solver modules; a bad argument is a plain ValueError."""


class NumericError(RuntimeError):
    """Floating-point trouble: lost brackets, exhausted budgets, non-finite
    values, an objective that descends without end along a ray."""


class DegeneratePlaneError(Exception):
    """The working plane gives no center direction: the gradient at the level
    point is numerically collinear with the chord, or orthogonal to it."""
