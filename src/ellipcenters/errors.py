"""Exception types shared across the solver modules."""


class NumericError(RuntimeError):
    """Floating-point trouble: lost brackets, exhausted budgets, non-finite values."""


class NonCoerciveError(NumericError):
    """The objective never grew back along a ray; it is not strongly convex."""


class StationaryPointError(ValueError):
    """An operation that needs a nonzero gradient was handed a stationary point."""


class DegeneratePlaneError(Exception):
    """The working plane gives no center direction: the gradient at the level
    point is numerically collinear with the chord, or orthogonal to it."""
