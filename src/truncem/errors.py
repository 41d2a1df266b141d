"""Exception types shared across the package."""


class UnsupportedOperationError(RuntimeError):
    """Raised when an operation is not defined for a model family.

    Examples: the exact M-step and the curvature matrix for regression
    with missing covariates.
    """


class DegenerateInformationError(RuntimeError):
    """Raised when the plug-in partial information is not positive.

    The score and Wald statistics divide by the square root of this
    quantity, so the statistic is undefined when it is <= 0.
    """


class LpInfeasibleError(RuntimeError):
    """Raised when a linear program has no feasible point."""


class LpSolverError(RuntimeError):
    """Raised when an LP solver fails, or returns a point off the constraints."""
