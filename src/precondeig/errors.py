"""Exception hierarchy shared by all precondeig modules."""


class PrecondEigError(Exception):
    """Base class for all library errors."""


class NotSpd(PrecondEigError):
    """A factorization hit a non-positive pivot; the matrix is not SPD."""

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"non-positive pivot at index {pivot}")


class NotSpdInLowPrecision(NotSpd):
    """binary32 Cholesky broke down even though the input may be SPD in binary64."""


class DimensionMismatch(PrecondEigError):
    pass


class MaxIterations(PrecondEigError):
    """Iteration budget exhausted.  Carries the best iterate seen so far."""

    def __init__(self, message, best, iterations):
        self.best = best
        self.iterations = iterations
        super().__init__(message)


class BreakdownNonSpd(PrecondEigError):
    """Negative curvature detected inside CG; an operator is not SPD."""


class InnerProductNotPositive(PrecondEigError):
    """The supplied inner product returned a non-positive squared norm."""


class NoConvergence(PrecondEigError):
    pass


class ZeroVector(PrecondEigError):
    pass


class NotTangent(PrecondEigError):
    pass


class AntipodalOrEqual(PrecondEigError):
    """Logarithmic map direction undefined (projection numerically zero)."""


class InvalidMeshWidth(PrecondEigError):
    pass


class MisalignedOverlap(PrecondEigError):
    """Requested overlap band is not a multiple of the fine mesh width."""


class NotAGridProblem(PrecondEigError):
    """The two-level DDM needs a problem on the unit-square grid, one whose
    EigenProblem.grid is set (laplace_fd, laplace_fem)."""


class DegenerateSmallestEigenvalue(PrecondEigError):
    """lambda2 - lambda1 is below resolution; the target eigenvalue is not simple."""


class InvalidC(PrecondEigError):
    """Constant-step parameter c must satisfy 0 < c < 1/2."""


class StepCapViolated(PrecondEigError):
    """Fixed step size exceeds pi / (2 * gradient norm)."""


class OutsideBasin(PrecondEigError):
    """Iterate distance to the target reached or exceeded the distortion angle."""


class ZeroGradientAtNonEigenvector(PrecondEigError):
    """Defensive: gradient vanished although the residual is not negligible."""


class RecipeError(PrecondEigError):
    """A problem/preconditioner recipe string failed to parse."""


class PropertyViolation(PrecondEigError):
    """A numerically checked identity or definiteness requirement failed."""
