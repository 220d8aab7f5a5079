"""Exception types shared across the package."""


class EllipotError(Exception):
    """Base class for all package errors."""


class MaskError(EllipotError):
    """Invalid domain mask (empty or disconnected interior, bad geometry)."""


class NestingError(EllipotError):
    """Requested exhaustion levels cannot be nested inside the domain."""


class EllipticityError(EllipotError):
    """Coefficient matrix is not positive definite at some point."""


class StencilError(EllipotError):
    """Assembly stencil reaches a point outside the discrete domain."""


class LinearSolveError(EllipotError):
    """Sparse linear solve failed or did not reach the requested residual."""


class NonConvergenceError(EllipotError):
    """A semilinear solve missed its gates: it ran out of V-cycles, or a
    cycle did not shrink the increment (stagnated).

    ``report`` is the solve's ``SolveReport`` (``converged`` False, the
    iteration count, increment, residual and message as reached) and
    ``field`` the iterate the solve stopped at.
    """

    def __init__(self, message, report, field):
        super().__init__(message)
        self.report = report
        self.field = field


class SolverBreakdownError(EllipotError):
    """A solve produced non-finite values (harmonic extension, iterate or
    linear-reaction solution)."""


class MajorantError(EllipotError):
    """Concave majorant construction failed (bad inputs or coarse grids)."""


class ExprError(EllipotError):
    """Expression parse or evaluation error, with a 1-based source column."""

    def __init__(self, message, column=None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


class ConfigError(EllipotError):
    """Run configuration is missing, malformed, or inconsistent."""
