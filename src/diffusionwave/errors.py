"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class VacuumViolation(DomainError):
    """Zero density paired with nonzero momentum."""


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration (CLI exit code 1)."""


class NumericalFailure(RuntimeError):
    """NaN, inf or negative density, or a collapsed CFL step, during time
    stepping (CLI exit code 2)."""


class SolverFailure(RuntimeError):
    """Newton iteration did not converge; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateFitError(RuntimeError):
    """Least-squares fit requested on data with no usable signal."""
