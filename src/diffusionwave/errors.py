"""Exception types shared across the package, and the density check that
raises them where states enter it."""

import numpy as np


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class VacuumViolation(DomainError):
    """Zero density paired with nonzero momentum."""


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration (CLI exit code 1)."""


class NumericalFailure(RuntimeError):
    """NaN, inf or a density that is not positive, or a collapsed CFL step,
    during time stepping (CLI exit code 2)."""


class SolverFailure(RuntimeError):
    """Newton iteration did not converge; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateFitError(RuntimeError):
    """Least-squares fit requested on data with no usable signal."""


def check_positive(rho, m):
    """Reject states (rho, m) unless every density is > 0: a VacuumViolation
    where a zero density carries momentum, else a DomainError."""
    if not np.all(rho > 0):
        if np.any((rho == 0) & (m != 0)):
            raise VacuumViolation("vacuum state with nonzero momentum")
        raise DomainError("density must be positive")
