"""Numerical laboratory for 1D damped compressible Euler flow and its
long-time relaxation to a nonlinear diffusion wave, measured by relative
entropy in parabolic scaling variables."""

from .dynamics import PhysicalState, SolverConfig, run, step
from .entropy import ReferencePair, relative_entropy_density, total_relative_entropy
from .errors import (
    ConfigError,
    DegenerateFitError,
    DomainError,
    NumericalFailure,
    SolverFailure,
    VacuumViolation,
)
from .lab import ExperimentConfig, run_experiment, theoretical_bound
from .profile import LimitSpec, SimilarityProfile, solve_profile
from .scaling import ScaledField, to_scaled
from .thermo import PressureLaw, entropy_generator

__version__ = "0.1.0"

__all__ = [
    "PressureLaw",
    "entropy_generator",
    "LimitSpec",
    "SimilarityProfile",
    "solve_profile",
    "PhysicalState",
    "SolverConfig",
    "run",
    "step",
    "ScaledField",
    "to_scaled",
    "ReferencePair",
    "relative_entropy_density",
    "total_relative_entropy",
    "ExperimentConfig",
    "run_experiment",
    "theoretical_bound",
    "ConfigError",
    "DomainError",
    "VacuumViolation",
    "NumericalFailure",
    "SolverFailure",
    "DegenerateFitError",
]
