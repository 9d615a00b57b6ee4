"""Transform from physical variables to parabolic scaling variables.

tau = log(1+t), y = x / sqrt(1+t), and the momentum is rescaled as
n = sqrt(1+t) * m so Darcy's law can balance asymptotically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["ScaledField", "to_scaled"]


@dataclass
class ScaledField:
    tau: float
    y: np.ndarray
    rho: np.ndarray
    n: np.ndarray

    @property
    def dy(self):
        return float(self.y[1] - self.y[0])


def to_scaled(state, y_grid):
    """Sample a physical snapshot onto a fixed y-grid in scaling variables."""
    y_grid = np.asarray(y_grid, dtype=float)
    t = state.t
    stretch = np.sqrt(1.0 + t)
    X = float(state.x[-1] + state.dx / 2)
    if np.max(np.abs(y_grid)) * stretch > X * (1 + 1e-12):
        raise DomainError("scaled window exceeds the physical domain")
    xq = y_grid * stretch
    # monotone piecewise-linear sampling; stays inside the local data range
    rho = np.interp(xq, state.x, state.rho)
    n = stretch * np.interp(xq, state.x, state.m)
    n = np.where(rho > 0, n, 0.0)
    return ScaledField(tau=float(np.log1p(t)), y=y_grid, rho=rho, n=n)
