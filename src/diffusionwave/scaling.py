"""Transform from physical variables to parabolic scaling variables.

tau = log(1+t), y = x / sqrt(1+t), and the momentum is rescaled as
n = sqrt(1+t) * m so Darcy's law can balance asymptotically.
"""

from __future__ import annotations

import math
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
    """Sample a physical snapshot onto a fixed, increasing y-grid in scaling
    variables; linear interpolation keeps the snapshot's density > 0.  The
    grid's ends y_grid[0] and y_grid[-1] must map into the snapshot's cells
    [x0 - dx/2, x1 + dx/2], up to a relative 1e-12 (DomainError)."""
    y_grid = np.asarray(y_grid, dtype=float)
    t = state.t
    stretch = np.sqrt(1.0 + t)
    left = float(state.x[0] - state.dx / 2)
    right = float(state.x[-1] + state.dx / 2)
    lo, hi = y_grid[0] * stretch, y_grid[-1] * stretch
    if lo < left - 1e-12 * abs(left) or hi > right + 1e-12 * abs(right):
        raise DomainError(
            f"scaled window [{lo:g}, {hi:g}] exceeds the physical domain "
            f"[{left:g}, {right:g}] at t = {t:g}")
    xq = y_grid * stretch
    # monotone piecewise-linear sampling; stays inside the local data range
    rho = np.interp(xq, state.x, state.rho)
    n = stretch * np.interp(xq, state.x, state.m)
    # libm's log1p, whose bits hold on any x86-64 CPU, unlike numpy's
    return ScaledField(tau=math.log1p(t), y=y_grid, rho=rho, n=n)
