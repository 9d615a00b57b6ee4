"""Uniform grids and the one rule that sizes them.

Every cell, node or snapshot count in the package comes from `grid_count`:
an extent over a spacing, rounded, and refused with a `ConfigError` before
anything is allocated when the ratio is not finite or exceeds `MAX_COUNT`;
`cover_count` rounds the same ratio up.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["MAX_COUNT", "grid_count", "cover_count", "cell_grid", "node_grid"]

# most cells, y-nodes or snapshots a grid may have: ~170x the acceptance
# grids, and small enough that nothing huge is allocated before a run fails
MAX_COUNT = 10**6


def grid_count(extent, spacing):
    """round(extent/spacing), refused above MAX_COUNT or when not finite."""
    ratio = extent / spacing
    if not ratio <= MAX_COUNT:
        raise ConfigError(
            f"{extent!r}/{spacing!r} asks for {ratio:.3g} cells, nodes or "
            f"snapshots; at most {MAX_COUNT} are allowed")
    return int(round(ratio))


def cover_count(extent, spacing):
    """The fewest whole spacings that reach `extent`, forgiving a ratio that
    exceeds a whole number by rounding (1e-9); refused as by `grid_count`."""
    n = grid_count(extent, spacing)
    return n if n >= extent / spacing - 1e-9 else n + 1


def cell_grid(halfwidth, spacing):
    """Cell centres of a uniform partition of [-halfwidth, halfwidth]."""
    n = grid_count(2.0 * halfwidth, spacing)
    return (np.arange(n) + 0.5) * (2.0 * halfwidth / n) - halfwidth


def node_grid(halfwidth, spacing):
    """Nodes of a uniform grid on [-halfwidth, halfwidth], both ends included."""
    n = grid_count(2.0 * halfwidth, spacing)
    return np.linspace(-halfwidth, halfwidth, n + 1)
