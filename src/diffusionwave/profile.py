"""Similarity profile of the porous medium equation with Darcy momentum.

The steady profile rho*(y) solves (1/alpha) p(rho*)_yy + (y/2) rho*_y = 0 on
the line with limits rho_-+ at -+infinity; the scaled momentum is slaved to
it by Darcy's law, alpha n* = -p(rho*)_y.  The profile is computed on a
truncated interval with a damped Newton iteration on a second-order
finite-difference discretization, and carries the flatness constants
(theta, mu, K) that control the entropy decay envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import DomainError, SolverFailure
from .grids import node_grid

__all__ = [
    "LimitSpec",
    "SimilarityProfile",
    "solve_profile",
    "profile_constants",
    "default_halfwidth",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
TAIL_TOL = 1e-10


@dataclass(frozen=True)
class LimitSpec:
    """Far-field densities and the friction coefficient."""

    rho_minus: float
    rho_plus: float
    alpha: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.rho_minus, self.rho_plus, self.alpha))):
            raise DomainError("far-field densities and alpha must be finite")
        if self.rho_minus < 0 or self.rho_plus < 0:
            raise DomainError("far-field densities must be nonnegative")
        if self.alpha < 0:
            raise DomainError("friction coefficient must be nonnegative")
        if self.rho_minus != self.rho_plus:
            if self.rho_minus <= 0 or self.rho_plus <= 0 or self.alpha <= 0:
                raise DomainError(
                    "a non-constant profile requires positive limits and alpha > 0"
                )

    @property
    def same_limits(self):
        return self.rho_minus == self.rho_plus

    def step_density(self, y):
        """Reference step density: rho_- for y < 0, rho_+ for y >= 0."""
        y = np.asarray(y, dtype=float)
        out = np.where(y < 0, self.rho_minus, self.rho_plus)
        return float(out) if out.ndim == 0 else out


@dataclass
class SimilarityProfile:
    y: np.ndarray
    rho_star: np.ndarray
    n_star: np.ndarray
    r_star: np.ndarray
    ode_residual: np.ndarray
    theta: float = 0.0
    mu: float = 0.0
    K_const: float = 0.0

    @property
    def dy(self):
        return float(self.y[1] - self.y[0])


def default_halfwidth(alpha):
    """Half-width, at least 8, large enough that the Gaussian tail
    ~exp(-c alpha y^2) of the profile deviation is far below solver tolerance."""
    return float(max(8.0, 20.0 / np.sqrt(alpha))) if alpha > 0 else 8.0


def _central_first(v, dy):
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dy)
    return out


def _central_second(v, dy):
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dy**2
    return out


def _ode_residual(rho, y, dy, law, alpha):
    """Second-order FD residual of (1/alpha) p(rho)_yy + (y/2) rho_y."""
    p, _ = law.pressure(rho)
    return _central_second(p, dy) / alpha + 0.5 * y * _central_first(rho, dy)


# overflow of p(rho) or p'(rho) leaves a non-finite Newton system, which is
# a SolverFailure, not a warning
@np.errstate(over="ignore", invalid="ignore")
def solve_profile(limits, law, L=None, dy=0.01, *, tail_tol=TAIL_TOL):
    """Solve the profile boundary-value problem on [-L, L].

    Dirichlet ends pinned to rho_-+, damped Newton from a tanh ramp, residual
    tolerance `NEWTON_TOL` in max norm.  Raises SolverFailure on non-convergence,
    DomainError if the truncated domain leaves a tail above `tail_tol` or
    unless 0 < dy < L < inf, and ConfigError (before allocating) if the grid
    would have more than `grids.MAX_COUNT` nodes.
    """
    if L is None:
        L = default_halfwidth(limits.alpha)
    if not 0 < dy < L < math.inf:
        raise DomainError(
            f"the profile grid needs 0 < dy < L < inf, got dy={dy!r}, L={L!r}")
    y = node_grid(L, dy)
    dy = float(y[1] - y[0])

    if limits.same_limits:
        rho = np.full_like(y, limits.rho_plus)
        zeros = np.zeros_like(y)
        return SimilarityProfile(y, rho, zeros.copy(), zeros.copy(), zeros.copy())

    rm, rp, alpha = limits.rho_minus, limits.rho_plus, limits.alpha
    rho = 0.5 * (rm + rp) + 0.5 * (rp - rm) * np.tanh(y)
    rho[0], rho[-1] = rm, rp

    def interior_residual(r):
        return _ode_residual(r, y, dy, law, alpha)[1:-1]

    res = interior_residual(rho)
    res_norm = np.max(np.abs(res))
    for _ in range(NEWTON_MAX_ITER):
        if res_norm <= NEWTON_TOL:
            break
        _, dp = law.pressure(rho)
        yi = y[1:-1]
        # tridiagonal Jacobian of the interior residual
        lower = dp[:-2] / (alpha * dy**2) - yi / (4.0 * dy)
        diag = -2.0 * dp[1:-1] / (alpha * dy**2)
        upper = dp[2:] / (alpha * dy**2) + yi / (4.0 * dy)
        ab = np.zeros((3, len(diag)))
        ab[0, 1:] = upper[:-1]
        ab[1, :] = diag
        ab[2, :-1] = lower[1:]
        if not (np.isfinite(res_norm) and np.all(np.isfinite(ab))):
            raise SolverFailure("Newton system overflowed", residual=res_norm)
        try:
            delta = solve_banded((1, 1), ab, -res)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("singular Newton system", residual=res_norm) from exc

        s = 1.0
        while s > 1e-8:
            trial = rho.copy()
            trial[1:-1] += s * delta
            if np.min(trial) > 0:
                trial_res = interior_residual(trial)
                trial_norm = np.max(np.abs(trial_res))
                if trial_norm < res_norm:
                    break
            s *= 0.5
        else:
            raise SolverFailure("Newton line search stalled", residual=res_norm)
        rho, res, res_norm = trial, trial_res, trial_norm
    else:
        raise SolverFailure(
            f"Newton did not reach tolerance {NEWTON_TOL:g} in "
            f"{NEWTON_MAX_ITER} iterations",
            residual=res_norm,
        )

    tail = max(abs(rho[1] - rm), abs(rho[-2] - rp))
    if tail > tail_tol:
        raise DomainError(
            f"domain half-width L={L:g} too small: boundary deviation {tail:.3e}"
        )

    # rounding-level slack: flat tails may wiggle by an ulp
    eps = 1e-12 * max(rm, rp)
    monotone = np.all(np.diff(rho) <= eps) if rm > rp else np.all(np.diff(rho) >= -eps)
    lo, hi = min(rm, rp), max(rm, rp)
    if not monotone or np.min(rho) < lo - 1e-14 or np.max(rho) > hi + 1e-14:
        raise SolverFailure("profile violates monotonicity/range bounds")

    p, _ = law.pressure(rho)
    n_star = -_central_first(p, dy) / alpha

    prof = SimilarityProfile(
        y, rho, n_star, np.zeros_like(y), _ode_residual(rho, y, dy, law, alpha)
    )
    prof.theta, prof.mu, prof.K_const, prof.r_star = profile_constants(prof, law, limits)
    return prof


def profile_constants(profile, law, limits):
    """Flatness constants (theta, mu, K) and the residual field R*.

    theta = max{2, gamma-1} sup_+ [(1/alpha) h'(rho*)_yy],
    mu    = sup(|R*| / (2 k rho*^gamma) + 3 |R*| / (2 rho*)),
    K     = integral of |R*| (midpoint rule),
    with R* = -(y/2) n*_y - n*/2 + ((n*)^2 / rho*)_y from centered differences.
    """
    y, rho, n = profile.y, profile.rho_star, profile.n_star
    if np.any(rho <= 0):
        raise DomainError("profile density must be positive everywhere")
    dy = profile.dy

    if np.allclose(rho, rho[0], rtol=0, atol=0) and not np.any(n):
        zeros = np.zeros_like(y)
        return 0.0, 0.0, 0.0, zeros

    alpha = limits.alpha
    if alpha <= 0:
        raise DomainError("non-constant profile requires alpha > 0")

    _, dh, _ = law.potential(rho)
    dh_yy = _central_second(dh, dy)
    theta = max(2.0, law.gamma - 1.0) * float(
        np.max(np.maximum(dh_yy[1:-1] / alpha, 0.0), initial=0.0)
    )

    r_star = np.zeros_like(y)
    r_star[1:-1] = (
        -0.5 * y[1:-1] * _central_first(n, dy)[1:-1]
        - 0.5 * n[1:-1]
        + _central_first(n**2 / rho, dy)[1:-1]
    )

    absr = np.abs(r_star[1:-1])
    mu = float(np.max(absr / (2.0 * law.k * rho[1:-1] ** law.gamma)
                      + 1.5 * absr / rho[1:-1]))
    K_const = float(np.sum(np.abs(r_star)) * dy)
    return theta, mu, K_const, r_star
