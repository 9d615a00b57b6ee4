"""Similarity profile of the porous medium equation with Darcy momentum.

The steady profile rho*(y) solves (1/alpha) p(rho*)_yy + (y/2) rho*_y = 0 on
the line with limits rho_-+ at -+infinity; the scaled momentum is slaved to it
by Darcy's law, alpha n* = -p(rho*)_y.  It is computed on a truncated interval
by damped Newton on a second-order finite-difference discretization, and
carries the flatness constants (theta, mu, K) that control the entropy decay
envelope; coincident limits take the same path to the constant state, theta = mu = K = 0.

Each Newton step solves its tridiagonal Jacobian by cyclic reduction
(`_tridiag`), in numpy alone.  The profile is its node values and nothing
between them: a reference on a y-grid is read off the nodes
(`lab.make_reference`), so the grid must be a run of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverFailure
from .grids import cover_count, node_grid

__all__ = [
    "LimitSpec",
    "SimilarityProfile",
    "solve_profile",
    "default_halfwidth",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
NEWTON_FLOOR_ULPS = 16   # the rounding floor of Newton's tolerance; see solve_profile
TAIL_TOL = 1e-10


@dataclass(frozen=True)
class LimitSpec:
    """Far-field densities > 0 and the friction coefficient alpha > 0."""

    rho_minus: float
    rho_plus: float
    alpha: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.rho_minus, self.rho_plus, self.alpha))):
            raise DomainError("far-field densities and alpha must be finite")
        if not (self.rho_minus > 0 and self.rho_plus > 0):
            raise DomainError(f"far-field densities must be positive, got rho_minus = "
                              f"{self.rho_minus!r} and rho_plus = {self.rho_plus!r}")
        if not self.alpha > 0:
            raise DomainError(f"friction coefficient must be > 0, got alpha = {self.alpha!r}")

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
    theta: float
    mu: float
    K_const: float

    @property
    def dy(self):
        return float(self.y[1] - self.y[0])


def default_halfwidth(limits, law, tail_tol=TAIL_TOL):
    """Half-width, for any limits at least 8, 20/sqrt(alpha) and the y where
    the Gaussian tail exp(-y^2/(4D)) of the profile deviation falls to
    `tail_tol`, with diffusivity D = max p'(rho_-+)/alpha."""
    alpha = limits.alpha
    D = np.max(law.pressure(np.array([limits.rho_minus, limits.rho_plus]))[1]) / alpha
    return float(max(8.0, 20.0 / np.sqrt(alpha), np.sqrt(4.0 * D * np.log(1.0 / tail_tol))))


def _central_first(v, dy):
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dy)
    return out


def _central_second(v, dy):
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dy**2
    return out


def _tridiag(a, b, c, d):
    """x with a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i], a[0] = c[-1] = 0.

    Odd-even cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal.
    7, 1970): eliminating the even unknowns from the odd rows leaves a
    tridiagonal system of half the size, solved the same way, and then each
    even unknown follows from its own row; log2(n) passes over strided
    slices.  No pivoting: a zero pivot gives inf or nan, not an exception.
    """
    if len(b) == 1:
        return d / b
    if len(b) % 2 == 0:  # a decoupled last row x = 0 makes the length odd
        padded = (np.append(v, e) for v, e in zip((a, b, c, d), (0.0, 1.0, 0.0, 0.0)))
        return _tridiag(*padded)[:-1]
    lo = -a[1::2] / b[:-1:2]
    hi = -c[1::2] / b[2::2]
    x = np.empty_like(d)
    x[1::2] = _tridiag(lo * a[:-1:2], b[1::2] + lo * c[:-1:2] + hi * a[2::2],
                       hi * c[2::2], d[1::2] + lo * d[:-1:2] + hi * d[2::2])
    odd = np.concatenate(([0.0], x[1::2], [0.0]))
    x[::2] = (d[::2] - a[::2] * odd[:-1] - c[::2] * odd[1:]) / b[::2]
    return x


def _ode_residual(rho, y, dy, law, alpha):
    """Second-order FD residual of (1/alpha) p(rho)_yy + (y/2) rho_y."""
    p, _ = law.pressure(rho)
    return _central_second(p, dy) / alpha + 0.5 * y * _central_first(rho, dy)


# overflow of p(rho) or p'(rho), or a zero pivot in the Newton solve, leaves
# non-finite numbers, which are a SolverFailure, not a warning
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_profile(limits, law, L=None, dy=0.01, *, tail_tol=TAIL_TOL):
    """Solve the profile boundary-value problem on [-L, L]; L defaults to
    `default_halfwidth` rounded up to a whole number of dy, so that the
    nodes are dy apart (a given L keeps its value and rounds the count).

    Dirichlet ends pinned to rho_-+, damped Newton from a tanh ramp, residual
    tolerance in max norm `NEWTON_TOL` or, when larger, the rounding floor
    `NEWTON_FLOOR_ULPS` eps max p(rho+-)/(alpha dy^2); each
    Newton step solves the tridiagonal Jacobian by cyclic reduction
    (`_tridiag`).  Coincident limits start at their constant state, residual
    0, so theta = mu = K = 0.  Raises SolverFailure naming the grid and the
    width of the profile's low-density side on overflow, a singular Newton
    system, a stall (with its residual and tolerance), non-convergence or a
    non-monotone or out-of-range solution, DomainError if the truncated
    domain leaves a tail above `tail_tol` or unless 0 < dy < L < inf, and
    ConfigError (before allocating) if the grid would have more than
    `grids.MAX_COUNT` nodes.
    """
    if L is None:
        L = default_halfwidth(limits, law, tail_tol)
        if 0 < dy < L:
            L = dy * cover_count(L, dy)
    if not 0 < dy < L < math.inf:
        raise DomainError(
            f"the profile grid needs 0 < dy < L < inf, got dy={dy!r}, L={L!r}")
    y = node_grid(L, dy)
    dy = float(y[1] - y[0])

    rm, rp, alpha = limits.rho_minus, limits.rho_plus, limits.alpha
    # the low-density side is the narrower, so the one a coarse dy fails
    width = np.sqrt(4.0 * min(law.pressure(rm)[1], law.pressure(rp)[1]) / alpha)
    where = (f"on the grid [-{L:g}, {L:g}] at dy = {dy:g}; the low side's width "
             f"sqrt(4 min p'(rho+-)/alpha) is {width:.3g}")  # named by each failure
    rho = 0.5 * (rm + rp) + 0.5 * (rp - rm) * np.tanh(y)
    rho[0], rho[-1] = rm, rp

    def interior_residual(r):
        return _ode_residual(r, y, dy, law, alpha)[1:-1]

    res = interior_residual(rho)
    res_norm = np.max(np.abs(res))
    scale = max(law.pressure(rm)[0], law.pressure(rp)[0]) / (alpha * dy**2)
    tol = max(NEWTON_TOL, NEWTON_FLOOR_ULPS * np.finfo(float).eps * scale)
    for _ in range(NEWTON_MAX_ITER):
        if res_norm <= tol:
            break
        _, dp = law.pressure(rho)
        yi = y[1:-1]
        # tridiagonal Jacobian of the interior residual
        lower = dp[:-2] / (alpha * dy**2) - yi / (4.0 * dy)
        diag = -2.0 * dp[1:-1] / (alpha * dy**2)
        upper = dp[2:] / (alpha * dy**2) + yi / (4.0 * dy)
        lower[0] = upper[-1] = 0.0  # couplings to the pinned ends
        if not (np.isfinite(res_norm)
                and all(np.isfinite(v).all() for v in (lower, diag, upper))):
            raise SolverFailure(f"Newton system overflowed {where}", residual=res_norm)
        delta = _tridiag(lower, diag, upper, -res)
        if not np.isfinite(delta).all():
            raise SolverFailure(f"singular Newton system {where}", residual=res_norm)

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
            raise SolverFailure(f"Newton line search stalled at residual {res_norm:.3g}, above "
                                f"its tolerance {tol:.3g} ({NEWTON_TOL:g}, or the rounding "
                                f"floor when larger), {where}", residual=res_norm)
        rho, res, res_norm = trial, trial_res, trial_norm
    else:
        raise SolverFailure(
            f"Newton did not reach tolerance {tol:.3g} in "
            f"{NEWTON_MAX_ITER} iterations {where}",
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
        raise SolverFailure(f"profile violates monotonicity/range bounds {where}")

    p, _ = law.pressure(rho)
    n_star = -_central_first(p, dy) / alpha

    theta, mu, K_const, r_star = _profile_constants(y, rho, n_star, law, alpha)
    return SimilarityProfile(y, rho, n_star, r_star, _ode_residual(rho, y, dy, law, alpha),
                             theta, mu, K_const)


def _profile_constants(y, rho, n, law, alpha):
    """Flatness constants (theta, mu, K) and the residual field R* of a
    checked profile rho* > 0 with momentum n* on the uniform nodes y.

    theta = max{2, gamma-1} sup_+ [(1/alpha) h'(rho*)_yy],
    mu    = sup(|R*| / (2 p(rho*)) + 3 |R*| / (2 rho*)), p taken from the law,
    K     = integral of |R*| (midpoint rule),
    with R* = -(y/2) n*_y - n*/2 + ((n*)^2 / rho*)_y from centered differences.
    """
    dy = float(y[1] - y[0])
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
    mu = float(np.max(absr / (2.0 * law._p(rho[1:-1])) + 1.5 * absr / rho[1:-1]))
    K_const = float(np.sum(np.abs(r_star)) * dy)
    return theta, mu, K_const, r_star
