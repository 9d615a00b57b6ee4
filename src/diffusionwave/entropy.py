"""Relative entropy machinery in scaling variables.

Entropy pair, relative entropy/flux densities, totals and dissipation,
residuals of a reference pair against the scaled system, the xi error terms
with their pointwise bounds, and the coercivity constants.

References are functions of y alone: the constant, the smoothed step and
the similarity profile, which is a stationary solution in scaling variables.
`total_relative_entropy`, `error_terms` and `xi_bound_check` evaluate a
reference once per (y-grid, law) and share the read-only result, with u,
u_y and h''(rho_bar), across every tau.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, VacuumViolation
from .scaling import ScaledField

__all__ = [
    "ReferencePair",
    "RefData",
    "EntropyTotals",
    "ErrorTerms",
    "relative_entropy_density",
    "total_relative_entropy",
    "error_terms",
    "exchange_identity_residual",
    "entropy_identity_residual",
    "xi_bound_check",
    "coercivity_constants",
    "CoercivityConstants",
]

TAIL_MONITOR = 1e-10


def _ratio(num, den):
    """num/den with the 0/0 := 0 convention; raises on momentum at vacuum."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    if np.any((den == 0) & (num != 0)):
        raise VacuumViolation("nonzero momentum at vanishing density")
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


# ---------------------------------------------------------------------------
# entropy pair and relative densities


def entropy_pair(tau, rho, n, law):
    """Absolute entropy and flux: eta = e^-tau n^2/(2 rho) + h(rho),
    q = e^-tau n^3/(2 rho^2) + n h'(rho)."""
    rho = np.asarray(rho, dtype=float)
    n = np.asarray(n, dtype=float)
    u = _ratio(n, rho)
    h, dh, _ = law.potential(rho)
    eta = 0.5 * np.exp(-tau) * n * u + h
    q = 0.5 * np.exp(-tau) * n * u * u + n * dh
    if eta.ndim == 0:
        return float(eta), float(q)
    return eta, q


def relative_entropy_density(tau, rho, n, rho_bar, n_bar, law):
    """Relative entropy and flux densities of (rho, n) against (rho_bar, n_bar).

    eta_rel = (1/2) e^-tau rho |n/rho - n_bar/rho_bar|^2 + h(rho | rho_bar),
    and q_rel is the matching three-term flux.  A vacuum reference requires a
    vacuum-admissible law (then h'(0) is finite and the velocity ratio is zero).
    """
    rho = np.asarray(rho, dtype=float)
    n = np.asarray(n, dtype=float)
    rho_bar = np.asarray(rho_bar, dtype=float)
    n_bar = np.asarray(n_bar, dtype=float)
    if np.any(rho_bar == 0):
        ok, _ = law.vacuum_admissible()
        if not ok or np.any((rho_bar == 0) & (n_bar != 0)):
            raise DomainError("vacuum reference needs gamma > 1 and n_bar = 0")
    u = _ratio(n, rho)
    eta_rel, q_rel = _relative_density(tau, rho, n, u, rho_bar, _ratio(n_bar, rho_bar),
                                       law._reference(rho_bar), law)
    if np.ndim(eta_rel) == 0:
        return float(eta_rel), float(q_rel)
    return eta_rel, q_rel


def _relative_density(tau, rho, n, u, rho_bar, u_bar, reference, law):
    """`relative_entropy_density` from the velocities and the reference's
    `PressureLaw._reference` terms (h, h', p, p')."""
    du = u - u_bar
    h_rel, _ = law._relative(rho, rho_bar, reference)
    _, dh, _ = law.potential(rho)
    dhb = reference[1]
    eta_rel = 0.5 * np.exp(-tau) * rho * du * du + h_rel
    q_rel = (
        0.5 * np.exp(-tau) * n * du * du
        + rho * (np.asarray(dh) - dhb) * du
        + u_bar * h_rel
    )
    return eta_rel, q_rel


# ---------------------------------------------------------------------------
# reference pairs


def _read_only(a):
    """A read-only view: the caller's array keeps its own flags."""
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class RefData:
    """A reference pair evaluated on a y-grid, with first derivatives, the
    velocity u = n/rho, its derivative u_y, and the thermodynamics of rho:
    h, h', h'', p and p'.  Every array is read-only, because a pair hands
    the same RefData to every snapshot."""

    rho: np.ndarray
    n: np.ndarray
    rho_y: np.ndarray
    n_y: np.ndarray
    p_y: np.ndarray  # centered difference of p(rho_bar), used by the residuals
    u: np.ndarray
    u_y: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    d2h: np.ndarray
    p: np.ndarray
    dp: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _read_only(getattr(self, f.name)))

    @property
    def thermo(self):
        """(h, h', p, p') of rho, as `PressureLaw._relative` takes them."""
        return self.h, self.dh, self.p, self.dp


@dataclass(frozen=True)
class ReferencePair:
    """Steady reference (rho_bar, n_bar) as callables of y.

    Derivative callables are optional; missing ones fall back to centered
    differences with the evaluation grid spacing.  `cached_eval` keeps the
    evaluation for the last grid.
    """

    rho: Callable
    n: Callable
    rho_y: Optional[Callable] = None
    n_y: Optional[Callable] = None

    def __post_init__(self):
        # [y, law, RefData] of the last grid the pair was evaluated on
        object.__setattr__(self, "_memo", [])

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, rho_bar):
        if rho_bar < 0:
            raise DomainError("reference density must be nonnegative")
        zero = lambda y: np.zeros_like(np.asarray(y, dtype=float))
        return cls(rho=lambda y: np.full_like(np.asarray(y, dtype=float), rho_bar),
                   n=zero, rho_y=zero, n_y=zero)

    @classmethod
    def smoothed_step(cls, limits):
        """C^1 interpolation at rest between rho_- and rho_+ across [-2, 2]."""
        rm, rp = limits.rho_minus, limits.rho_plus
        width = 2.0

        def rho(y):
            u = np.clip((np.asarray(y, dtype=float) + width) / (2 * width), 0.0, 1.0)
            return rm + (rp - rm) * u * u * (3.0 - 2.0 * u)

        def rho_y(y):
            yv = np.asarray(y, dtype=float)
            u = np.clip((yv + width) / (2 * width), 0.0, 1.0)
            du = np.where((yv > -width) & (yv < width), 1.0 / (2 * width), 0.0)
            return (rp - rm) * 6.0 * u * (1.0 - u) * du

        zero = lambda y: np.zeros_like(np.asarray(y, dtype=float))
        return cls(rho=rho, n=zero, rho_y=rho_y, n_y=zero)

    @classmethod
    def from_profile(cls, profile, limits):
        """Similarity profile as a reference pair."""
        rho_sp = CubicSpline(profile.y, profile.rho_star)
        n_sp = CubicSpline(profile.y, profile.n_star)
        lo, hi = profile.y[0], profile.y[-1]

        def rho(y):
            yv = np.asarray(y, dtype=float)
            out = rho_sp(np.clip(yv, lo, hi))
            out = np.where(yv < lo, limits.rho_minus, out)
            return np.where(yv > hi, limits.rho_plus, out)

        def n(y):
            yv = np.asarray(y, dtype=float)
            out = n_sp(np.clip(yv, lo, hi))
            return np.where((yv < lo) | (yv > hi), 0.0, out)

        return cls(rho=rho, n=n)

    # -- evaluation ---------------------------------------------------------

    def eval(self, y, law):
        """Evaluate values and first derivatives on a grid.

        Missing derivatives use centered differences with step h, the grid
        spacing; p(rho_bar)_y is always the centered difference of pressure
        values so discrete Darcy closures cancel exactly.
        """
        y = np.asarray(y, dtype=float)
        h = float(y[1] - y[0]) if y.size > 1 else 1e-4

        rho = np.asarray(self.rho(y), dtype=float)
        n = np.asarray(self.n(y), dtype=float)
        if np.any(rho < 0):
            raise DomainError("reference density must be nonnegative")

        def d_y(f, fallback):
            if fallback is not None:
                return np.asarray(fallback(y), dtype=float)
            return (np.asarray(f(y + h), float) - np.asarray(f(y - h), float)) / (2 * h)

        p_plus, _ = law.pressure(np.asarray(self.rho(y + h), dtype=float))
        p_minus, _ = law.pressure(np.asarray(self.rho(y - h), dtype=float))
        p_y = (np.asarray(p_plus) - p_minus) / (2 * h)

        rho_y = d_y(self.rho, self.rho_y)
        n_y = d_y(self.n, self.n_y)
        h, dh, p, dp = law._reference(rho)
        return RefData(
            rho=rho,
            n=n,
            rho_y=rho_y,
            n_y=n_y,
            p_y=p_y,
            u=_ratio(n, rho),
            u_y=_ratio(n_y * rho - n * rho_y, rho**2),
            h=h,
            dh=dh,
            d2h=law.potential(rho)[2],
            p=p,
            dp=dp,
        )

    def cached_eval(self, y, law):
        """`eval`, memoised: while (y, law) stay the same, every call
        returns the same read-only RefData."""
        y = np.asarray(y, dtype=float)
        memo = self._memo
        if not (memo and memo[1] == law and np.array_equal(memo[0], y)):
            memo[:] = [y.copy(), law, self.eval(y, law)]
        return memo[2]


# ---------------------------------------------------------------------------
# totals, residuals, error terms


@dataclass
class EntropyTotals:
    E: float
    D_alpha: float
    tail_ok: bool


def total_relative_entropy(field, ref, alpha, law):
    """Midpoint quadrature of the relative entropy and the friction
    dissipation over the field's window; tail_ok flags edge integrands
    below the truncation monitor."""
    data = ref.cached_eval(field.y, law)
    u = _ratio(field.n, field.rho)
    eta_rel, _ = _relative_density(field.tau, field.rho, field.n, u,
                                   data.rho, data.u, data.thermo, law)
    du = u - data.u
    diss = alpha * field.rho * du * du
    dy = field.dy
    E = float(np.sum(eta_rel) * dy)
    D = float(np.sum(diss) * dy)
    tail = max(abs(eta_rel[0]), abs(eta_rel[-1]), abs(diss[0]), abs(diss[-1]))
    return EntropyTotals(E=E, D_alpha=D, tail_ok=tail <= TAIL_MONITOR)


@dataclass
class ErrorTerms:
    R1: np.ndarray
    R2: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    xi3: np.ndarray
    Xi: tuple  # (Xi1, Xi2, Xi3) midpoint quadratures


def reference_residuals(data, tau, alpha, y):
    """Residuals of a steady reference pair against the scaled system:
    R1 = -(y/2) rho_y + n_y,
    R2 = -(y/2) n_y - n/2 + (n^2/rho)_y + e^tau (p(rho)_y + alpha n).
    """
    y = np.asarray(y, dtype=float)
    R1 = -0.5 * y * data.rho_y + data.n_y
    nsq_y = 2.0 * data.u * data.n_y - data.u * data.u * data.rho_y  # (n^2/rho)_y
    R2 = (
        -0.5 * y * data.n_y
        - 0.5 * data.n
        + nsq_y
        + np.exp(tau) * (data.p_y + alpha * data.n)
    )
    return R1, R2


def error_terms(field, ref, tau, alpha, law):
    """Residuals and the xi error-term fields with their quadratures."""
    y = field.y
    data = ref.cached_eval(y, law)
    R1, R2 = reference_residuals(data, tau, alpha, y)

    u = _ratio(field.n, field.rho)
    du = u - data.u
    _, p_rel = law._relative(field.rho, data.rho, data.thermo)
    exp_m = np.exp(-tau)

    xi1 = -data.u_y * (exp_m * field.rho * du * du + p_rel)
    R_bar = data.u * R1 - R2
    xi2 = exp_m * R_bar * _ratio(field.rho, data.rho) * du
    xi3 = -(field.rho - data.rho) * data.d2h * R1

    dy = field.dy
    Xi = tuple(float(np.sum(v) * dy) for v in (xi1, xi2, xi3))
    return ErrorTerms(R1=R1, R2=R2, xi1=xi1, xi2=xi2, xi3=xi3, Xi=Xi)


# ---------------------------------------------------------------------------
# identities


def exchange_identity_residual(tau, state, ref1, ref2, law):
    """Defect of the argument-exchange identity for the relative entropy.

    eta(.|ref1) + eta(ref1|ref2) - eta(.|ref2) equals an explicit bilinear
    expression; returns |LHS - RHS| (zero up to rounding for all inputs).
    """
    rho, n = state
    rho1, n1 = ref1
    rho2, n2 = ref2
    e1, _ = relative_entropy_density(tau, rho, n, rho1, n1, law)
    e12, _ = relative_entropy_density(tau, rho1, n1, rho2, n2, law)
    e2, _ = relative_entropy_density(tau, rho, n, rho2, n2, law)
    u1 = _ratio(n1, rho1)
    u2 = _ratio(n2, rho2)
    _, dh1, _ = law.potential(rho1)
    _, dh2, _ = law.potential(rho2)
    exp_m = np.exp(-tau)
    rhs = -exp_m * (u1 - u2) * (np.asarray(n, float) - n1) - (
        0.5 * exp_m * (u2 * u2 - u1 * u1) + np.asarray(dh1) - dh2
    ) * (np.asarray(rho, float) - rho1)
    out = np.abs(e1 + e12 - e2 - rhs)
    return float(out) if np.ndim(out) == 0 else out


def entropy_identity_residual(field, tau, y, alpha, law, h_step):
    """Centered-difference defect of the entropy dissipation identity
    eta_tau - (y/2) eta_y + q_y + alpha n^2 / rho at a point.

    `field` provides smooth callables rho(tau, y) and n(tau, y); for exact
    solutions of the scaled system the defect vanishes at O(h_step^2).
    """
    h = h_step

    def eta_at(t, z):
        e, _ = entropy_pair(t, field.rho(t, z), field.n(t, z), law)
        return e

    def q_at(t, z):
        _, q = entropy_pair(t, field.rho(t, z), field.n(t, z), law)
        return q

    eta_tau = (eta_at(tau + h, y) - eta_at(tau - h, y)) / (2 * h)
    eta_y = (eta_at(tau, y + h) - eta_at(tau, y - h)) / (2 * h)
    q_y = (q_at(tau, y + h) - q_at(tau, y - h)) / (2 * h)
    rho = field.rho(tau, y)
    n = field.n(tau, y)
    diss = alpha * float(_ratio(n, rho)) * n
    return float(eta_tau - 0.5 * y * eta_y + q_y + diss)


# ---------------------------------------------------------------------------
# pointwise bounds on the xi terms


def xi_bound_check(tau, y, rho, n, ref, law, alpha):
    """Count pointwise violations of the three xi-term bounds.

    Evaluates the three bounding inequalities at each node for the given
    states against the reference pair, with a rounding slack of 1e-12
    relative to the bound.
    """
    y = np.asarray(y, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = np.asarray(n, dtype=float)
    data = ref.cached_eval(y, law)
    if np.min(data.rho) <= 0:
        raise DomainError("xi bounds require the reference bounded away from vacuum")
    terms = error_terms(ScaledField(tau, y, rho, n), ref, tau, alpha, law)

    eta_rel, _ = _relative_density(tau, rho, n, _ratio(n, rho), data.rho, data.u,
                                   data.thermo, law)
    h_rel, _ = law._relative(rho, data.rho, data.thermo)
    coeff = max(2.0, law.gamma - 1.0)
    R_bar = data.u * terms.R1 - terms.R2
    exp_h = np.exp(-tau / 2.0)

    tol = lambda b: 1e-12 * np.maximum(1.0, np.abs(b))

    bound1a = coeff * np.maximum(-data.u_y, 0.0) * eta_rel
    bound1b = coeff * np.abs(data.u_y) * eta_rel
    v1 = np.count_nonzero(terms.xi1 > bound1a + tol(bound1a))
    v1 += np.count_nonzero(np.abs(terms.xi1) > bound1b + tol(bound1b))

    bound2 = (
        (1.0 / (2.0 * law.k * data.rho**law.gamma) + 1.5 / data.rho)
        * np.abs(R_bar) * exp_h * eta_rel
        + exp_h * np.abs(R_bar)
    )
    v2 = np.count_nonzero(np.abs(terms.xi2) > bound2 + tol(bound2))

    bound3 = (
        2.0 * law.gamma * np.abs(terms.R1) / data.rho * h_rel
        + data.rho * np.abs(data.d2h * terms.R1)
    )
    v3 = np.count_nonzero(np.abs(terms.xi3) > bound3 + tol(bound3))
    return int(v1 + v2 + v3)


# ---------------------------------------------------------------------------
# coercivity constants


@dataclass(frozen=True)
class CoercivityConstants:
    r0: float
    C_small: float  # branch rho <= r0
    C_large: float  # branch rho > r0
    rho_cap: float

    def lower_bound(self, tau, rho, n, rho_bar, gamma):
        """The two-branch coercivity minorant of the relative entropy."""
        X = np.exp(-tau) * np.asarray(n, float) ** 2
        D = np.abs(np.asarray(rho, float) - rho_bar)
        small = self.C_small * (X + D**2)
        ex = gamma / (gamma + 1.0)
        large = self.C_large * (X**ex + D**gamma)
        return np.where(np.asarray(rho, float) <= self.r0, small, large)


def coercivity_constants(law, delta, M):
    """Constants (r0, C) of the coercivity estimate, built as in the
    Taylor/Young argument: r0 = 2M, quadratic constant from the infimum of
    h(rho|rho_bar)/|rho-rho_bar|^2 on [0, r0] x [delta, M], and the
    superlinear branch from the infimum of h(rho|rho_bar)/|rho-rho_bar|^gamma
    on (r0, rho_cap] combined with weighted AM-GM."""
    if not 0 < delta < M:
        raise DomainError("need 0 < delta < M")
    r0 = 2.0 * M
    rho_cap = 100.0 * r0
    grid, safety = 2000, 0.9  # samples per infimum, and the margin below it
    g = law.gamma

    rb = np.linspace(delta, M, 41)
    # quadratic branch: infimum of the Bregman ratio, diagonal limit included
    rr = np.linspace(0.0, r0, grid)
    Rr, Rb = np.meshgrid(rr, rb, indexing="ij")
    h_rel, _ = law.relative(Rr.ravel(), Rb.ravel())
    diff2 = (Rr.ravel() - Rb.ravel()) ** 2
    mask = diff2 > 1e-8
    ratio_inf = float(np.min(h_rel[mask] / diff2[mask]))
    _, _, d2h = law.potential(np.linspace(delta, r0, grid))
    ratio_inf = min(ratio_inf, 0.5 * float(np.min(d2h)))
    c_small = safety * min(ratio_inf, 1.0 / (2.0 * r0))

    # superlinear branch
    rr = np.geomspace(r0 * (1 + 1e-6), rho_cap, grid)
    Rr, Rb = np.meshgrid(rr, rb, indexing="ij")
    h_rel, _ = law.relative(Rr.ravel(), Rb.ravel())
    ratio = h_rel / np.abs(Rr.ravel() - Rb.ravel()) ** g
    c_up = safety * float(np.min(ratio))
    # weighted AM-GM on (kinetic, c_up (rho/2)^gamma) controls X^{g/(g+1)}
    amgm = c_up ** (1.0 / (g + 1.0)) * 0.25 ** (g / (g + 1.0))
    c_large = min(amgm / 2.0, c_up / 2.0)
    return CoercivityConstants(r0=r0, C_small=c_small, C_large=c_large, rho_cap=rho_cap)
