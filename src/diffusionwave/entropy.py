"""Relative entropy machinery in scaling variables.

Entropy pair, relative entropy density, totals and dissipation,
residuals of a reference pair against the scaled system, the xi error terms
with their pointwise bounds, and the coercivity constants.

References are functions of y alone: the constant state and the similarity
profile, which is a stationary solution in scaling variables.  A
`ReferencePair` holds one as node values, on a y-grid and one node beyond
each end, and `eval` turns it into one read-only table, a `RefData`, with
u, u_y, the thermodynamics of rho_bar and the tau-free parts of its
residuals: R1, the steady part of R2, u R1 and -u_y.  At scaling time tau
the residual R2 is that steady part plus e^tau (p(rho_bar)_y + alpha n).

One core, `_relative_core`, computes du, rho - rho_bar, h_rel, p_rel and
eta_rel; `relative_entropy_density` and the per-snapshot pass share it.
`_snapshot_pass` returns the pass against a RefData, which computes every
diagnostic of a snapshot once into one flat record: the core, the
dissipation, E and D_alpha, then R2 and the xi terms with their integrals.
`lab.plan` builds it once per experiment; `total_relative_entropy` and
`error_terms` return its record, and `xi_bound_check` reads a record.  The
pass divides by the field's density and the reference's directly: the solver
keeps the one > 0, and the snapshot functions check it
(`errors.check_positive`); `ReferencePair.eval` checks the other.  Every
reference density is > 0; only the field of `relative_entropy_density` may
touch rho = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, VacuumViolation, check_positive
from .scaling import ScaledField

__all__ = [
    "ReferencePair",
    "RefData",
    "relative_entropy_density",
    "total_relative_entropy",
    "error_terms",
    "exchange_identity_residual",
    "entropy_identity_residual",
    "xi_bound_check",
    "coercivity_constants",
    "CoercivityConstants",
]


def _ratio(num, den):
    """num/den with the 0/0 := 0 convention; raises on momentum at vacuum.
    A plain divide when every den > 0."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    if (den > 0).all():
        return num / den
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


def _relative_core(exp_m, rho, u, rho_bar, u_bar, reference, law, out=(None,) * 6):
    """(du, rho - rho_bar, h_rel, p_rel, eta_rel) of rho >= 0 with velocity
    u against rho_bar with velocity u_bar and `reference`, the
    `PressureLaw._reference` terms, at exp_m = e^-tau; into
    out = (du, drho, h_rel, p_rel, eta_rel, work) if given, work a scratch
    array, and u may be du."""
    du_out, drho_out, h_out, p_out, eta_out, work = out
    du = np.subtract(u, u_bar, du_out)
    drho = np.subtract(rho, rho_bar, drho_out)
    h_rel, p_rel = law._relative(rho, drho, reference, (h_out, p_out, work))
    eta_rel = np.multiply(np.multiply(rho, 0.5 * exp_m, eta_out), du, eta_out)
    return du, drho, h_rel, p_rel, np.add(np.multiply(eta_rel, du, eta_out), h_rel, eta_out)


def relative_entropy_density(tau, rho, n, rho_bar, n_bar, law):
    """Relative entropy density of (rho, n), rho >= 0, against (rho_bar,
    n_bar), rho_bar > 0 as in `ReferencePair.eval` (DomainError otherwise):
    eta_rel = (1/2) e^-tau rho |n/rho - n_bar/rho_bar|^2 + h(rho | rho_bar).
    """
    rho = np.asarray(rho, dtype=float)
    rho_bar = np.asarray(rho_bar, dtype=float)
    if np.any(rho < 0):
        raise DomainError("densities must be nonnegative")
    if not np.all(rho_bar > 0):
        raise DomainError("the reference density must be positive")
    eta_rel = _relative_core(np.exp(-tau), rho, _ratio(n, rho), rho_bar, n_bar / rho_bar,
                             law._reference(rho_bar), law)[-1]
    return float(eta_rel) if eta_rel.ndim == 0 else eta_rel


# ---------------------------------------------------------------------------
# reference pairs


def _read_only(a):
    """A read-only view: the caller's array keeps its own flags."""
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class RefData:
    """A reference pair evaluated on the y-grid `y`, with first derivatives,
    the velocity u = n/rho, its derivative u_y, the thermodynamics of rho:
    h, h', h'', p and p', and the tau-free residual terms against the scaled
    system: R1 = -(y/2) rho_y + n_y, the steady part of R2,
    R2_steady = -(y/2) n_y - n/2 + (n^2/rho)_y, u_R1 = u R1 and
    neg_u_y = -u_y.  Every array is read-only, because one RefData serves
    every snapshot of a run."""

    y: np.ndarray
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
    R1: np.ndarray
    R2_steady: np.ndarray
    u_R1: np.ndarray
    neg_u_y: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _read_only(getattr(self, f.name)))

    @property
    def thermo(self):
        """(h, h', p, p') of rho, as `PressureLaw._relative` takes them."""
        return self.h, self.dh, self.p, self.dp


@dataclass(frozen=True)
class ReferencePair:
    """A steady reference (rho_bar, n_bar) as node values: `rho` and `n`
    hold y.size + 2 values, at the nodes of the y-grid `y` and at one node
    beyond each end, spaced as y."""

    y: np.ndarray
    rho: np.ndarray
    n: np.ndarray

    def eval(self, law):
        """The RefData on y: values, first derivatives and the steady
        residual terms; DomainError unless every rho_bar > 0.

        The derivatives of rho_bar, n_bar and p(rho_bar) are centered
        differences of the neighbour nodes with h, the grid spacing, so
        discrete Darcy closures cancel exactly; (n^2/rho)_y = 2 u n_y - u^2 rho_y.
        p and p' are one `_p_dp` pass on the nodes, read on y from [1:-1].
        """
        y = np.asarray(self.y, dtype=float)
        rho_nodes = np.asarray(self.rho, dtype=float)
        n_nodes = np.asarray(self.n, dtype=float)
        if not np.min(rho_nodes) > 0:
            raise DomainError("the reference density must be positive")
        span = 2 * float(y[1] - y[0])
        centred = lambda v: (v[2:] - v[:-2]) / span
        rho, n = rho_nodes[1:-1], n_nodes[1:-1]
        rho_y, n_y = centred(rho_nodes), centred(n_nodes)
        (h, dh, d2h), (p_nodes, dp_nodes) = law.potential(rho), law._p_dp(rho_nodes)
        p_y, p, dp = centred(p_nodes), p_nodes[1:-1], dp_nodes[1:-1]
        u = n / rho
        u_y = (n_y * rho - n * rho_y) / rho**2
        R1 = -0.5 * y * rho_y + n_y
        nsq_y = 2.0 * u * n_y - u * u * rho_y
        return RefData(y=y, rho=rho, n=n, rho_y=rho_y, n_y=n_y, p_y=p_y, u=u, u_y=u_y,
                       h=h, dh=dh, d2h=d2h, p=p, dp=dp, R1=R1, u_R1=u * R1, neg_u_y=-u_y,
                       R2_steady=-0.5 * y * n_y - 0.5 * n + nsq_y)


# ---------------------------------------------------------------------------
# totals, residuals, error terms


@dataclass
class _Snapshot:
    """Every diagnostic of one snapshot against a RefData, computed once."""

    E: float
    D_alpha: float
    R1: np.ndarray
    R2: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    xi3: np.ndarray
    Xi: tuple  # (Xi1, Xi2, Xi3) midpoint quadratures
    eta_rel: np.ndarray
    h_rel: np.ndarray
    R_bar: np.ndarray  # u R1 - R2


def _snapshot_pass(ref, alpha, law):
    """The per-snapshot pass against the RefData ref at friction alpha: a
    function of a field on ref.y (DomainError if not) whose density is > 0,
    giving the relative entropy E and dissipation D_alpha by midpoint
    quadrature, the residual R2 = R2_steady + e^tau (p_y + alpha n) and the
    xi terms with their quadratures at tau = field.tau.  R2's tau-free forcing p_y + alpha n is computed here,
    once.  The pass owns du, rho - rho_bar and two scratch rows, and writes
    every temporary into them: a call allocates only the arrays of the
    record it returns, which the next call leaves as they are."""
    forcing, neg_d2h = ref.p_y + alpha * ref.n, -ref.d2h
    dy = float(ref.y[1] - ref.y[0])  # the dy of every field on ref.y
    total = lambda v: float(np.add.reduce(v) * dy)  # v.sum() * dy
    du, drho, p_rel, work = np.empty((4, ref.y.size))

    def snapshot(field):
        if field.y is not ref.y and not np.array_equal(ref.y, field.y):
            raise DomainError("the field is not on the y-grid of the reference")
        tau, rho = field.tau, field.rho
        # libm's exp: numpy's AVX-512 exp differs from it in the last bit
        exp_m, exp_p = math.exp(-tau), math.exp(tau)
        h_rel, eta_rel = np.empty_like(du), np.empty_like(du)
        _relative_core(exp_m, rho, np.divide(field.n, rho, du), ref.rho, ref.u, ref.thermo,
                       law, (du, drho, h_rel, p_rel, eta_rel, work))
        diss = np.multiply(rho, alpha, work)
        diss *= du
        diss *= du
        E, D_alpha = total(eta_rel), total(diss)
        R2 = forcing * exp_p
        R2 += ref.R2_steady
        xi1 = rho * exp_m
        xi1 *= du
        xi1 *= du
        xi1 += p_rel
        xi1 *= ref.neg_u_y
        R_bar = ref.u_R1 - R2
        xi2 = R_bar * exp_m
        xi2 *= np.divide(rho, ref.rho, work)
        xi2 *= du
        xi3 = drho * neg_d2h  # (-drho) d2h, bit for bit
        xi3 *= ref.R1
        return _Snapshot(E=E, D_alpha=D_alpha, R1=ref.R1, R2=R2, xi1=xi1, xi2=xi2, xi3=xi3,
                         Xi=(total(xi1), total(xi2), total(xi3)), eta_rel=eta_rel,
                         h_rel=h_rel, R_bar=R_bar)
    return snapshot


def total_relative_entropy(field, ref, alpha, law):
    """Midpoint quadrature of the relative entropy and the friction
    dissipation against the RefData `ref` over the field's window, in the
    snapshot's record: .E and .D_alpha.  The field's density must be > 0, and
    the reference's too."""
    return error_terms(field, ref, field.tau, alpha, law)


def error_terms(field, ref, tau, alpha, law):
    """Residuals of the RefData `ref` against the scaled system at `tau`,
    R1 = -(y/2) rho_y + n_y and
    R2 = -(y/2) n_y - n/2 + (n^2/rho)_y + e^tau (p(rho)_y + alpha n),
    and the xi error-term fields with their quadratures, in the snapshot's
    record.  The field's density must be > 0, and the reference's too."""
    check_positive(field.rho, field.n)
    return _snapshot_pass(ref, alpha, law)(ScaledField(tau, field.y, field.rho, field.n))


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
    e1 = relative_entropy_density(tau, rho, n, rho1, n1, law)
    e12 = relative_entropy_density(tau, rho1, n1, rho2, n2, law)
    e2 = relative_entropy_density(tau, rho, n, rho2, n2, law)
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
    pair = lambda t, z: entropy_pair(t, field.rho(t, z), field.n(t, z), law)
    (eta_later, _), (eta_earlier, _) = pair(tau + h, y), pair(tau - h, y)
    (eta_right, q_right), (eta_left, q_left) = pair(tau, y + h), pair(tau, y - h)
    eta_tau = (eta_later - eta_earlier) / (2 * h)
    eta_y = (eta_right - eta_left) / (2 * h)
    q_y = (q_right - q_left) / (2 * h)
    rho = field.rho(tau, y)
    n = field.n(tau, y)
    diss = alpha * float(_ratio(n, rho)) * n
    return float(eta_tau - 0.5 * y * eta_y + q_y + diss)


# ---------------------------------------------------------------------------
# pointwise bounds on the xi terms


def xi_bound_check(snap, tau, ref, law):
    """Count pointwise violations of the three xi-term bounds.

    Evaluates the three bounding inequalities at each node of `snap`, the
    record of a field at `tau` against the RefData `ref` (of `error_terms`
    or a pass), with a rounding slack of 1e-12 relative to the bound.  The
    xi2 bound reads p(rho_bar) as `ref.p`.
    """
    coeff = max(2.0, law.gamma - 1.0)
    exp_h = np.exp(-tau / 2.0)

    tol = lambda b: 1e-12 * np.maximum(1.0, np.abs(b))

    bound1a = coeff * np.maximum(-ref.u_y, 0.0) * snap.eta_rel
    bound1b = coeff * np.abs(ref.u_y) * snap.eta_rel
    v1 = np.count_nonzero(snap.xi1 > bound1a + tol(bound1a))
    v1 += np.count_nonzero(np.abs(snap.xi1) > bound1b + tol(bound1b))

    bound2 = (
        (1.0 / (2.0 * ref.p) + 1.5 / ref.rho)
        * np.abs(snap.R_bar) * exp_h * snap.eta_rel
        + exp_h * np.abs(snap.R_bar)
    )
    v2 = np.count_nonzero(np.abs(snap.xi2) > bound2 + tol(bound2))

    bound3 = (
        2.0 * law.gamma * np.abs(snap.R1) / ref.rho * snap.h_rel
        + ref.rho * np.abs(ref.d2h * snap.R1)
    )
    v3 = np.count_nonzero(np.abs(snap.xi3) > bound3 + tol(bound3))
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
