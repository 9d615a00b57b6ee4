"""Finite-volume solver for the damped Euler system in physical variables.

Rusanov (local Lax-Friedrichs) fluxes with optional MUSCL/minmod
reconstruction, Dirichlet ghost cells frozen at the far-field states, and the
friction term integrated exactly (m <- m exp(-alpha dt)) in a splitting that
matches the spatial order: Godunov for order 1, Strang for order 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, NumericalFailure, VacuumViolation

__all__ = [
    "PhysicalState",
    "SolverConfig",
    "RunResult",
    "physical_flux",
    "numerical_flux",
    "max_wavespeed",
    "step",
    "run",
]


@dataclass
class PhysicalState:
    """Cell-averaged (rho, m) on uniform cells centred at x, at time t."""

    x: np.ndarray
    rho: np.ndarray
    m: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        if np.any(self.rho < 0):
            raise DomainError("cell densities must be nonnegative")
        if np.any((self.rho == 0) & (self.m != 0)):
            raise VacuumViolation("vacuum cells must carry zero momentum")

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])

    @property
    def mass(self):
        return float(np.sum(self.rho) * self.dx)

    @property
    def momentum(self):
        return float(np.sum(self.m) * self.dx)


@dataclass
class SolverConfig:
    cfl: float = 0.45
    order: int = 2
    snapshot_times: tuple = ()
    # optional hooks for manufactured-solution studies
    forcing: object = None        # callable (t, x) -> (s_rho, s_m)
    ghost_states: object = None   # callable (t, x_ghost) -> (rho, m)

    def __post_init__(self):
        if not 0 < self.cfl <= 0.5:
            raise ConfigError("cfl must lie in (0, 1/2]")
        if self.order not in (1, 2):
            raise ConfigError("order must be 1 or 2")


def physical_flux(rho, m, law):
    """Exact flux (m, m^2/rho + p(rho)) with the 0/0 := 0 vacuum convention."""
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(rho < 0):
        raise DomainError("density must be nonnegative")
    if np.any((rho == 0) & (m != 0)):
        raise VacuumViolation("vacuum state with nonzero momentum")
    p, _ = law.pressure(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        kin = np.where(rho > 0, m * m / np.where(rho > 0, rho, 1.0), 0.0)
    f_rho = m
    f_m = kin + p
    if np.ndim(f_m) == 0:
        return float(f_rho), float(f_m)
    return f_rho, f_m


def _speed(rho, m, law):
    _, dp = law.pressure(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(rho > 0, m / np.where(rho > 0, rho, 1.0), 0.0)
    return np.abs(u) + np.sqrt(np.maximum(dp, 0.0))


def max_wavespeed(rho, m, law):
    return float(np.max(_speed(rho, m, law)))


def numerical_flux(left, right, law):
    """Rusanov flux: central average minus local-wavespeed upwinding."""
    rho_l, m_l = left
    rho_r, m_r = right
    f_rho_l, f_m_l = physical_flux(rho_l, m_l, law)
    f_rho_r, f_m_r = physical_flux(rho_r, m_r, law)
    s = np.maximum(_speed(np.asarray(rho_l, float), np.asarray(m_l, float), law),
                   _speed(np.asarray(rho_r, float), np.asarray(m_r, float), law))
    f_rho = 0.5 * (np.asarray(f_rho_l) + f_rho_r) - 0.5 * s * (np.asarray(rho_r, float) - rho_l)
    f_m = 0.5 * (np.asarray(f_m_l) + f_m_r) - 0.5 * s * (np.asarray(m_r, float) - m_l)
    if np.ndim(f_m) == 0:
        return float(f_rho), float(f_m)
    return f_rho, f_m


def _minmod(a, b):
    return np.where(a * b > 0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _ghosts(cfg, limits, t, x, dx):
    if cfg.ghost_states is not None:
        xg_l = x[0] - dx * np.array([2.0, 1.0])
        xg_r = x[-1] + dx * np.array([1.0, 2.0])
        rl, ml = cfg.ghost_states(t, xg_l)
        rr, mr = cfg.ghost_states(t, xg_r)
        return (np.asarray(rl, float), np.asarray(ml, float),
                np.asarray(rr, float), np.asarray(mr, float))
    rl = np.full(2, limits.rho_minus)
    rr = np.full(2, limits.rho_plus)
    return rl, np.zeros(2), rr, np.zeros(2)


def _hyperbolic_rhs(rho, m, t, x, dx, cfg, law, limits):
    """Flux divergence (and boundary fluxes) of one spatial evaluation."""
    rl, ml, rr, mr = _ghosts(cfg, limits, t, x, dx)
    R = np.concatenate([rl, rho, rr])
    M = np.concatenate([ml, m, mr])

    if cfg.order == 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            U = np.where(R > 0, M / np.where(R > 0, R, 1.0), 0.0)
        slope_r = _minmod(R[1:-1] - R[:-2], R[2:] - R[1:-1])
        slope_u = _minmod(U[1:-1] - U[:-2], U[2:] - U[1:-1])
        # first-order fallback next to (near-)vacuum cells
        near_vac = (R[:-2] < 1e-8) | (R[1:-1] < 1e-8) | (R[2:] < 1e-8)
        slope_r = np.where(near_vac, 0.0, slope_r)
        slope_u = np.where(near_vac, 0.0, slope_u)
        r_minus = R[1:-1] - 0.5 * slope_r          # left face of each cell
        r_plus = R[1:-1] + 0.5 * slope_r           # right face
        u_minus = U[1:-1] - 0.5 * slope_u
        u_plus = U[1:-1] + 0.5 * slope_u
        r_minus = np.maximum(r_minus, 0.0)
        r_plus = np.maximum(r_plus, 0.0)
        left_state = (r_plus[:-1], r_plus[:-1] * u_plus[:-1])
        right_state = (r_minus[1:], r_minus[1:] * u_minus[1:])
    else:
        left_state = (R[1:-2], M[1:-2])
        right_state = (R[2:-1], M[2:-1])

    # N+1 interface fluxes bordering the N physical cells
    f_rho, f_m = numerical_flux(left_state, right_state, law)
    drho = -(f_rho[1:] - f_rho[:-1]) / dx
    dm = -(f_m[1:] - f_m[:-1]) / dx
    if cfg.forcing is not None:
        s_rho, s_m = cfg.forcing(t, x)
        drho = drho + s_rho
        dm = dm + s_m
    boundary = (f_rho[0], f_rho[-1], f_m[0], f_m[-1])
    return drho, dm, boundary


def _check(rho, m):
    if np.any(np.isnan(rho)) or np.any(np.isnan(m)):
        raise NumericalFailure("NaN detected during time stepping")
    if np.min(rho) < 0:
        raise NumericalFailure(f"negative density {np.min(rho):.3e}")


@dataclass
class StepAudit:
    dt: float
    flux_mass: tuple       # time-integrated (left, right) boundary mass flux
    flux_momentum: tuple
    damping_sink: float    # integral of alpha * m over cells and the step


def _advance(state, cfg, law, alpha, limits, dt=None):
    x, dx, t = state.x, state.dx, state.t
    rho, m = state.rho, state.m

    if dt is None:
        smax = max_wavespeed(rho, m, law)
        if smax <= 0:
            smax = 1e-14
        dt = cfg.cfl * dx / smax
    half = np.exp(-alpha * dt / 2.0)
    full = np.exp(-alpha * dt)

    sink = 0.0
    if cfg.order == 2:
        m1 = m * half
        sink += np.sum(m - m1) * dx if alpha > 0 else 0.0
        d1, e1, b1 = _hyperbolic_rhs(rho, m1, t, x, dx, cfg, law, limits)
        rho_s = rho + dt * d1
        m_s = m1 + dt * e1
        _check(rho_s, m_s)
        d2, e2, b2 = _hyperbolic_rhs(rho_s, m_s, t + dt, x, dx, cfg, law, limits)
        rho_n = 0.5 * (rho + rho_s + dt * d2)
        m_n = 0.5 * (m1 + m_s + dt * e2)
        _check(rho_n, m_n)
        m2 = m_n * half
        sink += np.sum(m_n - m2) * dx if alpha > 0 else 0.0
        m_n = m2
        fm = tuple(0.5 * dt * (a + b) for a, b in zip(b1, b2))
    else:
        d1, e1, b1 = _hyperbolic_rhs(rho, m, t, x, dx, cfg, law, limits)
        rho_n = rho + dt * d1
        m_n = m + dt * e1
        _check(rho_n, m_n)
        mg = m_n * full
        sink += np.sum(m_n - mg) * dx if alpha > 0 else 0.0
        m_n = mg
        fm = tuple(dt * b for b in b1)

    new = PhysicalState(x, rho_n, m_n, t + dt)
    audit = StepAudit(dt, (fm[0], fm[1]), (fm[2], fm[3]), sink)
    return new, audit


def step(state, cfg, law, alpha, limits, dt=None):
    """Advance one time step (CFL-chosen dt unless given); see _advance."""
    new, _ = _advance(state, cfg, law, alpha, limits, dt)
    return new


@dataclass
class RunResult:
    snapshots: list
    meta: dict = field(default_factory=dict)

    @property
    def final(self):
        return self.snapshots[-1]


def run(initial, cfg, law, limits, t_end, *, scaled_halfwidth=None):
    """March to t_end, capturing snapshots at cfg.snapshot_times.

    dt is clipped so snapshot times are hit exactly.  Returns a RunResult
    whose meta carries the per-step audit series and the cumulative boundary
    fluxes for the conservation checks.
    """
    if t_end <= initial.t:
        raise ConfigError("t_end must exceed the initial time")
    targets = sorted(t for t in cfg.snapshot_times if t > initial.t)
    if any(t > t_end * (1 + 1e-12) for t in targets):
        raise ConfigError("snapshot time beyond t_end")
    X = float(initial.x[-1] + initial.dx / 2)
    if scaled_halfwidth is not None and scaled_halfwidth * np.sqrt(1 + t_end) > X:
        raise ConfigError(
            "physical domain too small for the requested scaled window"
        )

    state = initial
    snapshots = [PhysicalState(state.x, state.rho.copy(), state.m.copy(), state.t)]
    times, dts, masses, momenta = [], [], [], []
    cum_fm, cum_fp, cum_sink = [], [], []
    total_fm = total_fp = total_sink = 0.0
    pending = list(targets)
    warned = False

    while state.t < t_end * (1 - 1e-14):
        smax = max_wavespeed(state.rho, state.m, law)
        dt = cfg.cfl * state.dx / max(smax, 1e-14)
        t_next = pending[0] if pending else t_end
        dt = min(dt, t_next - state.t, t_end - state.t)
        state, audit = _advance(state, cfg, law, alpha=limits.alpha, limits=limits, dt=dt)

        total_fm += audit.flux_mass[0] - audit.flux_mass[1]
        total_fp += audit.flux_momentum[0] - audit.flux_momentum[1]
        total_sink += audit.damping_sink
        times.append(state.t)
        dts.append(dt)
        masses.append(state.mass)
        momenta.append(state.momentum)
        cum_fm.append(total_fm)
        cum_fp.append(total_fp)
        cum_sink.append(total_sink)

        if pending and abs(state.t - pending[0]) <= 1e-12 * (1 + pending[0]):
            snapshots.append(
                PhysicalState(state.x, state.rho.copy(), state.m.copy(), pending[0])
            )
            pending.pop(0)

        if not warned:
            dev = max(
                abs(state.rho[0] - limits.rho_minus),
                abs(state.rho[-1] - limits.rho_plus),
                abs(state.m[0]),
                abs(state.m[-1]),
            )
            if cfg.ghost_states is None and dev > 1e-8:
                warnings.warn("waves reached the boundary cells", RuntimeWarning)
                warned = True

    if not targets:
        snapshots.append(PhysicalState(state.x, state.rho.copy(), state.m.copy(), state.t))

    meta = {
        "t": np.array(times),
        "dt": np.array(dts),
        "mass": np.array(masses),
        "momentum": np.array(momenta),
        "boundary_flux_mass": np.array(cum_fm),
        "boundary_flux_momentum": np.array(cum_fp),
        "damping_sink": np.array(cum_sink),
    }
    return RunResult(snapshots, meta)
