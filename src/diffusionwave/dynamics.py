"""Finite-volume solver for the damped Euler system in physical variables.

Rusanov (local Lax-Friedrichs) fluxes with optional MUSCL/minmod
reconstruction, Dirichlet ghost cells frozen at the far-field states, and the
friction term integrated exactly (m <- m exp(-alpha dt)) in a splitting that
matches the spatial order: Godunov for order 1, Strang for order 2.

Kernel contract.  Every Rusanov flux comes from one unchecked core,
`_rusanov`, which evaluates m^2/rho, u, p and sqrt(p') once per face state.
`numerical_flux` is the domain checks plus that core, and `max_wavespeed`
shares its speed code; `physical_flux` stays a separate public reference.
When every face density is > 0 the core skips the 0/0 := 0 masks, each of
which would pick the quotient there; otherwise (vacuum faces) the masked
arithmetic runs.  Either way the bits equal those of `numerical_flux`.

Active window.  `step` and `run` share one step, `_advance`, which computes
both stages only on the cells `_window` finds the step can change: all but
the leading and trailing cells that hold their side's ghost state, (rho_-, 0)
or (rho_+, 0) to the bit, more than four cells (two stages of the two-cell
MUSCL stencil) away from any other, rounded out to whole blocks of 16 cells.
The scheme leaves those cells bit for bit as they are, so the window
changes no result: the window's edge faces see only far-field data and give
the boundary fluxes, the CFL maximum takes one far-field cell on each side,
and the friction sink is summed over the full grid in numpy's pairwise
order.  A `forcing` or `ghost_states` hook gets the full grid.

The time loop checks states, not faces, on the window: `_check` rejects NaN,
inf and negative density after each stage, a step whose CFL dt is not finite
and positive is a NumericalFailure, and a vacuum cell with momentum is a
VacuumViolation.
"""

from __future__ import annotations

import math
from array import array
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

    @classmethod
    def _trusted(cls, x, rho, m, t):
        """A state from float arrays whose checks the caller has made."""
        state = cls.__new__(cls)
        state.x, state.rho, state.m, state.t = x, rho, m, t
        return state

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


def _validate(rho, m):
    if np.any(rho < 0):
        raise DomainError("density must be nonnegative")
    if np.any((rho == 0) & (m != 0)):
        raise VacuumViolation("vacuum state with nonzero momentum")


def physical_flux(rho, m, law):
    """Exact flux (m, m^2/rho + p(rho)) with the 0/0 := 0 vacuum convention."""
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    _validate(rho, m)
    p, _ = law.pressure(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        kin = np.where(rho > 0, m * m / np.where(rho > 0, rho, 1.0), 0.0)
    f_rho = m
    f_m = kin + p
    if np.ndim(f_m) == 0:
        return float(f_rho), float(f_m)
    return f_rho, f_m


# -- flux core ---------------------------------------------------------------
# Unchecked: densities are >= 0 (or NaN) and vacuum carries m = 0.  Each face
# state's m^2/rho, u, p and sqrt(p') is evaluated once.  Where no density is
# zero every 0/0 := 0 mask would pick the quotient, so that case skips them;
# both branches give the same bits.


def _vacuum_free(rho):
    # NaN compares false and so takes the masked branch
    return rho.min(initial=np.inf) > 0


def _quotient(num, rho, vacuum_free, out=None):
    """num/rho, read as 0 where rho = 0 (out is only used without vacuum)."""
    if vacuum_free:
        return np.divide(num, rho, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rho > 0, num / np.where(rho > 0, rho, 1.0), 0.0)


def _speed(rho, m, dp, vacuum_free):
    """|u| + sqrt(p'); dp >= 0 is overwritten."""
    s = _quotient(m, rho, vacuum_free)
    np.abs(s, out=s)
    s += np.sqrt(dp, out=dp)
    return s


def _face(rho, m, law, vacuum_free):
    """Momentum flux m^2/rho + p and wavespeed |u| + sqrt(p') of face states."""
    p, dp = law._p_dp(rho)
    mm = m * m
    f_m = _quotient(mm, rho, vacuum_free, out=mm)
    f_m += p
    return f_m, _speed(rho, m, dp, vacuum_free)


def _rusanov(rho_l, m_l, rho_r, m_r, law):
    """Rusanov fluxes (f_rho, f_m) on same-shape float arrays of face states."""
    fm_l, s = _face(rho_l, m_l, law, _vacuum_free(rho_l))
    fm_r, s_r = _face(rho_r, m_r, law, _vacuum_free(rho_r))
    np.maximum(s, s_r, out=s)
    s *= 0.5
    f_rho = m_l + m_r
    f_rho *= 0.5
    jump = rho_r - rho_l
    jump *= s
    f_rho -= jump
    f_m = fm_l
    f_m += fm_r
    f_m *= 0.5
    np.subtract(m_r, m_l, out=jump)
    jump *= s
    f_m -= jump
    return f_rho, f_m


def max_wavespeed(rho, m, law):
    """max |u| + sqrt(p'(rho)); DomainError on a negative density."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    _, dp = law.pressure(rho)
    return float(np.max(_speed(rho, m, dp, _vacuum_free(rho))))


def numerical_flux(left, right, law):
    """Rusanov flux: central average minus local-wavespeed upwinding.

    The domain checks of `physical_flux` on both states, then `_rusanov`.
    """
    arrays = [np.asarray(a, dtype=float) for a in (*left, *right)]
    _validate(*arrays[:2])
    _validate(*arrays[2:])
    f_rho, f_m = _rusanov(*np.broadcast_arrays(*np.atleast_1d(*arrays)), law)
    if np.broadcast(*arrays).ndim == 0:
        return float(f_rho[0]), float(f_m[0])
    return f_rho, f_m


def _minmod(a, b):
    """Where a and b share a sign, the one smaller in magnitude; else 0."""
    out = np.abs(a)
    tmp = np.abs(b)
    np.minimum(out, tmp, out=out)
    np.copysign(out, a, out=out)   # where a value is kept, a and b share a sign
    np.multiply(a, b, out=tmp)
    np.copyto(out, 0.0, where=~(tmp > 0))
    return out


# first-order fallback next to cells below this density
_NEAR_VACUUM = 1e-8


def _padded(rho, m, t, x, dx, cfg, limits):
    """(R, M): cell values plus two ghost cells at each end, in one buffer."""
    R, M = np.empty((2, rho.size + 4))
    R[2:-2] = rho
    M[2:-2] = m
    if cfg.ghost_states is None:
        R[:2], R[-2:] = limits.rho_minus, limits.rho_plus
        M[:2] = M[-2:] = 0.0
        return R, M
    for side, xg in ((slice(None, 2), x[0] - dx * np.array([2.0, 1.0])),
                     (slice(-2, None), x[-1] + dx * np.array([1.0, 2.0]))):
        rg, mg = (np.asarray(v, dtype=float) for v in cfg.ghost_states(t, xg))
        _validate(rg, mg)
        R[side], M[side] = rg, mg
    return R, M


def _hyperbolic_rhs(rho, m, t, x, dx, cfg, law, limits):
    """Flux divergence (and boundary fluxes) of one spatial evaluation."""
    R, M = _padded(rho, m, t, x, dx, cfg, limits)

    if cfg.order == 2:
        low = R.min()
        U = _quotient(M, R, low > 0, out=M)
        # a[1:] - a[:-1] is what np.diff computes, without its call overhead
        dR = R[1:] - R[:-1]
        dU = U[1:] - U[:-1]
        slope_r = _minmod(dR[:-1], dR[1:])
        slope_u = _minmod(dU[:-1], dU[1:])
        if not low >= _NEAR_VACUUM:
            near = R < _NEAR_VACUUM
            near_vac = near[:-2] | near[1:-1] | near[2:]
            slope_r[near_vac] = 0.0
            slope_u[near_vac] = 0.0
        slope_r *= 0.5
        slope_u *= 0.5
        # right face of cell j meets left face of cell j + 1
        rho_l = R[1:-2] + slope_r[:-1]
        rho_r = R[2:-1] - slope_r[1:]
        np.maximum(rho_l, 0.0, out=rho_l)
        np.maximum(rho_r, 0.0, out=rho_r)
        m_l = U[1:-2] + slope_u[:-1]
        m_l *= rho_l
        m_r = U[2:-1] - slope_u[1:]
        m_r *= rho_r
    else:
        rho_l, m_l, rho_r, m_r = R[1:-2], M[1:-2], R[2:-1], M[2:-1]

    # N+1 interface fluxes bordering the N physical cells
    f_rho, f_m = _rusanov(rho_l, m_l, rho_r, m_r, law)
    drho = f_rho[1:] - f_rho[:-1]
    drho /= -dx
    dm = f_m[1:] - f_m[:-1]
    dm /= -dx
    if cfg.forcing is not None:
        s_rho, s_m = cfg.forcing(t, x)
        drho += s_rho
        dm += s_m
    boundary = (f_rho[0], f_rho[-1], f_m[0], f_m[-1])
    return drho, dm, boundary


def _check(rho, m):
    """The least density, after rejecting NaN, inf and negative density."""
    # a NaN or inf anywhere makes its sum non-finite
    if not (math.isfinite(rho.sum()) and math.isfinite(m.sum())):
        raise NumericalFailure("NaN or inf detected during time stepping")
    low = rho.min()
    if low < 0:
        raise NumericalFailure(f"negative density {low:.3e}")
    return low


@dataclass
class StepAudit:
    dt: float
    flux_mass: tuple       # time-integrated (left, right) boundary mass flux
    flux_momentum: tuple
    damping_sink: float    # integral of alpha * m over cells and the step
    active_cells: int      # width of the window the step was computed on


def _cfl_dt(rho, m, t, dx, cfg, law):
    smax = max_wavespeed(rho, m, law)
    dt = cfg.cfl * dx / max(smax, 1e-14)
    if not (math.isfinite(dt) and dt > 0):
        raise NumericalFailure(
            f"CFL time step {dt!r} at t = {t!r} is not finite and positive")
    return dt


def _axpy(a, x, y):
    """a x + y, in x's storage."""
    x *= a
    x += y
    return x


# A stage changes a cell only through its two face fluxes, and MUSCL builds
# a face from two cells on each side: two stages reach four cells.
_MARGIN = 4
# The step computes whole blocks of cells, so that a growing window allocates
# its arrays in few sizes, which malloc reuses; with a new size every few
# steps the heap fragmented and the peak memory of a run grew.
_BLOCK = 16


def _bits(value):
    """The bit pattern of a float, as an int64."""
    return np.float64(value).view(np.int64)


def _leading(flags):
    """Length of the leading run of True in a boolean array."""
    k = int(flags.argmin())
    return flags.size if flags[k] else k


def _window(rho, m, cfg, limits):
    """[lo, hi) = [P - 4, n - S + 4) clipped to the grid: the cells one step
    can change.

    P leading cells hold the bits of the left ghost cells (rho_-, +0.0) and
    S trailing cells those of the right ones (rho_+, +0.0); the bits, not
    the values, so that a -0.0 is not taken for a 0.0.  A cell outside the
    window sees only far-field data in both stages, so its flux difference
    is exactly 0, its friction 0 e^(-alpha dt) = 0, and the step leaves its
    bits as they are.  The hooks can make the far field move, so they get
    the full range, as does a grid that is far field throughout.
    """
    n = rho.size
    if cfg.forcing is not None or cfg.ghost_states is not None:
        return 0, n
    bits = rho.view(np.int64)
    still = m.view(np.int64) == 0
    lead = _leading((bits == _bits(limits.rho_minus)) & still)
    trail = _leading(((bits == _bits(limits.rho_plus)) & still)[::-1])
    if lead + trail > n:
        return 0, n
    return max(lead - _MARGIN, 0), min(n - trail + _MARGIN, n)


def _sink(before, after, lo, n, dx):
    """dx sum(before - after), the window's values placed at lo among n
    zeros: outside the window both are 0, and numpy's pairwise sum adds in
    the order of the full grid."""
    loss = np.zeros(n)
    np.subtract(before, after, out=loss[lo:lo + before.size])
    return np.sum(loss) * dx


def _splice(full, lo, part):
    """full with part written over it from index lo, as a new array."""
    return np.concatenate((full[:lo], part, full[lo + part.size:]))


def _advance(state, cfg, law, alpha, limits, dt=None, t_stop=math.inf):
    """One step of the cells in `_window`, rounded out to whole blocks; the
    others keep their bits.

    Without dt, the CFL step, cut to end at t_stop at the latest.
    """
    dx, t, n = state.dx, state.t, state.x.size
    lo, hi = _window(state.rho, state.m, cfg, limits)
    lo, hi = lo - lo % _BLOCK, min(hi + -hi % _BLOCK, n)
    if dt is None:
        # the cell next to the window on each side carries the far-field speed
        near = slice(max(lo - 1, 0), hi + 1)
        dt = min(_cfl_dt(state.rho[near], state.m[near], t, dx, cfg, law), t_stop - t)
    x, rho, m = state.x[lo:hi], state.rho[lo:hi], state.m[lo:hi]
    half = np.exp(-alpha * dt / 2.0)
    full = np.exp(-alpha * dt)

    sink = 0.0
    if cfg.order == 2:
        m1 = m * half
        sink += _sink(m, m1, lo, n, dx) if alpha > 0 else 0.0
        d1, e1, b1 = _hyperbolic_rhs(rho, m1, t, x, dx, cfg, law, limits)
        rho_s = _axpy(dt, d1, rho)
        m_s = _axpy(dt, e1, m1)
        _check(rho_s, m_s)
        d2, e2, b2 = _hyperbolic_rhs(rho_s, m_s, t + dt, x, dx, cfg, law, limits)
        rho_n = _axpy(dt, d2, rho + rho_s)
        rho_n *= 0.5
        m_n = _axpy(dt, e2, m1 + m_s)
        m_n *= 0.5
        low = _check(rho_n, m_n)
        m2 = m_n * half
        sink += _sink(m_n, m2, lo, n, dx) if alpha > 0 else 0.0
        m_n = m2
        fm = tuple(0.5 * dt * (a + b) for a, b in zip(b1, b2))
    else:
        d1, e1, b1 = _hyperbolic_rhs(rho, m, t, x, dx, cfg, law, limits)
        rho_n = _axpy(dt, d1, rho)
        m_n = _axpy(dt, e1, m)
        low = _check(rho_n, m_n)
        mg = m_n * full
        sink += _sink(m_n, mg, lo, n, dx) if alpha > 0 else 0.0
        m_n = mg
        fm = tuple(dt * b for b in b1)

    if low == 0:   # only a vacuum cell can carry momentum it must not
        _validate(rho_n, m_n)
    new = PhysicalState._trusted(state.x, _splice(state.rho, lo, rho_n),
                                 _splice(state.m, lo, m_n), t + dt)
    audit = StepAudit(dt, (fm[0], fm[1]), (fm[2], fm[3]), sink, hi - lo)
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
    whose meta carries the per-step audit series, the cumulative boundary
    fluxes for the conservation checks, `active_cells`, the width of the
    window each step was computed on (see `_window`), and
    `boundary_deviation`, how far the edge cells have moved from the far
    field: max(|rho_0 - rho_-|, |rho_{n-1} - rho_+|, |m_0|, |m_{n-1}|).
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
    # typed arrays: 8 bytes a step each, not a float object and a pointer
    times, dts, masses, momenta = (array("d") for _ in range(4))
    cum_fm, cum_fp, cum_sink, edge = (array("d") for _ in range(4))
    active = array("q")
    total_fm = total_fp = total_sink = 0.0
    pending = list(targets)

    while state.t < t_end * (1 - 1e-14):
        t_stop = min(pending[0], t_end) if pending else t_end
        state, audit = _advance(state, cfg, law, limits.alpha, limits, t_stop=t_stop)

        total_fm += audit.flux_mass[0] - audit.flux_mass[1]
        total_fp += audit.flux_momentum[0] - audit.flux_momentum[1]
        total_sink += audit.damping_sink
        times.append(state.t)
        dts.append(audit.dt)
        active.append(audit.active_cells)
        masses.append(state.mass)
        momenta.append(state.momentum)
        cum_fm.append(total_fm)
        cum_fp.append(total_fp)
        cum_sink.append(total_sink)
        edge.append(max(abs(state.rho[0] - limits.rho_minus),
                        abs(state.rho[-1] - limits.rho_plus),
                        abs(state.m[0]), abs(state.m[-1])))

        if pending and abs(state.t - pending[0]) <= 1e-12 * (1 + pending[0]):
            snapshots.append(
                PhysicalState(state.x, state.rho.copy(), state.m.copy(), pending[0])
            )
            pending.pop(0)

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
        "active_cells": np.array(active),
        "boundary_deviation": np.array(edge),
    }
    return RunResult(snapshots, meta)
