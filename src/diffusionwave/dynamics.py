"""Finite-volume solver for the damped Euler system in physical variables.

Rusanov (local Lax-Friedrichs) fluxes of MUSCL/minmod face states, Dirichlet
ghost cells frozen at the far-field states, and the s-stage, second-order
SSPRK(s,2) (Ketcheson 2008), whose SSP coefficient is s - 1, in
integrating-factor form (Isherwood, Grant & Gottlieb 2018): it steps
e^(alpha t) m, so the friction is exact inside every stage, not split
around the step.  With fe = cfl dx / max(|u| + sqrt(p')), the forward-Euler
step, a step takes dt = min(3 fe, t_stop - t) and the fewest stages s, 2 to
`_STAGES` = 4, whose forward-Euler steps h = dt/(s-1) are at most fe: so
every stage keeps the Courant number at most cfl, an unclipped step is
SSPRK(4,2) at three times fe, and a step cut to a snapshot or merge time
takes two or three.  Stage i, at time c_i = i h, is rho + h L_rho and
q (m + h L_m), q = e^(-alpha h); the step ends at rho0 + (dt/s) sum L_rho,i
and e^(-alpha dt) m0 + (dt/s) sum e^(-alpha (dt - c_i)) L_m,i.  The c_i do
not decrease, so each stage is still a forward-Euler step of a decayed
state and the SSP bound holds; the density update is the plain SSPRK(s,2)
one.  The boundary-flux ledger weighs the stages' sums by dt/(2 s) (the RHS
returns twice the fluxes, below), and the friction sink takes the rest:
(1 - e^(-alpha dt)) m0 dx summed, plus each stage's net boundary momentum
inflow times 1 - e^(-alpha (dt - c_i)).  Late in a run, where m nears
Darcy's law -p(rho)_x / alpha, a split friction perturbs that balance at
O((alpha dt)^2); the late error against the reference gate fell about 3x.

Kernel contract.  Density is > 0 throughout: `PhysicalState`,
`numerical_flux` and `_Workspace` (the far field) check it where it enters,
`_check` after each stage, and in between the scheme keeps it > 0 under its
CFL bound (Perthame-Shu 1996), as every MUSCL face lies between its cell
and the neighbour mean.  So the kernel divides by density with no vacuum
case.  Every Rusanov flux comes from one unchecked core, `_rusanov`, which
reads the face states from one (2, 2, k) buffer, (rho, m) by (left, right),
and evaluates m^2/rho, u, p and sqrt(p') of them all in one `_face` pass.
It returns twice the flux: the divergence divides by -2 dx, `numerical_flux`
(the domain checks plus that core) halves it, and `_cfl_dt` shares its
speed code.  `_hyperbolic_rhs` reads a stage buffer, rows (U, R, M)
with two ghost cells at each end, (R, M) frozen at the far field: U|R is
one flat array for the slope pass, and (R, M) the (2, k) block that is
checked and summed.  Its minmod, fmax(min(a, b), 0) + fmin(0, max(a, b)),
maps NaN to +0.0 and keeps same-sign values whose product underflows,
which a test of a b > 0 sets to 0.  The divergences go into (2, k) pads
whose ghost columns stay +-0, so each SSPRK sum is one call on a block.
Every ufunc of a step writes with out= into a `_Workspace` built for its
window, which holds each array the step writes and each view of them it
reads; `run` keeps it until the window (which only grows, by blocks of 16
cells) or the grid changes, so a step that keeps it allocates no array.
Scalar operands are 0-d arrays, module constants or workspace slots (1/2;
-2 dx and the far-field bits, fixed for the workspace's grid; dt/(s-1),
dt/s and the friction decays q and e^(-alpha dt), which the step writes in
place; the m row of a block is weighted through them, as a (2, 1) weight
would allocate a (2, k) buffer); `thermo._p` and `_dp` take k and gamma
as Python floats, which as 0-d arrays measured no gain.  Reductions call
the ufunc's reduce, not the ndarray methods that wrap it: on a window of a
few hundred cells, most of a call is its fixed cost.

Active window.  `step` and `run` share one step, `_advance`, which computes
its stages only on the cells `_window` finds the step can change: all but
the leading and trailing cells that hold their side's ghost state, (rho_-, 0)
or (rho_+, 0) to the bit, more than `_MARGIN` = 8 cells (four stages of the
two-cell MUSCL stencil) away from any other, rounded out to whole blocks of
16 cells.
The scheme leaves those cells bit for bit as they are, so the window
changes no result: the window's edge faces see only far-field data and give
the boundary fluxes, the CFL maximum takes one far-field cell on each side,
and the friction sink of m0 is summed over the full grid in numpy's
pairwise order.  The step writes its window into the state in place once
all its checks have passed (`run` steps its own copy of the initial state,
`step` a copy of its argument), and the next scan reads only the window of
the workspace it returns, the cells it wrote.

The time loop checks states, not faces, on the window: `_check` rejects NaN,
inf and a density that is not > 0 after each stage, and a `run` step whose
forward-Euler step fe is not finite and positive is a NumericalFailure.  A
step of given dt (`step`) takes its stages by the same rule, four where fe
is NaN.

Parabolic coarsening.  The diffusion wave spreads like sqrt(1+t), and the
diagnostics read it in y = x/sqrt(1+t), so `run` keeps the scaled cell size
dx/sqrt(1+t) within a factor sqrt(2) of the initial dx: each time
sqrt((1+t)/(1+t0)) reaches sqrt(2) times a power of 2 (t = 1, 7, 31, ...
from t0 = 0) it steps to that time exactly, takes any snapshot due there,
and merges each pair of cells into one whose x, rho and m are the pair
means (`_coarsen`), a conservative 2:1 restriction.  The run goes on with
twice the dx and about twice the CFL dt.  Merging a half-octave earlier
than at powers of 2 spends the accuracy the unsplit friction gains late in
the run: the jump run takes 713 steps, not 1027.  Far-field cells keep
their bits, as (a + a)/2 = a, so the active window carries over.  Each
snapshot keeps the x of its own grid.  An odd cell count or a grid of two
cells stops the merging.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, NumericalFailure, check_positive

__all__ = [
    "PhysicalState",
    "SolverConfig",
    "RunResult",
    "numerical_flux",
    "step",
    "run",
]


@dataclass
class PhysicalState:
    """Cell-averaged (rho, m) on uniform cells centred at x, at time t; the
    density must be > 0 (`errors.check_positive`)."""

    x: np.ndarray
    rho: np.ndarray
    m: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        check_positive(self.rho, self.m)

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
        return float(self.rho.sum() * self.dx)

    @property
    def momentum(self):
        return float(self.m.sum() * self.dx)


@dataclass
class SolverConfig:
    cfl: float = 0.45
    order: int = 2

    def __post_init__(self):
        if not 0 < self.cfl <= 0.5:
            raise ConfigError("cfl must lie in (0, 1/2]")
        if self.order != 2:
            raise ConfigError(f"order must be 2, not {self.order!r}")


# -- flux core ---------------------------------------------------------------
# Unchecked: densities are > 0 (or NaN, which the stage checks catch).  Each
# face state's m^2/rho, u, p and sqrt(p') is evaluated once.

# 0-d arrays: a ufunc converts a Python or NumPy scalar operand on every call
_HALF, _ZERO = np.array(0.5), np.array(0.0)


def _speed(rho, m, dp, out=None):
    """|u| + sqrt(p'), in out if given; dp >= 0 is overwritten."""
    s = np.divide(m, rho, out=out)
    np.abs(s, out=s)
    s += np.sqrt(dp, out=dp)
    return s


class _Faces:
    """k face states, (rho, m) by (left, right), and what `_rusanov` writes: 2F in flux."""

    def __init__(self, k):
        self.faces = np.empty((2, 2, k))
        (self.rho_l, self.rho_r), (self.m_l, self.m_r) = self.rho_f, self.m_f = self.faces
        self.p, self.dp, self.fm, self.s = np.empty((4, 2, k))
        (self.fm_l, self.fm_r), (self.s_l, self.s_r) = self.fm, self.s
        self.f_rho, self.f_m = self.flux = np.empty((2, k))
        self.jump = np.empty(k)


def _face(ws, law):
    """Momentum flux m^2/rho + p and wavespeed |u| + sqrt(p') of the face
    states of ws, into ws.fm and ws.s."""
    rho, m = ws.rho_f, ws.m_f
    p, dp = law._p_dp(rho, out=(ws.p, ws.dp))
    f_m = np.divide(np.multiply(m, m, out=ws.fm), rho, out=ws.fm)
    f_m += p
    return f_m, _speed(rho, m, dp, out=ws.s)


def _rusanov(ws, law):
    """ws.flux, rows (f_rho, f_m): twice the Rusanov fluxes of the face states
    of ws, (f_l + f_r) - s_max (u_r - u_l), exactly double the halved form."""
    _face(ws, law)
    s = np.maximum(ws.s_l, ws.s_r, out=ws.s_l)
    f_rho = np.add(ws.m_l, ws.m_r, out=ws.f_rho)
    jump = np.subtract(ws.rho_r, ws.rho_l, out=ws.jump)
    jump *= s
    f_rho -= jump
    f_m = np.add(ws.fm_l, ws.fm_r, out=ws.f_m)
    np.subtract(ws.m_r, ws.m_l, out=jump)
    jump *= s
    f_m -= jump
    return ws.flux


def numerical_flux(left, right, law):
    """Rusanov flux: central average minus local-wavespeed upwinding.

    `errors.check_positive` on both states, then half of `_rusanov`.
    """
    arrays = [np.asarray(a, dtype=float) for a in (left[0], right[0], left[1], right[1])]
    check_positive(arrays[0], arrays[2])
    check_positive(arrays[1], arrays[3])
    faces = np.broadcast_arrays(*np.atleast_1d(*arrays))
    ws = _Faces(faces[0].size)
    ws.faces.reshape(4, *faces[0].shape)[...] = faces
    f_rho, f_m = np.multiply(_rusanov(ws, law), 0.5, out=ws.flux)
    if np.broadcast(*arrays).ndim == 0:
        return float(f_rho[0]), float(f_m[0])
    return f_rho, f_m


def _minmod(a, b, out=None, tmp=None):
    """fmax(min(a, b), 0) + fmin(0, max(a, b)), into out with tmp as scratch
    where given: the one of a and b smaller in magnitude where they share a
    sign, else +0.0, NaN included.  numpy's scalar and SIMD loops keep
    opposite operands of a tie of -0.0 and +0.0, each alike for fmax and
    fmin, so with the zero on opposite sides one clamp returns it."""
    out = np.minimum(a, b, out=out)
    np.fmax(out, _ZERO, out=out)
    tmp = np.maximum(a, b, out=tmp)
    np.fmin(_ZERO, tmp, out=tmp)
    out += tmp
    return out


class _Workspace(_Faces):
    """Every array a step on the window [lo, hi) of an n-cell grid of cell
    size dx writes, and every view of them it reads: two stage buffers, rows
    (U, R, M) of k = hi - lo + 4 cells, (R, M) far field in two ghost cells
    at each end; two (2, k) pads, acc and div, whose ghost columns stay +-0;
    the scratch of `_hyperbolic_rhs`, `_cfl_dt`, `_window` and `_sink`; and,
    as 0-d arrays, the scalar operands of a step, -2 dx among them (a merge
    changes n, and so the key).  Far-field densities are > 0 (DomainError)."""

    def __init__(self, lo, hi, n, dx, limits):
        if not (limits.rho_minus > 0 and limits.rho_plus > 0):
            raise DomainError("the far-field densities must be positive")
        w, k = hi - lo, hi - lo + 4
        super().__init__(w + 1)
        self.key = (lo, hi, n)
        buffers = np.empty((2, 3, k))
        buffers[:, 1, :2], buffers[:, 1, -2:] = limits.rho_minus, limits.rho_plus
        buffers[:, 2, :2] = buffers[:, 2, -2:] = 0.0
        # (R, M) of each stage buffer: the (2, k) block checked and summed
        self.blocks = tuple(buffers[:, 1:])
        self.cells = tuple((R[2:-2], M[2:-2]) for R, M in self.blocks)
        d, (self.slopes, tmp) = np.empty(2 * k - 1), np.empty((2, 2 * k - 2))
        self.minmod_args = d[:-1], d[1:], self.slopes, tmp
        slope_u, slope_r = self.slopes[:k - 2], self.slopes[k:]
        # what `_hyperbolic_rhs` reads of each stage buffer: R, M, U, the
        # difference pass over U|R, one flat array, and the (cell, slope) of
        # the left and right face states of rho and u
        self.stages = tuple(
            (R, M, U, (ur[1:], ur[:-1], d),
             tuple((c[1:-2], s[:-1], c[2:-1], s[1:]) for c, s in ((R, slope_r), (U, slope_u))))
            for (U, R, M), ur in zip(buffers, buffers[:, :2].reshape(2, -1)))
        self.cell_fluxes = tuple((f[1:], f[:-1]) for f in self.flux)   # (right, left)
        self.pads = np.zeros((2, 2, k))
        # each pad as an RHS writes it: its rows' window cells, then itself
        self.acc, self.div = ((*(row[2:-2] for row in pad), pad) for pad in self.pads)
        self.cfl = np.empty((2, w + 2))
        still, far = np.empty((2, w), bool)
        self.flags = still, far, far[::-1]
        self.loss = np.zeros(n)
        self.window_loss = self.loss[lo:hi]
        self.far_bits = _bits(limits.rho_minus), _bits(limits.rho_plus)
        # the divergence's divisor -2 dx; set by `_advance` each step: the
        # stage step h = dt/(s-1), acc's weight dt/s, and the friction decays
        # over h and over dt
        self.neg_dx = np.array(-2.0 * dx)
        self.h, self.weight, self.q, self.decay = (np.empty(()) for _ in range(4))


def _hyperbolic_rhs(ws, S, law, out):
    """Twice the boundary fluxes and, into out = (d_rho, d_m, pad), a pad of
    ws and its rows' window cells, the flux divergence of the window cells of
    the stage buffer S = ws.stages[i], on the grid of ws."""
    R, M, U, diff_args, ((r_l, sr_l, r_r, sr_r), (u_l, su_l, u_r, su_r)) = S
    # face states: (rho, m) by (left, right); the right face of cell j meets
    # the left face of cell j + 1.  U = M/R and R lie end to end in one 1-D
    # array: one pass each takes both differences, minmods and halvings; the
    # slopes at the seam go unread
    np.divide(M, R, out=U)
    # a[1:] - a[:-1] is what np.diff computes, without its call overhead
    np.subtract(*diff_args)
    # every face lies between its cell and the neighbour mean, so > 0
    slopes = _minmod(*ws.minmod_args)
    slopes *= _HALF
    np.add(r_l, sr_l, out=ws.rho_l)
    np.subtract(r_r, sr_r, out=ws.rho_r)
    np.add(u_l, su_l, out=ws.m_l)
    np.subtract(u_r, su_r, out=ws.m_r)
    ws.m_f *= ws.rho_f

    # N+1 interface fluxes bordering the N physical cells
    flux = _rusanov(ws, law)
    *rows, pad = out
    for div, (right, left) in zip(rows, ws.cell_fluxes):
        np.subtract(right, left, out=div)
    pad /= ws.neg_dx   # -2 dx; the ghost columns stay +-0
    return flux[0, 0], flux[0, -1], flux[1, 0], flux[1, -1]


def _check(block):
    """Reject NaN, inf and a density that is not > 0 in a (2, k) block of
    rows (rho, m)."""
    # a NaN or inf anywhere makes the sum non-finite
    if not math.isfinite(np.add.reduce(block, axis=None)):
        raise NumericalFailure("NaN or inf detected during time stepping")
    low = np.minimum.reduce(block[0])
    if not low > 0:
        raise NumericalFailure(f"{'negative' if low < 0 else 'zero'} density {low:.3e}")


def _cfl_dt(rho, m, dx, cfg, law, out=(None, None)):
    """cfl dx / max speed of the states, the forward-Euler step: a stage of
    at most that length keeps the Courant number at most cfl.  p' and the
    speeds go into out where given; unchecked (see `_advance`)."""
    smax = np.maximum.reduce(_speed(rho, m, law._dp(rho, out[0]), out[1]))
    return cfg.cfl * dx / max(smax, 1e-14)


def _stages(dt, fe):
    """The fewest stages s, 2 to `_STAGES`, whose forward-Euler steps
    dt/(s - 1) are at most fe; `_STAGES` where none is, or fe is NaN."""
    return next((s for s in range(2, _STAGES) if dt / (s - 1) <= fe), _STAGES)


# The most stages a step takes.  SSPRK(s,2) (Ketcheson 2008) takes s
# forward-Euler stages of dt/(s-1): s - 1 forward-Euler steps per s RHS
# calls, 3/4 at s = 4 against 2/3 at s = 3.  Its time error grows with s: a
# cap of five fails the reference gate of tests/test_acceptance.py on the
# late relative error.
_STAGES = 4
# A stage changes a cell only through its two face fluxes, and MUSCL builds
# a face from two cells on each side: four stages reach eight cells.
_MARGIN = 2 * _STAGES
# The step computes whole blocks of cells, so that a growing window allocates
# its arrays in few sizes, which malloc reuses; with a new size every few
# steps the heap fragmented and the peak memory of a run grew.  Blocks also
# bound the workspace rebuilds: 105 of the 713 steps of the jump run.
_BLOCK = 16


def _bits(value):
    """The bit pattern of a float, as a 0-d int64 array."""
    return np.array(value, dtype=float).view(np.int64)


_ZERO_BITS = _bits(0.0)


def _leading(flags):
    """Length of the leading run of True in a boolean array."""
    k = int(flags.argmin())
    return flags.size if flags[k] else k


def _window(rho, m, limits, ws=None):
    """[lo, hi) = [P - `_MARGIN`, n - S + `_MARGIN`) clipped to the grid: the
    cells one step can change.

    P leading cells hold the bits of the left ghost cells (rho_-, +0.0) and
    S trailing cells those of the right ones (rho_+, +0.0); the bits, not
    the values, so that a -0.0 is not taken for a 0.0.  A cell outside the
    window sees only far-field data in every stage, so its flux difference
    is exactly 0, its decayed momentum e^(-alpha dt) 0 = 0, and the step
    leaves its bits as they are.  A grid that is far field throughout gets
    the full range.  Given the workspace ws of the last step on this grid, only its
    window [a, b), the cells that step wrote, is scanned, into ws's flags:
    the others kept their bits, so the runs reach a and n - b, and a run
    that fills the window meets the other side's far field, or gives the
    full range either way where both sides share it.  Without ws, or after
    a merge, the whole grid is scanned into new flags.
    """
    n = rho.size
    if ws is not None and ws.key[2] == n:
        (a, b, _), (still, far, far_reversed) = ws.key, ws.flags
        minus, plus = ws.far_bits
    else:
        a, b, (still, far) = 0, n, np.empty((2, n), bool)
        far_reversed, minus, plus = far[::-1], _bits(limits.rho_minus), _bits(limits.rho_plus)
    bits = rho[a:b].view(np.int64)
    np.equal(m[a:b].view(np.int64), _ZERO_BITS, out=still)
    lead = _leading(np.logical_and(np.equal(bits, minus, out=far), still, out=far))
    np.logical_and(np.equal(bits, plus, out=far), still, out=far)
    trail = _leading(far_reversed)
    lead, trail = a + lead, n - b + trail
    if lead + trail > n:
        return 0, n
    return max(lead - _MARGIN, 0), min(n - trail + _MARGIN, n)


def _sink(ws, before, after, dx):
    """dx sum(before - after) over the window, placed among the zeros of
    ws.loss: outside the window both are 0, and numpy's pairwise sum adds
    in the order of the full grid."""
    np.subtract(before, after, out=ws.window_loss)
    return np.add.reduce(ws.loss) * dx


def _advance(state, cfg, law, alpha, limits, dt=None, t_stop=math.inf, ws=None):
    """One step, in place, of the cells `_window` finds (scanning only the
    window of ws, the last step's workspace), rounded out to whole blocks;
    the others keep their bits.  The state is written once every check of the
    step has passed.  Without dt, (_STAGES - 1) forward-Euler steps fe, cut to
    end at t_stop at the latest; a given dt is taken as it is.  Either way
    the step takes `_stages(dt, fe)` stages of the integrating-factor
    SSPRK(s,2) (module docstring).  Returns dt, the stage count, the boundary
    fluxes integrated over the step (mass left, right, momentum left, right),
    the friction sink, and the workspace whose key (lo, hi, n) names the
    cells [lo, hi) written: ws, or a new one.
    """
    dx, t, n = state.dx, state.t, state.x.size
    lo, hi = _window(state.rho, state.m, limits, ws)
    lo, hi = lo - lo % _BLOCK, min(hi + -hi % _BLOCK, n)
    if ws is None or ws.key != (lo, hi, n):
        ws = _Workspace(lo, hi, n, dx, limits)
    # the cell next to the window on each side carries the far-field speed
    near = slice(max(lo - 1, 0), hi + 1)
    fe = _cfl_dt(state.rho[near], state.m[near], dx, cfg, law,
                 ws.cfl[:, :min(hi + 1, n) - near.start])
    if dt is None:
        if not (math.isfinite(fe) and fe > 0):
            raise NumericalFailure(
                f"CFL time step {fe!r} at t = {t!r} is not finite and positive")
        dt = min((_STAGES - 1) * fe, t_stop - t)
    stages = _stages(dt, fe)
    rho, m = state.rho[lo:hi], state.m[lo:hi]
    # A holds the stage-0 state, B the later ones and the result; a stage sum
    # is one call on (2, k) blocks, whose far-field ghost cells keep their bits
    (A, B), ((rho_a, m_a), (rho_b, m_b)), (acc, div) = ws.blocks, ws.cells, ws.pads
    acc_m, h, weight, q, decay = ws.acc[1], ws.h, ws.weight, ws.q, ws.decay
    np.copyto(rho_a, rho)
    np.copyto(m_a, m)

    # SSPRK(s,2) in integrating-factor form: s forward-Euler stages of
    # h = dt/(s-1) on e^(alpha t) m, at times c_i = i h, so a stage is
    # rho + h L_rho and q (m + h L_m), q = e^(-alpha h), and the step ends at
    # u0 + (dt/s) sum L_i with m0 and each L_m,i decayed to the step's end:
    # e^(-alpha dt) m0 + (dt/s) sum q^(s-1-i) L_m,i, the sum taken by Horner's
    # rule in acc.  A far-field L is -0.0, so this form keeps every far-field
    # bit; the Shu-Osher form does not.  libm's exp, whose bits hold on any
    # x86-64 CPU, unlike numpy's.
    stage_dt = dt / (stages - 1)
    h[()], weight[()] = stage_dt, dt / stages
    q[()], decay[()] = math.exp(-alpha * stage_dt), math.exp(-alpha * dt)
    fluxes = [_hyperbolic_rhs(ws, ws.stages[0], law, ws.acc)]
    np.add(A, np.multiply(acc, h, out=B), out=B)
    m_b *= q
    _check(B)
    m_a *= decay
    # the friction loss of m0 over the step, summed in full-grid order
    sink = _sink(ws, m, m_a, dx)
    for i in range(2, stages + 1):
        fluxes.append(_hyperbolic_rhs(ws, ws.stages[1], law, ws.div))
        acc_m *= q
        acc += div
        if i < stages:
            B += np.multiply(div, h, out=div)
            m_b *= q
            _check(B)
    np.add(A, np.multiply(acc, weight, out=B), out=B)
    _check(B)
    # The RHS returns twice the boundary fluxes: dt/(2s) is dt/s times the
    # 1/2.  Stage i's net momentum inflow reaches the step's end decayed by
    # e^(-alpha (dt - c_i)); the rest of it is friction loss.
    half_weight = dt / (2 * stages)
    fm = tuple(half_weight * sum(ends) for ends in zip(*fluxes))
    sink += half_weight * sum(-math.expm1(-alpha * (dt - i * stage_dt)) * (f[2] - f[3])
                              for i, f in enumerate(fluxes))
    rho[:], m[:], state.t = rho_b, m_b, t + dt
    return dt, stages, fm, sink, ws


def step(state, cfg, law, alpha, limits, dt=None):
    """Advance one time step (CFL-chosen dt unless given); see _advance.
    Returns a new state: the caller's arrays are not written."""
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"time step dt = {dt!r} must be finite and positive")
    new = PhysicalState._trusted(state.x, state.rho.copy(), state.m.copy(), state.t)
    _advance(new, cfg, law, alpha, limits, dt)
    return new


def _coarsen(state):
    """Each pair of cells as one cell: the pair means of x, rho and m."""
    x, rho, m = ((a[0::2] + a[1::2]) / 2 for a in (state.x, state.rho, state.m))
    return PhysicalState._trusted(x, rho, m, state.t)


# `run`'s per-step audit series, in the column order of run_meta.csv
_AUDIT = ("t", "dt", "stages", "dx", "mass", "momentum", "boundary_flux_mass",
          "boundary_flux_momentum", "damping_sink", "active_cells", "boundary_deviation")
# its integer series
_COUNTS = ("stages", "active_cells")


@dataclass
class RunResult:
    snapshots: list
    meta: dict = field(default_factory=dict)

    @property
    def final(self):
        return self.snapshots[-1]


def run(initial, cfg, law, limits, times):
    """March from `initial` through `times`, which must be finite and
    increase from after initial.t (ConfigError), snapshotting each and
    stopping at the last.

    dt is clipped so snapshot and merge times are hit exactly, to 1e-12
    (1 + t) (see the module's parabolic coarsening).  Returns a RunResult,
    the initial state and a snapshot per time, whose meta carries the per-step
    audit series `_AUDIT`: `stages`, the SSPRK stages (RHS evaluations) of
    each step, the cumulative boundary fluxes for the conservation
    checks, `dx`, the cell size of each step, `active_cells`, the width of the
    window each step was computed on (see `_window`), and `boundary_deviation`,
    how far the edge cells have moved from the far field:
    max(|rho_0 - rho_-|, |rho_{n-1} - rho_+|, |m_0|, |m_{n-1}|).
    """
    ts = [initial.t, *map(float, times)]
    if not (len(ts) > 1 and all(a < b for a, b in zip(ts, ts[1:])) and math.isfinite(ts[-1])):
        raise ConfigError(f"snapshot times must be finite and increase past t = {initial.t!r}")

    # the run's own copy, which each step writes in place
    state = PhysicalState._trusted(initial.x, initial.rho.copy(), initial.m.copy(),
                                   initial.t)
    snapshots = [PhysicalState(state.x, state.rho.copy(), state.m.copy(), state.t)]
    # typed arrays: 8 bytes a step each, not a float object and a pointer
    audit = {name: array("q" if name in _COUNTS else "d") for name in _AUDIT}
    total_fm = total_fp = total_sink = 0.0
    # the next time sqrt((1+t)/(1+t0)) reaches sqrt(2) times a power of 2
    t_merge = 2.0 * (1.0 + initial.t) - 1.0
    coarsen, ws = True, None

    for target in ts[1:]:
        while abs(state.t - target) > 1e-12 * (1 + target):
            if coarsen and t_merge - state.t <= 1e-12 * (1 + t_merge):
                state, t_merge = _coarsen(state), 4.0 * (1.0 + t_merge) - 1.0
            # a merged grid needs two cells to have a dx
            coarsen = state.x.size % 2 == 0 and state.x.size >= 4
            t_stop = min(target, t_merge) if coarsen else target
            dt, stages, fm, sink, ws = _advance(state, cfg, law, limits.alpha, limits,
                                                t_stop=t_stop, ws=ws)

            total_fm += fm[0] - fm[1]
            total_fp += fm[2] - fm[3]
            total_sink += sink
            edge = max(abs(state.rho[0] - limits.rho_minus), abs(state.m[0]),
                       abs(state.rho[-1] - limits.rho_plus), abs(state.m[-1]))
            # in the order of _AUDIT; mass and momentum as `state.mass` sums
            dx = state.dx
            values = (state.t, dt, stages, dx, float(np.add.reduce(state.rho) * dx),
                      float(np.add.reduce(state.m) * dx), total_fm, total_fp, total_sink,
                      ws.key[1] - ws.key[0], edge)
            for series, value in zip(audit.values(), values):
                series.append(value)
        # the step has checked the state
        snapshots.append(PhysicalState._trusted(state.x, state.rho.copy(), state.m.copy(),
                                                target))

    return RunResult(snapshots, {name: np.array(series) for name, series in audit.items()})
