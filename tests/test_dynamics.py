"""Finite-volume solver: fluxes, stepping, audits, grid self-convergence."""

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffusionwave import dynamics
from diffusionwave.dynamics import (
    PhysicalState,
    SolverConfig,
    _cfl_dt,
    _check,
    _coarsen,
    _Faces,
    _hyperbolic_rhs,
    _minmod,
    _rusanov,
    _window,
    _Workspace,
    numerical_flux,
    run,
    step,
)
from diffusionwave.errors import (
    ConfigError,
    DomainError,
    NumericalFailure,
    VacuumViolation,
)
from diffusionwave.profile import LimitSpec
from diffusionwave.thermo import PressureLaw

LAW = PressureLaw(1.0, 2.0)
UNIT = LimitSpec(1.0, 1.0, 1.0)
# the scheme's order, the one value `SolverConfig.order` accepts: a parameter
# while the config key exists, so that each case keeps its ID
_ORDER = pytest.mark.parametrize("order", [2])


def _physical_flux(rho, m, law):
    """Exact flux (m, m^2/rho + p(rho)) with the 0/0 := 0 vacuum convention."""
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    p, _ = law.pressure(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        kin = np.where(rho > 0, m * m / np.where(rho > 0, rho, 1.0), 0.0)
    if np.ndim(kin) == 0:
        return float(m), float(kin + p)
    return m, kin + p


class TestFlux:
    def test_physical(self):
        assert _physical_flux(1.0, 3.0, LAW) == (3.0, 10.0)
        assert _physical_flux(2.0, 0.0, LAW) == (0.0, 4.0)
        assert _physical_flux(0.0, 0.0, LAW) == (0.0, 0.0)

    def test_vacuum_violation(self):
        for left, right in (((0.0, 1.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, -1.0))):
            with pytest.raises(VacuumViolation):
                numerical_flux(left, right, LAW)
        with pytest.raises(VacuumViolation):
            PhysicalState(np.arange(3.0), np.array([1.0, 0.0, 1.0]),
                          np.array([0.0, 1.0, 0.0]))

    def test_negative_density_rejected(self):
        with pytest.raises(DomainError):
            numerical_flux((1.0, 0.0), (-1e-3, 0.0), LAW)
        with pytest.raises(DomainError):
            PhysicalState(np.arange(3.0), np.array([1.0, -1e-3, 1.0]), np.zeros(3))

    @pytest.mark.parametrize("bad", [0.0, -0.0, np.nan])
    def test_vacuum_at_rest_and_nan_density_rejected(self, bad):
        # the solver has no vacuum branch: density must be > 0 where it enters
        with pytest.raises(DomainError, match="density must be positive"):
            numerical_flux((1.0, 0.0), (bad, 0.0), LAW)
        with pytest.raises(DomainError, match="density must be positive"):
            PhysicalState(np.arange(3.0), np.array([1.0, bad, 1.0]), np.zeros(3))
        zero_far_field = SimpleNamespace(rho_minus=1.0, rho_plus=abs(bad), alpha=1.0)
        with pytest.raises(DomainError, match="far-field densities must be positive"):
            step(_constant_state(m=0.0), SolverConfig(), LAW, 1.0, zero_far_field)
        with pytest.raises(DomainError, match="far-field densities must be positive"):
            run(_constant_state(m=0.0), SolverConfig(), LAW, zero_far_field, [1.0])

    def test_numerical_consistency(self):
        assert numerical_flux((1.0, 0.0), (1.0, 0.0), LAW) == (0.0, 1.0)
        f_rho, f_m = numerical_flux((1.0, 1.0), (1.0, 1.0), LAW)
        assert (f_rho, f_m) == (1.0, 2.0)

    def test_numerical_upwinding(self):
        # s = max(sqrt(2), 2 sqrt(2)); central average minus (s/2) jump
        f_rho, f_m = numerical_flux((1.0, 0.0), (4.0, 0.0), LAW)
        assert f_rho == pytest.approx(-3.0 * np.sqrt(2.0), rel=1e-14)
        assert f_m == pytest.approx(8.5, rel=1e-14)

    def test_wavespeed(self):
        # |u| + sqrt(p'(rho)) with rho=1, m=2: 2 + sqrt(2); the CFL step is
        # 2 cfl dx / that speed
        cfg = SolverConfig(cfl=0.5)
        dt = _cfl_dt(np.array([1.0]), np.array([2.0]), 0.0, 1.0, cfg, LAW)
        assert 1.0 / dt == pytest.approx(2.0 + np.sqrt(2.0))


# ---------------------------------------------------------------------------
# the fused kernel against the scheme written out with the public pieces:
# _physical_flux, the masked velocity and the np.where minmod.  Every
# comparison is of the raw bytes, signed zeros included.


def _same_bits(*pairs):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in pairs)


def _ref_velocity(rho, m):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rho > 0, m / np.where(rho > 0, rho, 1.0), 0.0)


def _ref_rusanov(rho_l, m_l, rho_r, m_r, law):
    f_rho_l, f_m_l = _physical_flux(rho_l, m_l, law)
    f_rho_r, f_m_r = _physical_flux(rho_r, m_r, law)
    speeds = [np.abs(_ref_velocity(rho, m)) + np.sqrt(np.maximum(law.pressure(rho)[1], 0.0))
              for rho, m in ((rho_l, m_l), (rho_r, m_r))]
    s = np.maximum(*speeds)
    return (0.5 * (f_rho_l + f_rho_r) - 0.5 * s * (rho_r - rho_l),
            0.5 * (f_m_l + f_m_r) - 0.5 * s * (m_r - m_l))


def _ref_minmod(a, b):
    # the signs, not a b, which underflows to 0 for same-sign 1e-200 and 5e-324
    return np.where(np.sign(a) * np.sign(b) > 0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _ref_rhs(rho, m, dx, law, limits):
    R = np.concatenate([[limits.rho_minus] * 2, rho, [limits.rho_plus] * 2])
    M = np.concatenate([[0.0, 0.0], m, [0.0, 0.0]])
    U = _ref_velocity(R, M)
    slope_r = _ref_minmod(R[1:-1] - R[:-2], R[2:] - R[1:-1])
    slope_u = _ref_minmod(U[1:-1] - U[:-2], U[2:] - U[1:-1])
    r_minus = R[1:-1] - 0.5 * slope_r
    r_plus = R[1:-1] + 0.5 * slope_r
    u_minus = U[1:-1] - 0.5 * slope_u
    u_plus = U[1:-1] + 0.5 * slope_u
    faces = (r_plus[:-1], r_plus[:-1] * u_plus[:-1],
             r_minus[1:], r_minus[1:] * u_minus[1:])
    f_rho, f_m = _ref_rusanov(*faces, law)
    return -(f_rho[1:] - f_rho[:-1]) / dx, -(f_m[1:] - f_m[:-1]) / dx


_GAMMAS = st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=4.0))


@st.composite
def _face_states(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    density = st.floats(min_value=1e-12, max_value=1e3)
    momentum = st.floats(min_value=-1e3, max_value=1e3)
    out = []
    for _ in range(2):
        out += [np.array(draw(st.lists(draw_from, min_size=n, max_size=n)))
                for draw_from in (density, momentum)]
    return out


def _faces_of(rho_l, m_l, rho_r, m_r):
    """A face workspace holding the given left and right face states."""
    ws = _Faces(rho_l.size)
    ws.faces[...] = [[rho_l, rho_r], [m_l, m_r]]
    return ws


@given(faces=_face_states(), gamma=_GAMMAS, k=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=300)
def test_rusanov_matches_numerical_flux(faces, gamma, k):
    law = PressureLaw(k, gamma)
    rho_l, m_l, rho_r, m_r = faces
    ws = _faces_of(*faces)
    # the core returns twice the flux, whose half is every bit of it
    fused = [0.5 * f for f in _rusanov(ws, law)]
    public = numerical_flux((rho_l, m_l), (rho_r, m_r), law)
    reference = _ref_rusanov(rho_l, m_l, rho_r, m_r, law)
    assert _same_bits(*zip(fused, public), *zip(fused, reference))


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324, 1e-200, -1e-200,
            np.inf, -np.inf, np.nan]


def test_minmod_matches_where_form_on_specials():
    a, b = (np.array(v) for v in zip(*[(x, y) for x in _SPECIAL for y in _SPECIAL]))
    # and into the scratch arrays of a workspace, as the step calls it
    out, tmp = np.full((2, a.size), 7.0)
    with np.errstate(all="ignore"):
        assert _same_bits((_minmod(a, b), _ref_minmod(a, b)),
                          (_minmod(a, b, out, tmp), _ref_minmod(a, b)))


@given(pairs=st.lists(st.tuples(st.one_of(st.sampled_from(_SPECIAL), st.floats()),
                                st.one_of(st.sampled_from(_SPECIAL), st.floats())),
                      min_size=1, max_size=20))
@settings(max_examples=300)
def test_minmod_matches_where_form(pairs):
    a, b = (np.array(v) for v in zip(*pairs))
    with np.errstate(all="ignore"):
        assert _same_bits((_minmod(a, b), _ref_minmod(a, b)))


@pytest.mark.parametrize("size", [1, 7, 64, 1000])
def test_minmod_gives_plus_zero_on_nan_and_on_zero_pairs(size):
    # sizes that reach numpy's scalar loop, its SIMD loop and both, where
    # fmax and fmin break a tie of -0.0 and +0.0 differently: a NaN of
    # either sign against any value, and every pair of signed zeros, give
    # +0.0 in every element, into fresh arrays and into scratch arrays
    nan_pairs = [(x, y) for x in (np.nan, -np.nan) for y in [*_SPECIAL, -np.nan]]
    zero_pairs = [(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    for x, y in nan_pairs + [(y, x) for x, y in nan_pairs] + zero_pairs:
        a, b = np.full(size, x), np.full(size, y)
        out, tmp = np.full((2, size), 7.0)
        with np.errstate(all="ignore"):
            assert _same_bits((_minmod(a, b), np.zeros(size)),
                              (_minmod(a, b, out, tmp), np.zeros(size))), (x, y, size)


def test_minmod_of_same_sign_values_whose_product_underflows():
    # a b underflows to 0 here; the minmod is still the smaller magnitude
    a, b = np.array([1e-200, 5e-324]), np.array([1e-200, 1e-200])
    assert _same_bits((_minmod(a, b), [1e-200, 5e-324]), (_minmod(-a, -b), [-1e-200, -5e-324]))


def _rhs(rho, m, dx, law, limits, ws=None, stage=0):
    """_hyperbolic_rhs of the cells (rho, m), through a stage buffer of ws
    (a fresh workspace if not given), as copies."""
    ws = ws or _Workspace(0, rho.size, rho.size, dx, limits)
    for cell, value in zip(ws.cells[stage], (rho, m)):
        cell[...] = value
    ends = _hyperbolic_rhs(ws, ws.stages[stage], law, ws.div)
    return ws.div[0].copy(), ws.div[1].copy(), ends


@_ORDER
@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_hyperbolic_rhs_matches_reference_scheme(gamma, order):
    # a block of densities down to 1e-300 and a few at 1e-9, at rest or
    # moving: no first-order fallback or clip near vacuum
    rng = np.random.default_rng(7)
    n, dx = 300, 0.05
    rho = rng.uniform(0.2, 2.0, n)
    rho[40:60] = 10.0 ** rng.uniform(-300, -1, 20)
    rho[[100, 101, 180]] = 1e-9
    m = np.where(rho > 1e-6, rng.normal(0.0, 0.5, n), 0.0)
    law = PressureLaw(1.3, gamma)
    drho, dm, _ = _rhs(rho, m, dx, law, UNIT)
    assert _same_bits(*zip((drho, dm), _ref_rhs(rho, m, dx, law, UNIT)))


@_ORDER
@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_hyperbolic_rhs_vacuum_free_matches_reference_scheme(gamma, order):
    # every density >= 1e-8, one exactly at it beside a jump to 2.0, with
    # momenta in proportion to the densities
    rng = np.random.default_rng(11)
    n, dx = 300, 0.05
    rho = rng.uniform(1e-8, 2.0, n)
    rho[40:60] = 10.0 ** rng.uniform(-8, -2, 20)
    rho[100], rho[101] = 1e-8, 2.0
    m = rng.normal(0.0, 0.5, n) * rho
    law = PressureLaw(1.3, gamma)
    drho, dm, _ = _rhs(rho, m, dx, law, UNIT)
    assert _same_bits(*zip((drho, dm), _ref_rhs(rho, m, dx, law, UNIT)))


@_ORDER
def test_one_workspace_serves_both_stage_buffers(order):
    # RHS calls on buffer A, then B, then A again of one workspace give the
    # bits of fresh calls: no call reads what another left behind
    rng = np.random.default_rng(3)
    n, dx, law = 120, 0.05, PressureLaw(1.3, 1.4)
    states = [(rng.uniform(0.2, 2.0, n), rng.normal(0.0, 0.5, n)) for _ in range(3)]
    states[1][0][30:40] = 1e-12   # near vacuum in B only
    states[1][1][30:40] = 0.0
    ws = _Workspace(0, n, n, dx, UNIT)
    for (rho, m), stage in zip(states, (0, 1, 0)):
        reused = _rhs(rho, m, dx, law, UNIT, ws, stage)
        fresh = _rhs(rho, m, dx, law, UNIT)
        assert _same_bits(*zip(reused[:2], fresh[:2]), (reused[2], fresh[2]))


@pytest.mark.parametrize("rho_bad,m_bad", [(np.inf, 0.0), (np.nan, 0.0), (1.0, -np.inf),
                                           (1.0, np.inf), (-1e-3, 0.0),
                                           # a stage that reaches vacuum, momentum or not
                                           (0.0, 0.0), (-0.0, 0.0), (0.0, 1.0)])
def test_check_rejects_nonfinite_and_negative(rho_bad, m_bad):
    # in either stage buffer's (2, k) block, far-field ghost cells included:
    # B takes each stage and the step's result
    ws = _Workspace(0, 5, 5, 0.1, UNIT)
    for block, (rho, m) in ((ws.blocks[1], ws.cells[1]), (ws.blocks[0], ws.cells[0])):
        rho[...], m[...] = 1.0, 0.0
        _check(block)
        rho[2], m[2] = rho_bad, m_bad
        with pytest.raises(NumericalFailure):
            _check(block)


def test_run_rejects_nonfinite_cfl_step():
    state = _constant_state(m=0.0)
    state.m[7] = np.inf   # infinite wavespeed: the CFL step would be 0
    with pytest.raises(NumericalFailure, match="time step"):
        run(state, SolverConfig(), LAW, UNIT, [1.0])


def _constant_state(n=240, dx=0.1, rho=1.0, m=1.0):
    x = (np.arange(n) + 0.5) * dx - n * dx / 2
    return PhysicalState(x, np.full(n, rho), np.full(n, m), 0.0)


class TestStep:
    def test_dt_formula(self):
        state = _constant_state(rho=1.0, m=0.0, dx=0.01)
        # wavespeed sqrt(2); three stages of dt/2, each at cfl 0.45 ->
        # dt = 2*0.45*0.01/sqrt(2)
        new = step(state, SolverConfig(cfl=0.45), LAW, 0.0, UNIT)
        assert new.t == pytest.approx(2 * 0.45 * 0.01 / np.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("dt", [-0.01, 0.0, np.nan, np.inf])
    def test_bad_dt_rejected(self, dt):
        state = _constant_state(m=0.0)
        with pytest.raises(ConfigError, match="dt"):
            step(state, SolverConfig(), LAW, 1.0, UNIT, dt)

    def test_time_order(self):
        # a smooth monotone state stepped with a fixed dt to t = 0.4, on one
        # grid: its distance from the run at dt/8 falls like dt^2 as dt halves
        n = 400
        x = (np.arange(n) + 0.5) * 0.05 - 10.0
        state = PhysicalState(x, 1.0 + 0.2 * np.tanh(x), np.zeros(n), 0.0)
        limits = LimitSpec(0.8, 1.2, 1.0)
        cfg = SolverConfig()
        finals = {}
        for k in (16, 32, 64, 128, 256, 512, 1024):   # steps; dt = 0.4/k
            s = state
            for _ in range(k):
                s = step(s, cfg, LAW, limits.alpha, limits, 0.4 / k)
            finals[k] = np.concatenate((s.rho, s.m))
        errors = [np.max(np.abs(finals[k] - finals[8 * k])) for k in (16, 32, 64, 128)]
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert np.all((orders >= 1.8) & (orders <= 2.2)), (errors, orders)

    def test_constant_state_exact_damping(self):
        state = _constant_state()
        cfg = SolverConfig(cfl=0.45)
        out = run(state, cfg, LAW, UNIT, [np.log(2.0)])
        mid = out.final.x.size // 2
        assert out.final.m[mid] == pytest.approx(0.5, rel=1e-12)
        assert out.final.rho[mid] == pytest.approx(1.0, rel=1e-13)

    def test_zero_damping_equilibrium(self):
        # step's own alpha = 0 runs undamped (LimitSpec itself takes alpha > 0
        # only): the state at rest keeps its bits, and a moving one keeps its
        # momentum away from the far field at rest
        new = step(_constant_state(m=0.0), SolverConfig(), LAW, 0.0, UNIT)
        assert np.all(new.rho == 1.0)
        assert np.all(new.m == 0.0)
        new = step(_constant_state(m=0.5), SolverConfig(), LAW, 0.0, UNIT)
        assert np.all(new.m[100:140] == 0.5)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(cfl=0.6)
        for order in (1, 3):
            with pytest.raises(ConfigError, match="order must be 2"):
                SolverConfig(order=order)


class TestRun:
    def test_conservation_audit(self):
        # density bump around 1: mass change equals net boundary flux, also
        # across the merges of cell pairs at t = 3 and t = 15
        n, dx = 400, 0.05
        x = (np.arange(n) + 0.5) * dx - 10.0
        rho = 1.0 + 0.2 * np.exp(-(x**2))
        state = PhysicalState(x, rho, np.zeros(n), 0.0)
        out = run(state, SolverConfig(), LAW, UNIT, [16.0])
        meta = out.meta
        assert out.final.x.size == n // 4
        assert list(meta["t"][np.flatnonzero(np.diff(meta["dx"]))]) == [3.0, 15.0]
        drift = np.abs(meta["mass"] - state.mass - meta["boundary_flux_mass"])
        assert np.max(drift) <= 1e-10 * state.mass

    def test_momentum_balance_ledger(self):
        # total momentum change = net boundary flux - accumulated friction
        # sink; the discrete ledger telescopes exactly, so the imbalance sits
        # at rounding level for any step size
        def imbalance(cfl):
            n, dx = 200, 0.1
            x = (np.arange(n) + 0.5) * dx - 10.0
            rho = 1.0 + 0.2 * np.exp(-(x**2))
            state = PhysicalState(x, rho, np.zeros(n), 0.0)
            out = run(state, SolverConfig(cfl=cfl), LAW, UNIT, [1.0])
            meta = out.meta
            return abs(
                meta["momentum"][-1] - state.momentum
                - meta["boundary_flux_momentum"][-1] + meta["damping_sink"][-1]
            )

        assert imbalance(0.4) <= 1e-12
        assert imbalance(0.1) <= 1e-12

    def test_snapshots_hit_exactly(self):
        state = _constant_state(m=0.0)
        out = run(state, SolverConfig(), LAW, UNIT, (0.25, 0.5))
        assert [s.t for s in out.snapshots] == [0.0, 0.25, 0.5]
        # the run stops at the last time
        assert out.meta["t"][-1] == 0.5

    def test_bad_schedule(self):
        # empty, not increasing, not after the initial time t = 0.5, or not
        # finite: one error, before any step
        state = _constant_state(m=0.0)
        state.t = 0.5
        for times in ([], (), [1.0, 1.0], [1.0, 2.0, 1.5], [0.5], [0.25, 1.0], [-1.0],
                      [1.0, np.nan], [np.nan], [1.0, np.inf]):
            with pytest.raises(ConfigError, match="must be finite and increase past t = 0.5"):
                run(state, SolverConfig(), LAW, UNIT, times)


# ---------------------------------------------------------------------------
# the active window: stepping only it changes no bit of the result


def _full_window():
    """Patch the window scan to the whole grid: the scheme without skipping."""
    return mock.patch.object(dynamics, "_window", lambda rho, m, *_: (0, rho.size))


def _same_run(a, b):
    """Snapshots and every meta array but active_cells equal byte for byte."""
    keys = set(a.meta) - {"active_cells"}
    return (keys == set(b.meta) - {"active_cells"} and len(a.snapshots) == len(b.snapshots)
            and all(sa.t == sb.t and _same_bits((sa.rho, sb.rho), (sa.m, sb.m))
                    for sa, sb in zip(a.snapshots, b.snapshots))
            and _same_bits(*((a.meta[k], b.meta[k]) for k in keys)))


@st.composite
def _far_field_problems(draw):
    """Positive far-field states outside a random interior block."""
    gamma = draw(_GAMMAS)
    far = st.floats(min_value=0.5, max_value=2.0)
    limits = SimpleNamespace(rho_minus=draw(far), rho_plus=draw(far),
                             alpha=draw(st.sampled_from([0.0, 1.0])))
    n = draw(st.integers(min_value=24, max_value=120))
    lo = draw(st.integers(min_value=1, max_value=n - 2))
    hi = draw(st.integers(min_value=lo + 1, max_value=n - 1))
    block = st.floats(min_value=0.2, max_value=2.0)
    rho = np.r_[np.full(lo, limits.rho_minus),
                draw(st.lists(block, min_size=hi - lo, max_size=hi - lo)),
                np.full(n - hi, limits.rho_plus)]
    # far-field momentum of either sign of zero
    zero = st.sampled_from([0.0, -0.0])
    m = np.r_[np.full(lo, draw(zero)),
              draw(st.lists(st.floats(min_value=-0.5, max_value=0.5),
                            min_size=hi - lo, max_size=hi - lo)),
              np.full(n - hi, draw(zero))]
    x = (np.arange(n) + 0.5) * 0.1
    return PhysicalState(x, rho, m, 0.0), PressureLaw(1.0, gamma), limits


def _outcome(fn):
    """fn's result, or the type of the solver error it raised."""
    try:
        return fn()
    except (NumericalFailure, DomainError) as exc:
        return type(exc)


def _signed_zero_problem():
    # these -0.0 momenta are not the far field's +0.0 to the bit, so the
    # window must take them in
    x = (np.arange(24) + 0.5) * 0.1
    rho, m = np.full(24, 1.0), np.full(24, -0.0)
    rho[-1], m[-2:] = 2.0, 0.0
    return (PhysicalState(x, rho, m, 0.0), PressureLaw(1.0, 2.0),
            SimpleNamespace(rho_minus=1.0, rho_plus=2.0, alpha=0.0))


@given(problem=_far_field_problems())
@example(problem=_signed_zero_problem())
@settings(max_examples=150, deadline=None)
def test_window_run_matches_full_grid_steps(problem):
    state, law, limits = problem
    cfg, times = SolverConfig(), (0.25, 0.5)
    runs = [_outcome(lambda: run(state, cfg, law, limits, times))]
    # and on the window itself, not rounded out to whole blocks
    with mock.patch.object(dynamics, "_BLOCK", 1):
        runs.append(_outcome(lambda: run(state, cfg, law, limits, times)))
    with _full_window():
        full = _outcome(lambda: run(state, cfg, law, limits, times))
    if any(isinstance(out, type) for out in (*runs, full)):
        assert runs == [full, full]
        return
    assert np.all(full.meta["active_cells"] == state.x.size)
    assert all(_same_run(out, full) for out in runs)
    windowed = runs[0]

    # single steps on the full grid with the run's dt reproduce it too
    states = [state]
    with _full_window():
        for dt in windowed.meta["dt"]:
            states.append(step(states[-1], cfg, law, limits.alpha, limits, dt))
    meta = windowed.meta
    assert _same_bits((meta["t"], [s.t for s in states[1:]]),
                      (meta["mass"], [s.mass for s in states[1:]]),
                      (meta["momentum"], [s.momentum for s in states[1:]]))
    for snap in windowed.snapshots:
        later = [s for s in states if abs(s.t - snap.t) <= 1e-12 * (1 + snap.t)]
        assert _same_bits((snap.rho, later[0].rho), (snap.m, later[0].m))


def _padded(state, limits):
    """state inside 100 more far-field cells per side, an even count: a run
    across the merge at t = 3 whose window grows and leaves cells out on
    both sides after the merge."""
    pad = 100 + state.x.size % 2
    rho = np.r_[np.full(pad, limits.rho_minus), state.rho, np.full(100, limits.rho_plus)]
    m = np.r_[np.zeros(pad), state.m, np.zeros(100)]
    return PhysicalState((np.arange(rho.size) + 0.5) * 0.1, rho, m, 0.0)


@given(problem=_far_field_problems())
@settings(max_examples=60, deadline=None)
def test_incremental_window_matches_full_scan(problem):
    # every scan of the previous step's window finds what a scan of the
    # whole grid finds, on a run across the merge at t = 3
    state, law, limits = problem
    state = _padded(state, limits)
    window, window_scans = dynamics._window, []

    def checked(rho, m, limits, ws=None):
        # a scan of only the window of the last step's workspace, same grid
        window_scans.append(ws is not None and ws.key[2] == rho.size)
        found = window(rho, m, limits, ws)
        assert found == window(rho, m, limits)
        return found

    with mock.patch.object(dynamics, "_window", checked):
        out = _outcome(lambda: run(state, SolverConfig(), law, limits, [3.5]))
    if not isinstance(out, type):
        assert out.final.x.size == state.x.size // 2
        assert sum(window_scans) >= out.meta["dt"].size - 2


@given(problem=_far_field_problems())
@settings(max_examples=40, deadline=None)
def test_reused_workspace_matches_a_fresh_one_per_step(problem):
    # the run's workspace, kept while the window holds and rebuilt as it
    # grows and at the merge, gives the bits of a fresh one per step: no
    # stale buffer, no ghost cell left unset
    state, law, limits = problem
    state = _padded(state, limits)
    cfg, times = SolverConfig(), (1.0, 3.0, 3.25, 3.5)
    reused = _outcome(lambda: run(state, cfg, law, limits, times))
    advance = dynamics._advance
    with mock.patch.object(dynamics, "_advance",
                           lambda *args, ws=None, **kwargs: advance(*args, **kwargs)):
        fresh = _outcome(lambda: run(state, cfg, law, limits, times))
    if isinstance(reused, type):
        assert reused == fresh
        return
    assert _same_run(reused, fresh)
    assert np.array_equal(reused.meta["active_cells"], fresh.meta["active_cells"])
    assert reused.final.x.size == state.x.size // 2


def test_a_warm_step_allocates_nothing_that_scales_with_the_window():
    # tracemalloc peaks of a step that keeps its workspace, at a 112-cell
    # and a 1504-cell window of one 1600-cell grid, differ by under 1 KB
    n, limits = 1600, LimitSpec(1.05, 0.95, 1.0)
    x = (np.arange(n) + 0.5) * 0.1
    peaks = {}
    for half in (44, 740):
        rho = np.where(np.arange(n) < n // 2, 1.05, 0.95)
        rho[n // 2 - half:n // 2 + half - 8] += 0.05 * np.cos(np.arange(2 * half - 8))
        state = PhysicalState(x, rho, np.zeros(n), 0.0)
        ws = peak = None
        tracemalloc.start()
        try:
            while peak is None:   # until a step keeps its workspace
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                *_, new_ws = dynamics._advance(state, SolverConfig(), LAW, 1.0, limits,
                                               ws=ws)
                if new_ws is ws:
                    peak = tracemalloc.get_traced_memory()[1] - before
                ws = new_ws
        finally:
            tracemalloc.stop()
        lo, hi, _ = ws.key
        peaks[hi - lo] = peak
    (narrow, small), (wide, large) = sorted(peaks.items())
    assert narrow == 112 and wide == 1504
    assert abs(small - large) < 1024, peaks


@_ORDER
def test_step_and_run_leave_the_callers_arrays(order):
    state = _jump_state()
    rho, m = state.rho.copy(), state.m.copy()
    cfg = SolverConfig(order=order)
    step(state, cfg, LAW, 1.0, JUMP)
    out = run(state, cfg, LAW, JUMP, [3.5])
    assert _same_bits((out.snapshots[0].rho, rho), (out.snapshots[0].m, m))
    # steps that fail after a stage: a negative density, a NaN momentum
    with pytest.raises(NumericalFailure, match="negative density"):
        step(state, cfg, LAW, 1.0, JUMP, 50.0)
    assert _same_bits((state.rho, rho), (state.m, m))
    state.m[64] = m[64] = np.nan
    with pytest.raises(NumericalFailure, match="NaN"):
        step(state, cfg, LAW, 1.0, JUMP, 0.01)
    assert _same_bits((state.rho, rho), (state.m, m))
    with pytest.raises(NumericalFailure):
        run(state, cfg, LAW, JUMP, [1.0])
    assert _same_bits((state.rho, rho), (state.m, m))


@_ORDER
def test_full_grid_step_leaves_cells_outside_the_window(order):
    # the scheme itself, on the whole grid, keeps every cell that _window
    # leaves out at exactly (rho_-, 0) or (rho_+, 0), step after step
    n, dx = 200, 0.1
    x = (np.arange(n) + 0.5) * dx
    limits = LimitSpec(1.05, 0.95, 1.0)
    rho = np.where(np.arange(n) < 100, 1.05, 0.95)
    rho[97:101] = [1.3, 0.6, 1.2, 0.8]
    m = np.zeros(n)
    m[98] = 0.2
    state = PhysicalState(x, rho, m, 0.0)
    cfg = SolverConfig(order=order)
    for _ in range(40):
        lo, hi = _window(state.rho, state.m, limits)
        assert 0 < lo < hi < n
        with _full_window():
            new = step(state, cfg, LAW, limits.alpha, limits)
        assert np.all(new.rho[:lo] == 1.05) and np.all(new.rho[hi:] == 0.95)
        assert _same_bits((new.rho[:lo], state.rho[:lo]), (new.rho[hi:], state.rho[hi:]),
                          (new.m[:lo], state.m[:lo]), (new.m[hi:], state.m[hi:]))
        assert not np.any(new.m[:lo]) and not np.any(new.m[hi:])
        state = new


def test_ghost_columns_keep_their_bits_across_rebuilds_and_a_merge():
    # 40 steps whose window grows and whose grid is merged at step 20: after
    # each, both pads' ghost columns are +-0 and both stage buffers' ghost
    # cells hold the far-field bits, (rho_-, +0.0) and (rho_+, +0.0)
    n, limits = 200, LimitSpec(1.05, 0.95, 1.0)
    rho = np.where(np.arange(n) < 100, 1.05, 0.95)
    rho[97:101] = [1.3, 0.6, 1.2, 0.8]
    state = PhysicalState((np.arange(n) + 0.5) * 0.1, rho, np.zeros(n), 0.0)
    far = np.array([[1.05, 1.05, 0.95, 0.95], [0.0, 0.0, 0.0, 0.0]])
    ws, keys = None, []
    for i in range(40):
        if i == 20:
            state = _coarsen(state)
        *_, ws = dynamics._advance(state, SolverConfig(), LAW, limits.alpha, limits, ws=ws)
        keys.append(ws.key)
        for block in ws.blocks:
            assert _same_bits((np.c_[block[:, :2], block[:, -2:]], far))
        assert not np.any(ws.pads[:, :, :2]) and not np.any(ws.pads[:, :, -2:])
    assert len(set(keys)) >= 3 and keys[-1][2] == n // 2


def test_window_bounds():
    # [P - 6, n - S + 6) clipped to the grid, P and S the far-field runs
    n = 40
    x = (np.arange(n) + 0.5) * 0.1
    limits = LimitSpec(1.05, 0.95, 1.0)
    rho = np.where(np.arange(n) < 20, 1.05, 0.95)
    m = np.zeros(n)
    assert _window(rho, m, limits) == (14, 26)
    for bad in (-1e-300, -0.0):   # any momentum bits end the far-field run
        m[10] = bad
        assert _window(rho, m, limits) == (4, 26)
    rho[[2, 37]] = 1.0
    assert _window(rho, m, limits) == (0, n)
    m[10] = 0.0
    # a grid that is far field throughout, coincident or vacuum (limits that
    # LimitSpec refuses, so plain records; the scan compares bits only)
    far_field = lambda minus, plus: SimpleNamespace(rho_minus=minus, rho_plus=plus)
    for far in (1.0, 0.0):
        assert _window(np.full(n, far), m, far_field(far, far)) == (0, n)
    assert _window(np.full(n, 1.05), m, limits) == (n - 6, n)
    # a -0.0 density is not the far field 0.0, nor the reverse
    vacuum = np.r_[np.zeros(20), np.ones(20)]
    assert _window(vacuum, m, far_field(0.0, 0.0)) == (14, n)
    vacuum[:7] = -0.0
    assert _window(vacuum, m, far_field(0.0, 0.0)) == (0, n)
    assert _window(vacuum, m, far_field(-0.0, 0.0)) == (1, n)


def test_active_cells_reports_the_window():
    n = 120
    x = (np.arange(n) + 0.5) * 0.1
    limits = LimitSpec(1.05, 0.95, 1.0)
    jump = PhysicalState(x, np.where(np.arange(n) < 60, 1.05, 0.95), np.zeros(n), 0.0)
    out = run(jump, SolverConfig(), LAW, limits, [0.5])
    assert out.meta["active_cells"].shape == out.meta["dt"].shape
    # cells 54..65 can change, computed as the blocks of cells 48..79
    assert out.meta["active_cells"][0] == 32 < n


# ---------------------------------------------------------------------------
# parabolic coarsening: cell pairs merge each time sqrt((1+t)/(1+t0)) doubles


def _jump_state(n=128, t=0.0):
    """A jump with a bump at the centre of n cells of width 0.1."""
    x = (np.arange(n) + 0.5) * 0.1 - 0.05 * n
    rho = np.where(x < 0, 1.05, 0.95) + 0.1 * np.exp(-(x**2))
    return PhysicalState(x, rho, np.zeros(n), t)


JUMP = LimitSpec(1.05, 0.95, 1.0)


def test_coarsen_keeps_far_field_bits():
    # (a + a)/2 = a to the bit, signed zeros and subnormals included
    values = np.array([1.05, 0.95, 0.0, -0.0, 5e-324, -5e-324, 1e300])
    pairs = np.repeat(values, 2)
    merged = _coarsen(PhysicalState._trusted(np.arange(pairs.size) + 0.5, pairs,
                                             pairs, 0.0))
    assert _same_bits((merged.rho, values), (merged.m, values))
    assert np.array_equal(merged.x, np.arange(values.size) * 2.0 + 1.0)


def test_merge_keeps_far_field_and_window():
    # waves from x = 0 stay well inside x = +-25.6 up to t = 3.5
    state = _jump_state(512)
    out = run(state, SolverConfig(), LAW, JUMP, [3.5])
    final, meta = out.final, out.meta
    assert final.x.size == 256 and final.dx == pytest.approx(0.2, rel=1e-12)
    # the edge cells still hold the far field to the bit, +0.0 momentum too
    assert _same_bits((final.rho[:8], np.full(8, 1.05)), (final.rho[-8:], np.full(8, 0.95)),
                      (final.m[:8], np.zeros(8)), (final.m[-8:], np.zeros(8)))
    after = meta["t"] > 3.0
    assert np.all(meta["dx"][after] == final.dx) and np.all(meta["dx"][~after] == state.dx)
    # the window still leaves out far-field cells of the merged grid
    assert 0 < meta["active_cells"][after].max() < final.x.size


@pytest.mark.parametrize("n, final_n", [
    (127, 127),   # odd: no merge
    (6, 3),       # one merge, then odd
    (2, 2),       # a merged grid would have no dx
])
def test_merge_skipped_on_odd_grids(n, final_n):
    state = _jump_state(n)
    out = run(state, SolverConfig(), LAW, JUMP, [16.0])
    assert out.final.x.size == final_n
    assert np.unique(out.meta["dx"]).size == (2 if final_n < n else 1)
    if final_n == n:
        # and no step was cut short at a merge time
        assert not np.any(np.isin(out.meta["t"], [3.0, 15.0]))


def test_merge_times_count_from_the_initial_time():
    # from t0 = 5, sqrt((1+t)/(1+t0)) = 2 at t = 23; no step goes back to 3
    state = _jump_state(t=5.0)
    out = run(state, SolverConfig(), LAW, JUMP, [24.0])
    t, dx = out.meta["t"], out.meta["dx"]
    assert np.all(out.meta["dt"] > 0) and np.all(np.diff(t) > 0) and t[0] > 5.0
    assert list(t[np.flatnonzero(np.diff(dx))]) == [23.0]


def test_window_run_across_a_merge_matches_full_grid():
    # a snapshot due at the merge time is taken on the grid before it
    state = _jump_state()
    times = (1.0, 3.0, 3.25, 3.5)
    out = run(state, SolverConfig(), LAW, JUMP, times)
    with _full_window():
        full = run(state, SolverConfig(), LAW, JUMP, times)
    assert _same_run(out, full)
    assert [s.x.size for s in out.snapshots] == [128, 128, 128, 64, 64]
    assert np.all(full.meta["active_cells"] == np.where(full.meta["dx"] == state.dx, 128, 64))


# ---------------------------------------------------------------------------
# grid self-convergence: each grid's answer against the next finer one's,
# restricted by the merge's own pair means, so no exact solution is needed


def _tanh_final(n, order):
    """The state at t = 1 from the cell averages of rho = 1 - 0.2 tanh x at
    rest on n cells of [-12, 12]: before the first merge at t = 3, and with
    the waves still far from the edges."""
    dx = 24.0 / n
    edges = np.arange(n + 1) * dx - 12.0
    # log cosh is the antiderivative of tanh
    rho = 1.0 - 0.2 * np.diff(np.log(np.cosh(edges))) / dx
    state = PhysicalState(edges[:-1] + dx / 2, rho, np.zeros(n), 0.0)
    out = run(state, SolverConfig(cfl=0.4, order=order), LAW, LimitSpec(1.2, 0.8, 1.0), [1.0])
    return out.final


@pytest.mark.parametrize("order,min_rate", [(2, 1.7)])
def test_grid_self_convergence(order, min_rate):
    finals = [_tanh_final(n, order) for n in (150, 300, 600, 1200)]
    errors = np.array([[np.mean(np.abs(getattr(a, f) - getattr(_coarsen(b), f)))
                        for f in ("rho", "m")] for a, b in zip(finals, finals[1:])])
    rates = np.log2(errors[:-1] / errors[1:])
    assert np.all(rates >= min_rate), (errors, rates)
