"""Finite-volume solver: fluxes, stepping, audits, manufactured convergence."""

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
    _check,
    _face,
    _hyperbolic_rhs,
    _minmod,
    _rusanov,
    _window,
    max_wavespeed,
    numerical_flux,
    physical_flux,
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


class TestFlux:
    def test_physical(self):
        assert physical_flux(1.0, 3.0, LAW) == (3.0, 10.0)
        assert physical_flux(2.0, 0.0, LAW) == (0.0, 4.0)
        assert physical_flux(0.0, 0.0, LAW) == (0.0, 0.0)

    def test_vacuum_violation(self):
        with pytest.raises(VacuumViolation):
            physical_flux(0.0, 1.0, LAW)

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
        # |u| + sqrt(p'(rho)) with rho=1, m=2: 2 + sqrt(2)
        assert max_wavespeed(np.array([1.0]), np.array([2.0]), LAW) == pytest.approx(
            2.0 + np.sqrt(2.0)
        )


# ---------------------------------------------------------------------------
# the fused kernel against the scheme written out with the public pieces:
# physical_flux, the masked velocity and the np.where minmod.  Every
# comparison is of the raw bytes, signed zeros included.


def _same_bits(*pairs):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in pairs)


def _ref_velocity(rho, m):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rho > 0, m / np.where(rho > 0, rho, 1.0), 0.0)


def _ref_rusanov(rho_l, m_l, rho_r, m_r, law):
    f_rho_l, f_m_l = physical_flux(rho_l, m_l, law)
    f_rho_r, f_m_r = physical_flux(rho_r, m_r, law)
    speeds = [np.abs(_ref_velocity(rho, m)) + np.sqrt(np.maximum(law.pressure(rho)[1], 0.0))
              for rho, m in ((rho_l, m_l), (rho_r, m_r))]
    s = np.maximum(*speeds)
    return (0.5 * (f_rho_l + f_rho_r) - 0.5 * s * (rho_r - rho_l),
            0.5 * (f_m_l + f_m_r) - 0.5 * s * (m_r - m_l))


def _ref_minmod(a, b):
    return np.where(a * b > 0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _ref_rhs(rho, m, dx, order, law, limits):
    R = np.concatenate([[limits.rho_minus] * 2, rho, [limits.rho_plus] * 2])
    M = np.concatenate([[0.0, 0.0], m, [0.0, 0.0]])
    if order == 2:
        U = _ref_velocity(R, M)
        slope_r = _ref_minmod(R[1:-1] - R[:-2], R[2:] - R[1:-1])
        slope_u = _ref_minmod(U[1:-1] - U[:-2], U[2:] - U[1:-1])
        near_vac = (R[:-2] < 1e-8) | (R[1:-1] < 1e-8) | (R[2:] < 1e-8)
        slope_r = np.where(near_vac, 0.0, slope_r)
        slope_u = np.where(near_vac, 0.0, slope_u)
        r_minus = np.maximum(R[1:-1] - 0.5 * slope_r, 0.0)
        r_plus = np.maximum(R[1:-1] + 0.5 * slope_r, 0.0)
        u_minus = U[1:-1] - 0.5 * slope_u
        u_plus = U[1:-1] + 0.5 * slope_u
        faces = (r_plus[:-1], r_plus[:-1] * u_plus[:-1],
                 r_minus[1:], r_minus[1:] * u_minus[1:])
    else:
        faces = (R[1:-2], M[1:-2], R[2:-1], M[2:-1])
    f_rho, f_m = _ref_rusanov(*faces, law)
    return -(f_rho[1:] - f_rho[:-1]) / dx, -(f_m[1:] - f_m[:-1]) / dx


_GAMMAS = st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=4.0))


@st.composite
def _face_states(draw, vacuum=True):
    n = draw(st.integers(min_value=1, max_value=30))
    density = st.floats(min_value=1e-12, max_value=1e3)
    if vacuum:
        density = st.one_of(st.just(0.0), density)
    momentum = st.floats(min_value=-1e3, max_value=1e3)
    out = []
    for _ in range(2):
        rho = np.array(draw(st.lists(density, min_size=n, max_size=n)))
        m = np.array(draw(st.lists(momentum, min_size=n, max_size=n)))
        out += [rho, np.where(rho > 0, m, 0.0)]
    return out


@given(faces=_face_states(), gamma=_GAMMAS, k=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=300)
def test_rusanov_matches_numerical_flux(faces, gamma, k):
    law = PressureLaw(k, gamma)
    rho_l, m_l, rho_r, m_r = faces
    fused = _rusanov(rho_l, m_l, rho_r, m_r, law)
    public = numerical_flux((rho_l, m_l), (rho_r, m_r), law)
    reference = _ref_rusanov(rho_l, m_l, rho_r, m_r, law)
    assert _same_bits(*zip(fused, public), *zip(fused, reference))


@given(faces=_face_states(vacuum=False), gamma=_GAMMAS)
@settings(max_examples=200)
def test_face_fast_path_matches_masked(faces, gamma):
    law = PressureLaw(1.5, gamma)
    rho, m = faces[:2]
    assert _same_bits(*zip(_face(rho, m, law, True), _face(rho, m, law, False)))


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324, 1e-200, -1e-200,
            np.inf, -np.inf, np.nan]


def test_minmod_matches_where_form_on_specials():
    a, b = (np.array(v) for v in zip(*[(x, y) for x in _SPECIAL for y in _SPECIAL]))
    with np.errstate(all="ignore"):
        assert _same_bits((_minmod(a, b), _ref_minmod(a, b)))


@given(pairs=st.lists(st.tuples(st.one_of(st.sampled_from(_SPECIAL), st.floats()),
                                st.one_of(st.sampled_from(_SPECIAL), st.floats())),
                      min_size=1, max_size=20))
@settings(max_examples=300)
def test_minmod_matches_where_form(pairs):
    a, b = (np.array(v) for v in zip(*pairs))
    with np.errstate(all="ignore"):
        assert _same_bits((_minmod(a, b), _ref_minmod(a, b)))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_hyperbolic_rhs_matches_reference_scheme(gamma, order):
    rng = np.random.default_rng(7)
    n, dx = 300, 0.05
    x = (np.arange(n) + 0.5) * dx
    rho = rng.uniform(0.2, 2.0, n)
    rho[40:60] = 0.0
    rho[[100, 101, 180]] = 1e-9
    m = np.where(rho > 0, rng.normal(0.0, 0.5, n), 0.0)
    law = PressureLaw(1.3, gamma)
    drho, dm, _ = _hyperbolic_rhs(rho, m, 0.0, x, dx, SolverConfig(order=order), law, UNIT)
    assert _same_bits(*zip((drho, dm), _ref_rhs(rho, m, dx, order, law, UNIT)))


@pytest.mark.parametrize("rho_bad,m_bad", [(np.inf, 0.0), (np.nan, 0.0), (1.0, -np.inf),
                                           (1.0, np.inf), (-1e-3, 0.0)])
def test_check_rejects_nonfinite_and_negative(rho_bad, m_bad):
    rho, m = np.ones(5), np.zeros(5)
    _check(rho, m)
    rho[2], m[2] = rho_bad, m_bad
    with pytest.raises(NumericalFailure):
        _check(rho, m)


def test_run_rejects_nonfinite_cfl_step():
    state = _constant_state(m=0.0)
    state.m[7] = np.inf   # infinite wavespeed: the CFL step would be 0
    with pytest.raises(NumericalFailure, match="time step"):
        run(state, SolverConfig(), LAW, UNIT, 1.0)


def test_ghost_hook_states_are_validated():
    state = _constant_state(m=0.0)
    cfg = SolverConfig(ghost_states=lambda t, xg: (-np.ones_like(xg), np.zeros_like(xg)))
    with pytest.raises(DomainError):
        step(state, cfg, LAW, 0.0, UNIT)


def _constant_state(n=240, dx=0.1, rho=1.0, m=1.0):
    x = (np.arange(n) + 0.5) * dx - n * dx / 2
    return PhysicalState(x, np.full(n, rho), np.full(n, m), 0.0)


class TestStep:
    def test_dt_formula(self):
        state = _constant_state(rho=1.0, m=0.0, dx=0.01)
        # wavespeed sqrt(2); cfl 0.45 -> dt = 0.45*0.01/sqrt(2)
        new = step(state, SolverConfig(cfl=0.45), LAW, 0.0, UNIT)
        assert new.t == pytest.approx(0.45 * 0.01 / np.sqrt(2.0), rel=1e-14)

    def test_constant_state_exact_damping(self):
        state = _constant_state()
        cfg = SolverConfig(cfl=0.45)
        out = run(state, cfg, LAW, UNIT, float(np.log(2.0)))
        mid = out.final.x.size // 2
        assert out.final.m[mid] == pytest.approx(0.5, rel=1e-12)
        assert out.final.rho[mid] == pytest.approx(1.0, rel=1e-13)

    def test_zero_damping_equilibrium(self):
        state = _constant_state(m=0.0)
        limits = LimitSpec(1.0, 1.0, 0.0)
        new = step(state, SolverConfig(), LAW, 0.0, limits)
        assert np.all(new.rho == 1.0)
        assert np.all(new.m == 0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(cfl=0.6)
        with pytest.raises(ConfigError):
            SolverConfig(order=3)


class TestRun:
    def test_conservation_audit(self):
        # density bump around 1: mass change equals net boundary flux
        n, dx = 400, 0.05
        x = (np.arange(n) + 0.5) * dx - 10.0
        rho = 1.0 + 0.2 * np.exp(-(x**2))
        state = PhysicalState(x, rho, np.zeros(n), 0.0)
        out = run(state, SolverConfig(), LAW, UNIT, 2.0)
        meta = out.meta
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
            out = run(state, SolverConfig(cfl=cfl), LAW, UNIT, 1.0)
            meta = out.meta
            return abs(
                meta["momentum"][-1] - state.momentum
                - meta["boundary_flux_momentum"][-1] + meta["damping_sink"][-1]
            )

        assert imbalance(0.4) <= 1e-12
        assert imbalance(0.1) <= 1e-12

    def test_snapshots_hit_exactly(self):
        state = _constant_state(m=0.0)
        cfg = SolverConfig(snapshot_times=(0.25, 0.5))
        out = run(state, cfg, LAW, UNIT, 0.5)
        assert [s.t for s in out.snapshots] == [0.0, 0.25, 0.5]

    def test_bad_schedule(self):
        state = _constant_state(m=0.0)
        with pytest.raises(ConfigError):
            run(state, SolverConfig(), LAW, UNIT, 0.0)
        with pytest.raises(ConfigError):
            run(state, SolverConfig(snapshot_times=(2.0,)), LAW, UNIT, 1.0)

    def test_domain_too_small_for_window(self):
        state = _constant_state(n=100, dx=0.1, m=0.0)
        with pytest.raises(ConfigError):
            run(state, SolverConfig(), LAW, UNIT, 3.0, scaled_halfwidth=8.0)


# ---------------------------------------------------------------------------
# the active window: stepping only it changes no bit of the result


def _full_window():
    """Patch the window scan to the whole grid: the scheme without skipping."""
    return mock.patch.object(dynamics, "_window", lambda rho, m, cfg, limits: (0, rho.size))


def _same_run(a, b):
    """Snapshots and every meta array but active_cells equal byte for byte."""
    keys = set(a.meta) - {"active_cells"}
    return (keys == set(b.meta) - {"active_cells"} and len(a.snapshots) == len(b.snapshots)
            and all(sa.t == sb.t and _same_bits((sa.rho, sb.rho), (sa.m, sb.m))
                    for sa, sb in zip(a.snapshots, b.snapshots))
            and _same_bits(*((a.meta[k], b.meta[k]) for k in keys)))


@st.composite
def _far_field_problems(draw):
    """Far-field states outside a random interior block; a vacuum side only
    where gamma > 1."""
    gamma = draw(_GAMMAS)
    far = st.floats(min_value=0.5, max_value=2.0)
    if gamma > 1.0:
        far = st.one_of(st.sampled_from([0.0, -0.0]), far)
    limits = SimpleNamespace(rho_minus=draw(far), rho_plus=draw(far),
                             alpha=draw(st.sampled_from([0.0, 1.0])))
    n = draw(st.integers(min_value=24, max_value=120))
    lo = draw(st.integers(min_value=1, max_value=n - 2))
    hi = draw(st.integers(min_value=lo + 1, max_value=n - 1))
    block = st.one_of(st.just(0.0), st.floats(min_value=0.2, max_value=2.0))
    rho = np.r_[np.full(lo, limits.rho_minus),
                draw(st.lists(block, min_size=hi - lo, max_size=hi - lo)),
                np.full(n - hi, limits.rho_plus)]
    # far-field momentum and vacuum density of either sign of zero
    zero = st.sampled_from([0.0, -0.0])
    m = np.r_[np.full(lo, draw(zero)),
              draw(st.lists(st.floats(min_value=-0.5, max_value=0.5),
                            min_size=hi - lo, max_size=hi - lo)),
              np.full(n - hi, draw(zero))]
    m[lo:hi][rho[lo:hi] == 0] = 0.0
    rho[rho == 0] = draw(zero)
    x = (np.arange(n) + 0.5) * 0.1
    return (PhysicalState(x, rho, m, 0.0), PressureLaw(1.0, gamma), limits,
            draw(st.sampled_from([1, 2])))


def _outcome(fn):
    """fn's result, or the type of the solver error it raised."""
    try:
        return fn()
    except (NumericalFailure, DomainError) as exc:
        return type(exc)


def _signed_zero_problem():
    # the full grid turns these -0.0 densities into 0.0: they are not far
    # field to the bit, so the window must take them in
    x = (np.arange(24) + 0.5) * 0.1
    rho, m = np.full(24, -0.0), np.full(24, -0.0)
    rho[-1], m[-2:] = 1.0, 0.0
    return (PhysicalState(x, rho, m, 0.0), PressureLaw(1.0, 2.0),
            SimpleNamespace(rho_minus=0.0, rho_plus=1.0, alpha=0.0), 1)


@given(problem=_far_field_problems())
@example(problem=_signed_zero_problem())
@settings(max_examples=150, deadline=None)
def test_window_run_matches_full_grid_steps(problem):
    state, law, limits, order = problem
    cfg = SolverConfig(order=order, snapshot_times=(0.25, 0.5))
    runs = [_outcome(lambda: run(state, cfg, law, limits, 0.5))]
    # and on the window itself, not rounded out to whole blocks
    with mock.patch.object(dynamics, "_BLOCK", 1):
        runs.append(_outcome(lambda: run(state, cfg, law, limits, 0.5)))
    with _full_window():
        full = _outcome(lambda: run(state, cfg, law, limits, 0.5))
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


@pytest.mark.parametrize("order", [1, 2])
def test_full_grid_step_leaves_cells_outside_the_window(order):
    # the scheme itself, on the whole grid, keeps every cell that _window
    # leaves out at exactly (rho_-, 0) or (rho_+, 0), step after step
    n, dx = 120, 0.1
    x = (np.arange(n) + 0.5) * dx
    limits = LimitSpec(1.05, 0.95, 1.0)
    rho = np.where(np.arange(n) < 60, 1.05, 0.95)
    rho[57:61] = [1.3, 0.6, 1.2, 0.8]
    m = np.zeros(n)
    m[58] = 0.2
    state = PhysicalState(x, rho, m, 0.0)
    cfg = SolverConfig(order=order)
    for _ in range(40):
        lo, hi = _window(state.rho, state.m, cfg, limits)
        assert 0 < lo < hi < n
        with _full_window():
            new = step(state, cfg, LAW, limits.alpha, limits)
        assert np.all(new.rho[:lo] == 1.05) and np.all(new.rho[hi:] == 0.95)
        assert _same_bits((new.rho[:lo], state.rho[:lo]), (new.rho[hi:], state.rho[hi:]),
                          (new.m[:lo], state.m[:lo]), (new.m[hi:], state.m[hi:]))
        assert not np.any(new.m[:lo]) and not np.any(new.m[hi:])
        state = new


def test_window_bounds():
    # [P - 4, n - S + 4) clipped to the grid, P and S the far-field runs
    n = 40
    x = (np.arange(n) + 0.5) * 0.1
    limits = LimitSpec(1.05, 0.95, 1.0)
    cfg = SolverConfig()
    rho = np.where(np.arange(n) < 20, 1.05, 0.95)
    m = np.zeros(n)
    assert _window(rho, m, cfg, limits) == (16, 24)
    for bad in (-1e-300, -0.0):   # any momentum bits end the far-field run
        m[10] = bad
        assert _window(rho, m, cfg, limits) == (6, 24)
    rho[[2, 37]] = 1.0
    assert _window(rho, m, cfg, limits) == (0, n)
    rho[[2, 37]] = [1.05, 0.95]
    m[10] = 0.0
    hooks = (SolverConfig(forcing=lambda t, xx: (0.0 * xx, 0.0 * xx)),
             SolverConfig(ghost_states=lambda t, xg: (np.ones(2), np.zeros(2))))
    assert [_window(rho, m, c, limits) for c in hooks] == [(0, n), (0, n)]
    # a grid that is far field throughout, coincident or vacuum
    for far in (1.0, 0.0):
        assert _window(np.full(n, far), m, cfg, LimitSpec(far, far, 1.0)) == (0, n)
    assert _window(np.full(n, 1.05), m, cfg, limits) == (n - 4, n)
    # a -0.0 density is not the far field 0.0, nor the reverse
    vacuum = np.r_[np.zeros(20), np.ones(20)]
    assert _window(vacuum, m, cfg, LimitSpec(0.0, 0.0, 1.0)) == (16, n)
    vacuum[:5] = -0.0
    assert _window(vacuum, m, cfg, LimitSpec(0.0, 0.0, 1.0)) == (0, n)
    assert _window(vacuum, m, cfg, LimitSpec(-0.0, 0.0, 1.0)) == (1, n)


def test_active_cells_reports_the_window():
    n = 120
    x = (np.arange(n) + 0.5) * 0.1
    limits = LimitSpec(1.05, 0.95, 1.0)
    jump = PhysicalState(x, np.where(np.arange(n) < 60, 1.05, 0.95), np.zeros(n), 0.0)
    out = run(jump, SolverConfig(), LAW, limits, 0.5)
    assert out.meta["active_cells"].shape == out.meta["dt"].shape
    # cells 56..63 can change, computed as the block of cells 48..63
    assert out.meta["active_cells"][0] == 16 < n

    forced = SolverConfig(forcing=lambda t, xx: (np.zeros_like(xx), np.zeros_like(xx)))
    out = run(jump, forced, LAW, limits, 0.5)
    assert np.all(out.meta["active_cells"] == n)


# ---------------------------------------------------------------------------
# manufactured-solution convergence


@pytest.fixture(scope="module")
def manufactured():
    import sympy as sp

    t, x = sp.symbols("t x")
    alpha = 1.0
    rho = 2 + sp.Rational(1, 2) * sp.sin(x) * sp.cos(t)
    m = sp.Rational(3, 10) * sp.cos(x) * sp.sin(t)
    p = rho**2
    s_rho = sp.diff(rho, t) + sp.diff(m, x)
    s_m = sp.diff(m, t) + sp.diff(m**2 / rho + p, x) + alpha * m
    fs = [sp.lambdify((t, x), f, "numpy") for f in (rho, m, s_rho, s_m)]
    return fs


def _manufactured_error(manufactured, n, t_end=0.25, order=2):
    rho_f, m_f, s_rho_f, s_m_f = manufactured
    L = np.pi
    dx = 2 * L / n
    x = (np.arange(n) + 0.5) * dx - L

    cfg = SolverConfig(
        cfl=0.4,
        order=order,
        forcing=lambda t, xx: (s_rho_f(t, xx), s_m_f(t, xx)),
        ghost_states=lambda t, xg: (rho_f(t, xg), m_f(t, xg)),
    )
    state = PhysicalState(x, rho_f(0.0, x), m_f(0.0, x), 0.0)
    out = run(state, cfg, LAW, LimitSpec(2.0, 2.0, 1.0), t_end)
    return float(np.mean(np.abs(out.final.rho - rho_f(t_end, x))))


@pytest.mark.parametrize("order,min_rate", [(1, 0.8), (2, 1.7)])
def test_manufactured_convergence(manufactured, order, min_rate):
    errors = [_manufactured_error(manufactured, n, order=order)
              for n in (100, 200, 400)]
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(rates) >= min_rate, (errors, rates)
