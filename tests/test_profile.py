"""Similarity-profile solver and flatness constants."""

from unittest import mock

import numpy as np
import pytest
from scipy.linalg import solve_banded

from diffusionwave import profile
from diffusionwave.errors import DomainError, SolverFailure
from diffusionwave.profile import (
    NEWTON_TOL,
    TAIL_TOL,
    LimitSpec,
    SimilarityProfile,
    _ode_residual,
    _profile_constants,
    _tridiag,
    default_halfwidth,
    solve_profile,
)
from diffusionwave.thermo import PressureLaw

LAW = PressureLaw(1.0, 2.0)

# Independently computed solution of the same truncated boundary-value
# problem (gamma=2, k=1, alpha=1, rho(-8)=1.2, rho(8)=0.8): adaptive
# Runge-Kutta shooting from y=-8 with the initial slope root-found so that
# rho(8)=0.8 (rtol 1e-12), values sampled from the dense output.
GOLDEN_LIMITS = LimitSpec(1.2, 0.8, 1.0)
GOLDEN_RHO = {
    -6.0: 1.199001197366,
    -4.0: 1.188475746395,
    -2.0: 1.136044403490,
    -1.0: 1.080778353196,
    0.0: 1.007274140910,
    1.0: 0.928220789629,
    2.0: 0.862757936620,
    4.0: 0.806428675792,
    6.0: 0.800201520507,
}


@pytest.fixture(scope="module")
def golden_profile():
    return solve_profile(GOLDEN_LIMITS, LAW, L=8.0, dy=0.01, tail_tol=1e-3)


@pytest.fixture(scope="module")
def jump_profile():
    # the small-jump fixture used by the acceptance experiments
    return solve_profile(LimitSpec(1.05, 0.95, 1.0), LAW, dy=0.02)


class TestSolve:
    def test_constant_profile(self):
        prof = solve_profile(LimitSpec(1.0, 1.0, 0.7), LAW, L=5.0, dy=0.1)
        assert np.all(prof.rho_star == 1.0)
        assert np.all(prof.n_star == 0.0)
        assert (prof.theta, prof.mu, prof.K_const) == (0.0, 0.0, 0.0)

    def test_golden_fixture(self, golden_profile):
        prof = golden_profile
        for yv, rv in GOLDEN_RHO.items():
            i = int(round((yv + 8.0) / 0.01))
            assert prof.rho_star[i] == pytest.approx(rv, abs=1e-6)

    def test_monotone_and_in_range(self, golden_profile):
        rho = golden_profile.rho_star
        assert np.all(np.diff(rho) <= 1e-12)
        assert rho.min() >= 0.8 - 1e-14 and rho.max() <= 1.2 + 1e-14

    def test_ode_residual_small(self, golden_profile):
        assert np.max(np.abs(golden_profile.ode_residual[1:-1])) <= 1e-10

    def test_darcy_residual(self, golden_profile):
        prof = golden_profile
        p, _ = LAW.pressure(prof.rho_star)
        darcy = prof.n_star[1:-1] + (p[2:] - p[:-2]) / (2 * prof.dy)
        assert np.max(np.abs(darcy)) <= 1e-8

    def test_alpha_scaling_identity(self):
        # the alpha=4 profile equals the alpha=1 profile evaluated at 2y
        base = solve_profile(GOLDEN_LIMITS, LAW, L=8.0, dy=0.01, tail_tol=1e-3)
        fast = solve_profile(LimitSpec(1.2, 0.8, 4.0), LAW, L=4.0, dy=0.005,
                             tail_tol=1e-3)
        assert np.max(np.abs(fast.rho_star - base.rho_star)) <= 1e-6

    def test_inadmissible_limits(self):
        with pytest.raises(DomainError):
            LimitSpec(1.2, 0.8, 0.0)
        with pytest.raises(DomainError):
            LimitSpec(1.2, 0.0, 1.0)
        with pytest.raises(DomainError):
            LimitSpec(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            LimitSpec(1.0, 1.0, -1.0)
        # alpha > 0 for every pair of limits, coincident ones included
        for rho_minus, rho_plus, alpha in ((1.05, 0.95, 0.0), (1.0, 1.0, 0.0),
                                           (1.0, 1.0, -0.0), (1.0, 1.0, -1.0)):
            with pytest.raises(DomainError, match="friction coefficient must be > 0"):
                LimitSpec(rho_minus, rho_plus, alpha)
        assert LimitSpec(1.0, 1.0, 1.0).same_limits

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("k", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_coincident_limits_solve_to_the_constant_state(self, gamma, k, alpha):
        # no branch: Newton starts at the constant state, whose residual is 0
        limits, law = LimitSpec(1.3, 1.3, alpha), PressureLaw(k, gamma)
        prof = solve_profile(limits, law, dy=0.05)
        assert np.all(prof.rho_star == 1.3)
        assert np.all(prof.n_star == 0.0) and np.all(prof.r_star == 0.0)
        assert np.all(prof.ode_residual == 0.0)
        assert (prof.theta, prof.mu, prof.K_const) == (0.0, 0.0, 0.0)
        # one half-width rule: the Gaussian tail's, where it is the widest
        D = gamma * k * 1.3 ** (gamma - 1.0) / alpha
        assert default_halfwidth(limits, law) == pytest.approx(
            max(8.0, 20.0 / np.sqrt(alpha), np.sqrt(4.0 * D * np.log(1.0 / TAIL_TOL))),
            rel=1e-12)

    def test_undersized_domain_rejected(self):
        with pytest.raises(DomainError):
            solve_profile(GOLDEN_LIMITS, LAW, L=8.0, dy=0.01)

    @pytest.mark.parametrize("k, L", [(1.0, 20.0), (3.5, 26.0), (4.0, 27.8)])
    def test_default_halfwidth_grows_with_the_diffusivity(self, k, L):
        # D = p'(1.05)/alpha = 2.1 k: the Gaussian tail exp(-y^2/(4D)) reaches
        # TAIL_TOL past y = 20 from k = 2.07 on; a fixed L = 20 left tails of
        # 2.5e-10 (k = 3.5) and 1.3e-9 (k = 4) at this dy
        limits, law = LimitSpec(1.05, 0.95, 1.0), PressureLaw(k, 2.0)
        assert default_halfwidth(limits, law) == pytest.approx(L, abs=0.05)
        prof = solve_profile(limits, law, dy=0.02)
        assert prof.y[-1] == pytest.approx(L, abs=0.05)
        assert max(abs(prof.rho_star[1] - 1.05), abs(prof.rho_star[-2] - 0.95)) <= TAIL_TOL


    def test_newton_stops_at_its_rounding_floor(self):
        # k = 10 at dy = 0.01: the tolerance is the rounding floor 16 eps
        # p(1.05)/dy^2 = 3.9e-10 > NEWTON_TOL, and Newton stops at its first
        # residual under it, after a few steps, not after a line search that
        # halves its step down to 1e-8
        limits, law = LimitSpec(1.05, 0.95, 1.0), PressureLaw(10.0, 2.0)
        with mock.patch.object(profile, "_ode_residual",
                               side_effect=profile._ode_residual) as residual:
            prof = solve_profile(limits, law, dy=0.01)
        assert residual.call_count <= 10
        assert NEWTON_TOL < np.max(np.abs(prof.ode_residual[1:-1])) <= 3.9e-10
        assert max(abs(prof.rho_star[1] - 1.05), abs(prof.rho_star[-2] - 0.95)) <= TAIL_TOL

    def test_newton_stall_above_the_floor_raises(self):
        # a Newton direction of zero stalls the line search at the residual
        # of the tanh start, far above the floor
        with mock.patch.object(profile, "_tridiag", lambda a, b, c, d: np.zeros_like(d)):
            with pytest.raises(SolverFailure, match="stalled") as info:
                solve_profile(GOLDEN_LIMITS, LAW, dy=0.01)
        assert info.value.residual > 1e-3


class TestConstants:
    def test_constant_profile_zeroes(self):
        # the formulas, with no branch of their own, give the constant state
        # the zeros that solve_profile's constant profile carries
        prof = solve_profile(LimitSpec(2.0, 2.0, 1.0), LAW, L=4.0, dy=0.1)
        theta, mu, K, r_star = _profile_constants(prof, LAW, LimitSpec(2.0, 2.0, 1.0))
        assert (theta, mu, K) == (prof.theta, prof.mu, prof.K_const) == (0.0, 0.0, 0.0)
        assert np.all(r_star == 0.0) and np.all(prof.r_star == 0.0)

    def test_synthetic_parabola_theta(self):
        # rho*(y) = (1+y^2)/2 with gamma=2, k=1, alpha=1: h'(rho*) = 1+y^2,
        # so (1/alpha) h'(rho*)_yy = 2 and theta = max{2, 1} * 2 = 4
        y = np.linspace(-2.0, 2.0, 401)
        rho = 0.5 * (1.0 + y**2)
        prof = SimilarityProfile(y, rho, np.zeros_like(y), np.zeros_like(y),
                                 np.zeros_like(y))
        theta, _, _, _ = _profile_constants(prof, LAW, LimitSpec(1.0, 1.0, 1.0))
        assert theta == pytest.approx(4.0, rel=1e-10)

    def test_jump_fixture_flat(self, jump_profile):
        assert 0.0 < jump_profile.theta < 0.5

    def test_theta_stable_under_refinement(self):
        coarse = solve_profile(LimitSpec(1.05, 0.95, 1.0), LAW, dy=0.02)
        fine = solve_profile(LimitSpec(1.05, 0.95, 1.0), LAW, dy=0.01)
        assert coarse.theta == pytest.approx(fine.theta, rel=1e-3)

    def test_nonpositive_density_rejected(self):
        # the constants take no density that is not > 0: the limits refuse it,
        # vacuum included, before solve_profile runs
        for rho_minus, rho_plus in ((0.0, 0.0), (-0.0, 0.0), (0.0, 1.0), (1.0, -0.5)):
            with pytest.raises(DomainError, match="far-field densities must be positive"):
                LimitSpec(rho_minus, rho_plus, 1.0)


class TestRefinement:
    def test_ode_residual_second_order(self):
        # every 8th and 4th node of a fine solution on [-14, 14]
        fine = solve_profile(GOLDEN_LIMITS, LAW, L=20.0, dy=0.01)
        on = np.abs(fine.y) <= 14.0 + fine.dy / 2
        norms = []
        for step in (8, 4):
            y = fine.y[on][::step]
            r = _ode_residual(fine.rho_star[on][::step], y, step * fine.dy, LAW, 1.0)
            inner = np.abs(y[1:-1]) <= 10.0
            norms.append(np.max(np.abs(r[1:-1][inner])))
        factor = norms[0] / norms[1]
        assert 3.0 <= factor <= 5.0


# ---------------------------------------------------------------------------
# the numpy tridiagonal solve against its scipy oracle


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestNumpyKernels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 100, 1001, 7999, 8001])
    def test_tridiag_matches_solve_banded(self, n):
        rng = np.random.default_rng(n)
        a, c, d = rng.uniform(-1.0, 1.0, (3, n))
        b = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 3.0, n)
        a[0] = c[-1] = 0.0
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = c[:-1], b, a[1:]
        assert _rel(_tridiag(a, b, c, d), solve_banded((1, 1), ab, d)) <= 1e-12
