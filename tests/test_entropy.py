"""Relative entropy densities, residuals, identities, bounds."""

import warnings

import numpy as np
import pytest

from diffusionwave.entropy import (
    ReferencePair,
    coercivity_constants,
    entropy_identity_residual,
    error_terms,
    exchange_identity_residual,
    relative_entropy_density,
    total_relative_entropy,
    xi_bound_check,
)
from diffusionwave.errors import DomainError
from diffusionwave.profile import LimitSpec, solve_profile
from diffusionwave.scaling import ScaledField
from diffusionwave.thermo import PressureLaw

LAW = PressureLaw(1.0, 2.0)


class TestDensity:
    def test_kinetic_only(self):
        eta, _ = relative_entropy_density(0.0, 1.0, 1.0, 1.0, 0.0, LAW)
        assert eta == 0.5

    def test_coincidence(self):
        assert relative_entropy_density(0.7, 1.3, 0.4, 1.3, 0.4, LAW) == (0.0, 0.0)

    def test_flux_example(self):
        _, q = relative_entropy_density(0.0, 1.0, 2.0, 1.0, 0.0, LAW)
        assert q == 4.0

    def test_nonnegative_random(self):
        rng = np.random.default_rng(11)
        eta, _ = relative_entropy_density(
            rng.uniform(0, 4), rng.uniform(0.01, 10, 10000),
            rng.uniform(-5, 5, 10000), rng.uniform(0.01, 10, 10000),
            rng.uniform(-5, 5, 10000), LAW,
        )
        assert np.all(eta >= -1e-14)

    def test_vacuum_reference_needs_admissible_law(self):
        eta, _ = relative_entropy_density(0.0, 1.0, 0.0, 0.0, 0.0, LAW)
        assert eta == pytest.approx(1.0)  # h(1|0) = h(1) for gamma = 2
        with pytest.raises(DomainError):
            relative_entropy_density(0.0, 1.0, 0.0, 0.0, 0.0, PressureLaw(1.0, 1.0))

    def test_entropy_flux_control_ratio_bounded(self):
        # |q_rel| is controlled by (|u1| + |u2| + e^{tau/2}) eta_rel;
        # the empirical supremum of the ratio stays finite
        rng = np.random.default_rng(12)
        tau = 1.0
        rho1 = rng.uniform(0.5, 2.0, 100000)
        n1 = rng.uniform(-2, 2, 100000)
        rho2 = rng.uniform(0.5, 2.0, 100000)
        n2 = rng.uniform(-2, 2, 100000)
        eta, q = relative_entropy_density(tau, rho1, n1, rho2, n2, LAW)
        coef = (np.abs(n1) / rho1 + np.abs(n2) / rho2 + np.exp(tau / 2)) * eta
        mask = eta > 1e-14
        sup = np.max(np.abs(q[mask]) / coef[mask])
        assert np.isfinite(sup) and sup < 100.0


class TestTotals:
    def _grid_field(self, tau, y, rho, n):
        return ScaledField(tau, y, rho, n)

    def test_field_equals_reference(self):
        y = np.linspace(-2, 2, 101)
        ref = ReferencePair.constant(1.0)
        field = self._grid_field(0.0, y, np.ones_like(y), np.zeros_like(y))
        totals = total_relative_entropy(field, ref, 1.0, LAW)
        assert totals.E == 0.0 and totals.D_alpha == 0.0

    def test_indicator_deviation(self):
        # rho = 1, velocity deviation 1 on [0, 1): E = 0.5, D = alpha = 2
        dy = 0.01
        y = np.arange(-200, 201) * dy
        n = np.where((y >= 0) & (y < 1.0), 1.0, 0.0)
        field = self._grid_field(0.0, y, np.ones_like(y), n)
        ref = ReferencePair.constant(1.0)
        totals = total_relative_entropy(field, ref, 2.0, LAW)
        assert totals.E == pytest.approx(0.5, rel=1e-12)
        assert totals.D_alpha == pytest.approx(2.0, rel=1e-12)

    def test_additivity_under_support_doubling(self):
        dy = 0.01
        y = np.arange(-300, 301) * dy
        ref = ReferencePair.constant(1.0)
        out = []
        for width in (1.0, 2.0):
            n = np.where((y >= 0) & (y < width), 1.0, 0.0)
            field = self._grid_field(0.0, y, np.ones_like(y), n)
            out.append(total_relative_entropy(field, ref, 2.0, LAW))
        assert out[1].E == pytest.approx(2 * out[0].E, rel=1e-12)
        assert out[1].D_alpha == pytest.approx(2 * out[0].D_alpha, rel=1e-12)

    def test_tail_monitor(self):
        y = np.linspace(-2, 2, 101)
        ref = ReferencePair.constant(1.0)
        field = self._grid_field(0.0, y, np.full_like(y, 1.1), np.zeros_like(y))
        assert not total_relative_entropy(field, ref, 1.0, LAW).tail_ok


class TestExchangeIdentity:
    def test_spec_triple(self):
        res = exchange_identity_residual(
            0.0, (2.0, 1.0), (1.0, 0.5), (1.5, -1.0), LAW)
        assert res <= 1e-13

    def test_all_equal(self):
        res = exchange_identity_residual(
            0.3, (1.2, 0.7), (1.2, 0.7), (1.2, 0.7), LAW)
        assert res == 0.0

    def test_random_triples(self):
        rng = np.random.default_rng(13)
        N = 100000
        args = [(rng.uniform(0.1, 10, N), rng.uniform(-5, 5, N)) for _ in range(3)]
        tau = rng.uniform(0, 4)
        res = exchange_identity_residual(tau, *args, LAW)
        e1, _ = relative_entropy_density(tau, *args[0], *args[1], LAW)
        e2, _ = relative_entropy_density(tau, *args[0], *args[2], LAW)
        scale = np.maximum(1.0, np.abs(e1) + np.abs(e2))
        assert np.max(res / scale) <= 1e-12


@pytest.fixture(scope="module")
def jump_profile():
    limits = LimitSpec(1.05, 0.95, 1.0)
    return solve_profile(limits, LAW, dy=0.02), limits


class TestErrorTerms:
    def test_constant_reference_all_zero(self):
        y = np.linspace(-4, 4, 201)
        rng = np.random.default_rng(14)
        field = ScaledField(0.5, y, rng.uniform(0.5, 2, y.size),
                            rng.uniform(-1, 1, y.size))
        ref = ReferencePair.constant(1.3)
        terms = error_terms(field, ref, 0.5, 1.0, LAW)
        for arr in (terms.R1, terms.R2, terms.xi1, terms.xi2, terms.xi3):
            assert np.all(arr == 0.0)
        assert terms.Xi == (0.0, 0.0, 0.0)

    def test_profile_reference(self, jump_profile):
        # R1 vanishes up to the difference of the two discrete derivative
        # stencils; the exponentially weighted bracket in R2 cancels exactly,
        # leaving the profile residual field
        prof, limits = jump_profile
        y = np.linspace(-8.0, 8.0, 801)
        ref = ReferencePair.from_profile(prof, limits)
        rng = np.random.default_rng(15)
        field = ScaledField(3.0, y, rng.uniform(0.9, 1.1, y.size),
                            rng.uniform(-0.1, 0.1, y.size))
        terms = error_terms(field, ref, 3.0, 1.0, LAW)
        assert np.max(np.abs(terms.R1)) <= 1e-3
        assert np.max(np.abs(terms.xi3)) <= 1e-2
        i0 = int(round((y[0] - prof.y[0]) / prof.dy))
        r_star = prof.r_star[i0:i0 + y.size]
        # R2 rebuilds (n^2/rho)_y by the product rule, the stored residual
        # differentiates the quotient directly: difference is O(dy^2) small
        assert np.max(np.abs(terms.R2 - r_star)) <= 1e-7

    def test_steady_residuals_term_by_term(self):
        # R1 = -(y/2) rho_y + n_y and
        # R2 = -(y/2) n_y - n/2 + (n^2/rho)_y + e^tau (p_y + alpha n)
        tau, alpha = 0.8, 1.5
        y = np.linspace(-3, 3, 301)
        rng = np.random.default_rng(16)
        field = ScaledField(tau, y, rng.uniform(0.5, 2, y.size),
                            rng.uniform(-1, 1, y.size))

        # smoothed step at rest: only the transport and pressure terms remain
        ref = ReferencePair.smoothed_step(LimitSpec(1.05, 0.95, 1.0))
        data = ref.cached_eval(y, LAW)
        terms = error_terms(field, ref, tau, alpha, LAW)
        assert np.any(data.rho_y != 0)
        assert np.array_equal(terms.R1, -0.5 * y * data.rho_y)
        assert np.array_equal(terms.R2, np.exp(tau) * data.p_y)

        # constant density with constant momentum n0: R1 = 0 and
        # R2 = (alpha e^tau - 1/2) n0, derivatives by centered differences
        rho0, n0 = 1.3, 0.5
        ref = ReferencePair(rho=lambda y: np.full_like(y, rho0),
                            n=lambda y: np.full_like(y, n0))
        terms = error_terms(field, ref, tau, alpha, LAW)
        assert np.all(terms.R1 == 0.0)
        expected = (alpha * np.exp(tau) - 0.5) * n0
        assert np.max(np.abs(terms.R2 - expected)) <= 1e-15 * abs(expected)
        assert np.all(terms.xi3 == 0.0)


class TestEntropyIdentity:
    class _Constant:
        def rho(self, tau, y):
            return 1.7

        def n(self, tau, y):
            return 0.0

    class _Exact:
        rho0, m0, alpha = 1.3, 0.5, 1.0

        def rho(self, tau, y):
            return self.rho0

        def n(self, tau, y):
            return np.exp(tau / 2) * self.m0 * np.exp(-self.alpha * np.expm1(tau))

    def test_constant_field(self):
        res = entropy_identity_residual(self._Constant(), 0.5, 0.3, 1.0, LAW, 0.05)
        assert abs(res) <= 1e-13

    def test_exact_solution_second_order(self):
        f = self._Exact()
        res = [abs(entropy_identity_residual(f, 0.7, 0.3, f.alpha, LAW, h))
               for h in (0.1, 0.05)]
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.2)

    def test_profile_pair_not_a_solution(self, jump_profile):
        # inserting the steady profile leaves a nonzero, h-stable residual
        prof, limits = jump_profile
        ref = ReferencePair.from_profile(prof, limits)

        class Field:
            def rho(self, tau, y):
                return float(ref.rho(np.asarray([y]))[0])

            def n(self, tau, y):
                return float(ref.n(np.asarray([y]))[0])

        vals = [entropy_identity_residual(Field(), 1.0, 0.5, 1.0, LAW, h)
                for h in (0.02, 0.01)]
        assert abs(vals[1]) > 1e-4
        assert vals[0] == pytest.approx(vals[1], rel=0.2)


class TestXiBounds:
    def test_state_equals_reference(self, jump_profile):
        prof, limits = jump_profile
        ref = ReferencePair.from_profile(prof, limits)
        y = np.linspace(-6, 6, 301)
        data = ref.eval(y, LAW)
        assert xi_bound_check(1.0, y, data.rho, data.n, ref, LAW, 1.0) == 0

    def test_random_states(self, jump_profile):
        prof, limits = jump_profile
        ref = ReferencePair.from_profile(prof, limits)
        rng = np.random.default_rng(17)
        y = np.linspace(-6, 6, 301)
        violations = 0
        for _ in range(20):
            violations += xi_bound_check(
                rng.uniform(0, 4), y, rng.uniform(0.2, 3, y.size),
                rng.uniform(-2, 2, y.size), ref, LAW, 1.0)
        assert violations == 0


class TestCoercivity:
    def test_constants_positive(self):
        cc = coercivity_constants(LAW, 0.5, 2.0)
        assert cc.r0 == 4.0
        assert cc.C_small > 0 and cc.C_large > 0

    def test_lower_bound_random(self):
        cc = coercivity_constants(LAW, 0.5, 2.0)
        rng = np.random.default_rng(18)
        N = 20000
        rho = rng.uniform(0.0, cc.rho_cap, N)
        rho_bar = rng.uniform(0.5, 2.0, N)
        n = rng.uniform(-3, 3, N)
        tau = rng.uniform(0, 4, N)
        eta, _ = relative_entropy_density(tau, rho, n, rho_bar, 0.0, LAW)
        lower = cc.lower_bound(tau, rho, n, rho_bar, LAW.gamma)
        assert np.all(eta >= lower - 1e-12 * np.maximum(1.0, lower))


class TestSteadyReferenceMemo:
    """cached_eval: a reference is evaluated once per (grid, law)."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        original = ReferencePair.eval

        def counted(self, y, law):
            calls.append(np.size(y))
            return original(self, y, law)

        monkeypatch.setattr(ReferencePair, "eval", counted)
        return calls

    def test_steady_pair_evaluated_once_per_grid(self, monkeypatch, jump_profile):
        prof, limits = jump_profile
        calls = self._counting(monkeypatch)
        y = np.linspace(-4, 4, 161)
        rng = np.random.default_rng(19)
        for ref in (ReferencePair.constant(1.2), ReferencePair.smoothed_step(limits),
                    ReferencePair.from_profile(prof, limits)):
            calls.clear()
            first = ref.cached_eval(y, LAW)
            for tau in (0.1, 0.7, 2.5):
                field = ScaledField(tau, y.copy(), rng.uniform(0.8, 1.2, y.size),
                                    rng.uniform(-0.1, 0.1, y.size))
                total_relative_entropy(field, ref, 1.0, LAW)
                error_terms(field, ref, tau, 1.0, LAW)
                assert ref.cached_eval(y, LAW) is first
            assert calls == [y.size]
            # a new grid or law is evaluated afresh
            moved = y.copy()
            moved[-1] = 4.5  # same size and grid step, other nodes
            ref.cached_eval(moved, LAW)
            ref.cached_eval(np.linspace(-4, 4, 81), LAW)
            ref.cached_eval(y, PressureLaw(1.0, 3.0))
            assert len(calls) == 4

    def test_memo_matches_fresh_evaluation(self, jump_profile):
        prof, limits = jump_profile
        y = np.linspace(-6, 6, 241)
        ref = ReferencePair.from_profile(prof, limits)
        cached = ref.cached_eval(y, LAW)
        fresh = ref.eval(y, LAW)
        for name in ("rho", "n", "rho_y", "n_y", "p_y",
                     "u", "u_y", "h", "dh", "d2h", "p", "dp"):
            assert getattr(cached, name).tobytes() == getattr(fresh, name).tobytes()

    def test_reference_thermodynamics_once_per_grid(self, monkeypatch, jump_profile):
        # h, h', p and p' of rho_bar come from eval, once per grid,
        # and the snapshot totals keep the bits of the public formulas
        prof, limits = jump_profile
        calls = []
        original = PressureLaw._reference

        def counted(self, rho_bar):
            calls.append(np.size(rho_bar))
            return original(self, rho_bar)

        monkeypatch.setattr(PressureLaw, "_reference", counted)
        y = np.linspace(-4, 4, 161)
        ref = ReferencePair.from_profile(prof, limits)
        rng = np.random.default_rng(23)
        fields = [ScaledField(tau, y, rng.uniform(0.8, 1.2, y.size),
                              rng.uniform(-0.1, 0.1, y.size)) for tau in (0.1, 0.7, 2.5)]
        results = [(total_relative_entropy(fld, ref, 1.0, LAW),
                    error_terms(fld, ref, fld.tau, 1.0, LAW)) for fld in fields]
        assert calls == [y.size]

        data = ref.cached_eval(y, LAW)
        h, dh, d2h = LAW.potential(data.rho)
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip((data.h, data.dh, data.d2h, *data.thermo[2:]),
                       (h, dh, d2h, *LAW.pressure(data.rho))))
        for fld, (totals, terms) in zip(fields, results):
            eta, _ = relative_entropy_density(fld.tau, fld.rho, fld.n, data.rho, data.n, LAW)
            assert totals.E == float(np.sum(eta) * fld.dy)
            _, p_rel = LAW.relative(fld.rho, data.rho)
            du = fld.n / fld.rho - data.u
            xi1 = -data.u_y * (np.exp(-fld.tau) * fld.rho * du * du + p_rel)
            assert terms.xi1.tobytes() == xi1.tobytes()

    def test_ref_data_is_read_only(self, jump_profile):
        prof, limits = jump_profile
        y = np.linspace(-4, 4, 161)
        for ref in (ReferencePair.from_profile(prof, limits),
                    ReferencePair.constant(1.1)):
            data = ref.cached_eval(y, LAW)
            for name in ("rho", "n", "rho_y", "n_y", "p_y",
                         "u", "u_y", "h", "dh", "d2h", "p", "dp"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(data, name)[0] = 7.0
            with pytest.raises(AttributeError):
                data.rho = np.zeros_like(y)
            assert ref.cached_eval(y, LAW).rho[0] != 7.0

    def test_read_only_views_leave_caller_arrays_writable(self):
        base = np.full(41, 1.5)
        ref = ReferencePair(rho=lambda y: base, n=lambda y: np.zeros(41))
        data = ref.eval(np.linspace(-1, 1, 41), LAW)
        assert not data.rho.flags.writeable
        base[0] = 2.0  # the callable's own array is untouched
        assert data.rho[0] == 2.0

    def test_vacuum_reference(self):
        # u and u_y of a vacuum reference follow the 0/0 := 0 convention
        # without a warning; the xi bounds reject it
        y = np.linspace(-2, 2, 81)
        ref = ReferencePair.constant(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = ref.cached_eval(y, LAW)
        assert np.all(data.u == 0.0) and np.all(data.u_y == 0.0)
        with pytest.raises(DomainError, match="bounded away from vacuum"):
            xi_bound_check(0.0, y, np.ones_like(y), np.zeros_like(y), ref, LAW, 1.0)
