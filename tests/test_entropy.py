"""Relative entropy densities, residuals, identities, bounds."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from diffusionwave.entropy import (
    ReferencePair,
    _snapshot_pass,
    coercivity_constants,
    entropy_identity_residual,
    error_terms,
    exchange_identity_residual,
    relative_entropy_density,
    total_relative_entropy,
    xi_bound_check,
)
from diffusionwave.errors import DomainError, VacuumViolation
from diffusionwave.lab import ExperimentConfig, diagnose, plan, simulate
from diffusionwave.profile import LimitSpec, solve_profile
from diffusionwave.scaling import ScaledField, to_scaled
from diffusionwave.thermo import PressureLaw

LAW = PressureLaw(1.0, 2.0)


class TestDensity:
    def test_kinetic_only(self):
        eta = relative_entropy_density(0.0, 1.0, 1.0, 1.0, 0.0, LAW)
        assert eta == 0.5 and type(eta) is float

    def test_coincidence(self):
        assert relative_entropy_density(0.7, 1.3, 0.4, 1.3, 0.4, LAW) == 0.0

    def test_nonnegative_random(self):
        rng = np.random.default_rng(11)
        eta = relative_entropy_density(
            rng.uniform(0, 4), rng.uniform(0.01, 10, 10000),
            rng.uniform(-5, 5, 10000), rng.uniform(0.01, 10, 10000),
            rng.uniform(-5, 5, 10000), LAW,
        )
        assert np.all(eta >= -1e-14)


def _nodes(y):
    """The nodes of the grid y and one node beyond each end."""
    h = y[1] - y[0]
    return np.concatenate(([y[0] - h], y, [y[-1] + h]))


def _pair(y, rho, n):
    """The pair of the functions rho and n of y, at `_nodes(y)`."""
    return ReferencePair(y, rho(_nodes(y)), n(_nodes(y)))


def _constant(y, rho_bar):
    """The constant state rho_bar at rest, on the grid y."""
    return ReferencePair(y, np.full(y.size + 2, rho_bar), np.zeros(y.size + 2))


def _profile_pair(prof, y):
    """The profile's node values on the grid y, whose nodes, and one node
    beyond each end, are profile nodes a whole number of prof.dy apart."""
    step = round((y[1] - y[0]) / prof.dy)
    lo = round((y[0] - prof.y[0]) / prof.dy) - step
    run = slice(lo, lo + step * (y.size + 1) + 1, step)
    assert lo >= 0 and np.allclose(prof.y[run], _nodes(y), rtol=0, atol=1e-9)
    return ReferencePair(y, prof.rho_star[run], prof.n_star[run])


class TestTotals:
    def _grid_field(self, tau, y, rho, n):
        return ScaledField(tau, y, rho, n)

    def test_field_equals_reference(self):
        y = np.linspace(-2, 2, 101)
        ref = _constant(y, 1.0).eval(LAW)
        field = self._grid_field(0.0, y, np.ones_like(y), np.zeros_like(y))
        totals = total_relative_entropy(field, ref, 1.0, LAW)
        assert totals.E == 0.0 and totals.D_alpha == 0.0

    def test_indicator_deviation(self):
        # rho = 1, velocity deviation 1 on [0, 1): E = 0.5, D = alpha = 2
        dy = 0.01
        y = np.arange(-200, 201) * dy
        n = np.where((y >= 0) & (y < 1.0), 1.0, 0.0)
        field = self._grid_field(0.0, y, np.ones_like(y), n)
        ref = _constant(y, 1.0).eval(LAW)
        totals = total_relative_entropy(field, ref, 2.0, LAW)
        assert totals.E == pytest.approx(0.5, rel=1e-12)
        assert totals.D_alpha == pytest.approx(2.0, rel=1e-12)

    def test_additivity_under_support_doubling(self):
        dy = 0.01
        y = np.arange(-300, 301) * dy
        ref = _constant(y, 1.0).eval(LAW)
        out = []
        for width in (1.0, 2.0):
            n = np.where((y >= 0) & (y < width), 1.0, 0.0)
            field = self._grid_field(0.0, y, np.ones_like(y), n)
            out.append(total_relative_entropy(field, ref, 2.0, LAW))
        assert out[1].E == pytest.approx(2 * out[0].E, rel=1e-12)
        assert out[1].D_alpha == pytest.approx(2 * out[0].D_alpha, rel=1e-12)


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
        e1 = relative_entropy_density(tau, *args[0], *args[1], LAW)
        e2 = relative_entropy_density(tau, *args[0], *args[2], LAW)
        scale = np.maximum(1.0, np.abs(e1) + np.abs(e2))
        assert np.max(res / scale) <= 1e-12


@functools.cache
def _jump_profile_at(law):
    return solve_profile(LimitSpec(1.05, 0.95, 1.0), law, dy=0.02)


@pytest.fixture(scope="module")
def jump_profile():
    return _jump_profile_at(LAW)


class TestErrorTerms:
    def test_constant_reference_all_zero(self):
        y = np.linspace(-4, 4, 201)
        rng = np.random.default_rng(14)
        field = ScaledField(0.5, y, rng.uniform(0.5, 2, y.size),
                            rng.uniform(-1, 1, y.size))
        ref = _constant(y, 1.3).eval(LAW)
        terms = error_terms(field, ref, 0.5, 1.0, LAW)
        for arr in (terms.R1, terms.R2, terms.xi1, terms.xi2, terms.xi3):
            assert np.all(arr == 0.0)
        assert terms.Xi == (0.0, 0.0, 0.0)

    def test_profile_reference(self, jump_profile):
        # R1 vanishes up to the difference of the two discrete derivative
        # stencils; the exponentially weighted bracket in R2 cancels exactly,
        # leaving the profile residual field
        prof = jump_profile
        y = np.linspace(-8.0, 8.0, 801)
        ref = _profile_pair(prof, y).eval(LAW)
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

        # a smooth step at rest: only the transport and pressure terms remain
        step = _pair(y, lambda y: 1.0 - 0.05 * np.tanh(y), np.zeros_like)
        data = step.eval(LAW)
        terms = error_terms(field, data, tau, alpha, LAW)
        h = y[1] - y[0]
        assert np.array_equal(data.rho_y, (step.rho[2:] - step.rho[:-2]) / (2 * h))
        assert np.all(data.n_y == 0.0) and np.any(data.rho_y != 0)
        assert np.array_equal(terms.R1, -0.5 * y * data.rho_y)
        assert np.array_equal(terms.R2, np.exp(tau) * data.p_y)

        # constant density with constant momentum n0: R1 = 0 and
        # R2 = (alpha e^tau - 1/2) n0, derivatives by centered differences
        rho0, n0 = 1.3, 0.5
        ref = _pair(y, lambda y: np.full_like(y, rho0),
                    lambda y: np.full_like(y, n0)).eval(LAW)
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

    def test_profile_pair_not_a_solution(self):
        # inserting the steady profile leaves a nonzero, h-stable residual;
        # at dy = 0.01, 0.5 -+ 0.01 and 0.5 -+ 0.02 are nodes
        prof = solve_profile(LimitSpec(1.05, 0.95, 1.0), LAW, dy=0.01)

        def node(values, y):
            i = round((y - prof.y[0]) / prof.dy)
            assert abs(prof.y[i] - y) <= 1e-9
            return float(values[i])

        class Field:
            def rho(self, tau, y):
                return node(prof.rho_star, y)

            def n(self, tau, y):
                return node(prof.n_star, y)

        vals = [entropy_identity_residual(Field(), 1.0, 0.5, 1.0, LAW, h)
                for h in (0.02, 0.01)]
        assert abs(vals[1]) > 1e-4
        assert vals[0] == pytest.approx(vals[1], rel=0.2)


class TestXiBounds:
    def test_state_equals_reference(self, jump_profile):
        prof = jump_profile
        y = np.linspace(-6, 6, 301)
        ref = _profile_pair(prof, y).eval(LAW)
        snap = error_terms(ScaledField(1.0, y, ref.rho, ref.n), ref, 1.0, 1.0, LAW)
        assert xi_bound_check(snap, 1.0, ref, LAW) == 0

    def test_random_states(self, jump_profile):
        prof = jump_profile
        rng = np.random.default_rng(17)
        y = np.linspace(-6, 6, 301)
        ref = _profile_pair(prof, y).eval(LAW)
        snapshot, violations = _snapshot_pass(ref, 1.0, LAW), 0
        for _ in range(20):
            tau = rng.uniform(0, 4)
            fld = ScaledField(tau, y, rng.uniform(0.2, 3, y.size), rng.uniform(-2, 2, y.size))
            violations += xi_bound_check(snapshot(fld), tau, ref, LAW)
        assert violations == 0

    def test_field_on_another_grid_rejected(self, jump_profile):
        # same length and spacing as the reference's grid, other nodes
        prof = jump_profile
        y = np.linspace(-6, 6, 301)
        ref = _profile_pair(prof, y).eval(LAW)
        moved = y + 0.01
        rho, n = np.ones_like(y), np.zeros_like(y)
        field = ScaledField(1.0, moved, rho, n)
        for call in (lambda: total_relative_entropy(field, ref, 1.0, LAW),
                     lambda: error_terms(field, ref, 1.0, 1.0, LAW)):
            with pytest.raises(DomainError, match="y-grid"):
                call()


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
        eta = relative_entropy_density(tau, rho, n, rho_bar, 0.0, LAW)
        lower = cc.lower_bound(tau, rho, n, rho_bar, LAW.gamma)
        assert np.all(eta >= lower - 1e-12 * np.maximum(1.0, lower))


class TestSteadyReferenceMemo:
    """A reference evaluated once: a read-only RefData for every snapshot."""

    def test_reference_thermodynamics_once_per_grid(self, monkeypatch, jump_profile):
        # h, h', h'', p and p' of rho_bar come from eval, with one potential
        # call per grid and one (p, p') pass on its nodes, and the snapshot
        # totals keep the bits of the public formulas
        prof = jump_profile
        calls, pass_calls = [], []

        def counting(name, log):
            original = getattr(PressureLaw, name)

            def counted(self, rho_bar, *args):
                log.append(np.size(rho_bar))
                return original(self, rho_bar, *args)
            monkeypatch.setattr(PressureLaw, name, counted)

        counting("potential", calls)
        counting("_p_dp", pass_calls)
        y = np.linspace(-4, 4, 201)
        data = _profile_pair(prof, y).eval(LAW)
        rng = np.random.default_rng(23)
        fields = [ScaledField(tau, y, rng.uniform(0.8, 1.2, y.size),
                              rng.uniform(-0.1, 0.1, y.size)) for tau in (0.1, 0.7, 2.5)]
        results = [(total_relative_entropy(fld, data, 1.0, LAW),
                    error_terms(fld, data, fld.tau, 1.0, LAW)) for fld in fields]
        assert calls == [y.size] and pass_calls == [y.size + 2]

        h, dh, d2h = LAW.potential(data.rho)
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip((data.h, data.dh, data.d2h, *data.thermo[2:]),
                       (h, dh, d2h, *LAW.pressure(data.rho))))
        for fld, (totals, terms) in zip(fields, results):
            eta = relative_entropy_density(fld.tau, fld.rho, fld.n, data.rho, data.n, LAW)
            assert totals.E == float(np.sum(eta) * fld.dy)
            _, p_rel = LAW.relative(fld.rho, data.rho)
            du = fld.n / fld.rho - data.u
            xi1 = -data.u_y * (np.exp(-fld.tau) * fld.rho * du * du + p_rel)
            assert terms.xi1.tobytes() == xi1.tobytes()

    def test_ref_data_is_read_only(self, jump_profile):
        prof = jump_profile
        y = np.linspace(-4, 4, 201)
        for ref in (_profile_pair(prof, y), _constant(y, 1.1)):
            data = ref.eval(LAW)
            for name in ("y", "rho", "n", "rho_y", "n_y", "p_y",
                         "u", "u_y", "h", "dh", "d2h", "p", "dp"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(data, name)[0] = 7.0
            with pytest.raises(AttributeError):
                data.rho = np.zeros_like(y)
            assert data.rho[0] != 7.0 and y.flags.writeable

    def test_read_only_views_leave_caller_arrays_writable(self):
        base = np.full(43, 1.5)
        data = ReferencePair(np.linspace(-1, 1, 41), base, np.zeros(43)).eval(LAW)
        assert not data.rho.flags.writeable
        base[1] = 2.0  # the pair's own array stays writable
        assert data.rho[0] == 2.0

    def test_vacuum_reference(self):
        # a reference density that is not > 0, at a node of the grid or one
        # beyond it, is refused, and so is it by the relative entropy density
        y = np.linspace(-2, 2, 81)
        for i, rho_bar in ((0, 0.0), (40, 0.0), (82, -1.0)):
            pair = _constant(y, 1.0)
            pair.rho[i] = rho_bar
            with pytest.raises(DomainError, match="reference density must be positive"):
                pair.eval(LAW)
        with pytest.raises(DomainError, match="reference density must be positive"):
            relative_entropy_density(0.0, 1.0, 0.0, 0.0, 0.0, LAW)


def _separate_formulas(fld, ref, alpha, law):
    """The snapshot diagnostics as the separate relative-entropy, residual
    and xi formulas, each term recomputed from scratch: the reference that
    the one-pass diagnostics must reproduce bit for bit.  Returns
    (E, D_alpha, (Xi1, Xi2, Xi3), R1, R2)."""
    rho, n, tau, y, dy = fld.rho, fld.n, fld.tau, fld.y, fld.dy
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(rho > 0, n / np.where(rho > 0, rho, 1.0), 0.0)
        ratio = np.where(ref.rho > 0, rho / np.where(ref.rho > 0, ref.rho, 1.0), 0.0)
    du = u - ref.u
    h_rel = law.potential(rho)[0] - ref.h - ref.dh * (rho - ref.rho)
    p_rel = law.pressure(rho)[0] - ref.p - ref.dp * (rho - ref.rho)
    # e^{-+tau} by libm, as the pass takes them
    exp_m = math.exp(-tau)
    eta_rel = 0.5 * exp_m * rho * du * du + h_rel
    diss = alpha * rho * du * du
    R1 = -0.5 * y * ref.rho_y + ref.n_y
    nsq_y = 2.0 * ref.u * ref.n_y - ref.u * ref.u * ref.rho_y
    R2 = (-0.5 * y * ref.n_y - 0.5 * ref.n + nsq_y
          + math.exp(tau) * (ref.p_y + alpha * ref.n))
    xi1 = -ref.u_y * (exp_m * rho * du * du + p_rel)
    xi2 = exp_m * (ref.u * R1 - R2) * ratio * du
    xi3 = -(rho - ref.rho) * ref.d2h * R1
    Xi = tuple(float(np.sum(v) * dy) for v in (xi1, xi2, xi3))
    return float(np.sum(eta_rel) * dy), float(np.sum(diss) * dy), Xi, R1, R2


_TOY = dict(alpha=1.3, amplitude=0.1, X=8.0, dx=0.1,
            L_y=4.0, dy=0.05, tau_max=0.5, tau_step=0.125)
# every branch of thermo._log_ratio: log z, expm1 below gamma = 2, the power
# above; k = 1.3 off gamma = 2, so that a product by k taken in another order shows
_LAWS = tuple(PressureLaw(1.0 if gamma == 2.0 else 1.3, gamma) for gamma in (1.0, 1.4, 2.0, 3.0))


class TestOnePass:
    """One pass per snapshot keeps the bits of the separate formulas."""

    @pytest.mark.parametrize("limits, law", [
        (limits, law) for limits in ((1.0, 1.0), (1.05, 0.95)) for law in _LAWS],
        ids=[name + ("" if law == LAW else f"-gamma={law.gamma:g}")
             for name in ("coincident", "jump") for law in _LAWS])
    def test_diagnose_matches_the_separate_formulas(self, limits, law):
        cfg = ExperimentConfig(rho_minus=limits[0], rho_plus=limits[1], gamma=law.gamma,
                               k=law.k, **_TOY)
        p = plan(cfg)
        report = diagnose(p, simulate(p))
        ref = p.ref
        Xi = np.column_stack([report.Xi1, report.Xi2, report.Xi3])
        for j, snap in enumerate(report.run_result.snapshots):
            fld = to_scaled(snap, ref.y)
            E, D, xi, _, _ = _separate_formulas(fld, ref, cfg.alpha, law)
            assert (report.E[j], report.D_alpha[j], tuple(Xi[j])) == (E, D, xi), j
        # nothing trivial: the xi terms vanish against the constant state only
        assert np.all(report.E > 0) and np.any(report.D_alpha > 0)
        assert np.any(Xi != 0) != p.limits.same_limits

    @pytest.mark.parametrize("law", _LAWS, ids=lambda law: f"gamma={law.gamma:g}")
    def test_public_entry_points_match_the_separate_formulas(self, law):
        # a random positive field, near vacuum on some nodes
        y = np.linspace(-4, 4, 201)
        ref = _profile_pair(_jump_profile_at(law), y).eval(law)
        rng = np.random.default_rng(31)
        rho = rng.uniform(0.8, 1.2, y.size)
        n = rng.uniform(-0.1, 0.1, y.size)
        rho[40:50] = 10.0 ** rng.uniform(-12, -3, 10)
        n[40:50] *= rho[40:50]
        for tau, alpha in ((0.0, 1.0), (0.9, 0.7), (3.1, 2.0)):
            fld = ScaledField(tau, y, rho, n)
            E, D, Xi, _, _ = _separate_formulas(fld, ref, alpha, law)
            totals = total_relative_entropy(fld, ref, alpha, law)
            assert (totals.E, totals.D_alpha) == (E, D)
            assert error_terms(fld, ref, tau, alpha, law).Xi == Xi

    def test_a_record_outlives_the_next_call(self, jump_profile):
        # the pass writes its temporaries into its own buffers, never into
        # the arrays of a record it returned
        y = np.linspace(-4, 4, 201)
        snapshot = _snapshot_pass(_profile_pair(jump_profile, y).eval(LAW), 1.0, LAW)
        rng = np.random.default_rng(5)
        first, second = (
            ScaledField(tau, y, rng.uniform(0.8, 1.2, y.size), rng.uniform(-0.1, 0.1, y.size))
            for tau in (0.3, 1.7))
        record = snapshot(first)
        names = [f.name for f in dataclasses.fields(record)]
        kept = {name: np.asarray(getattr(record, name)).tobytes() for name in names}
        later = snapshot(second)
        for name in names:
            assert np.asarray(getattr(record, name)).tobytes() == kept[name], name
        assert later.E != record.E and later.Xi != record.Xi
        for name in ("eta_rel", "h_rel", "R2", "R_bar", "xi1", "xi2", "xi3"):
            assert not np.shares_memory(getattr(record, name), getattr(later, name)), name

    def test_momentum_at_vacuum_raises(self, jump_profile):
        prof = jump_profile
        y = np.linspace(-4, 4, 201)
        ref = _profile_pair(prof, y).eval(LAW)
        rho, n = np.ones_like(y), np.zeros_like(y)
        rho[80], n[80] = 0.0, 0.01
        fld = ScaledField(0.5, y, rho, n)
        for call in (lambda: total_relative_entropy(fld, ref, 1.0, LAW),
                     lambda: error_terms(fld, ref, 0.5, 1.0, LAW)):
            with pytest.raises(VacuumViolation):
                call()
        # and a zero density at rest, or a negative one, is a DomainError
        for bad in (0.0, -1e-3):
            rho[80], n[80] = bad, 0.0
            for call in (lambda: total_relative_entropy(fld, ref, 1.0, LAW),
                         lambda: error_terms(fld, ref, 0.5, 1.0, LAW)):
                with pytest.raises(DomainError, match="density must be positive"):
                    call()

    def test_hoisted_residuals_match_the_unhoisted_formula(self, jump_profile):
        # R1 and the steady part of R2 come from the RefData; R2 at tau adds
        # e^tau (p_y + alpha n) and keeps the bits of the one-line formula
        prof = jump_profile
        y = np.linspace(-4, 4, 201)
        moving = _pair(y, lambda z: 1.0 - 0.05 * np.tanh(z),
                       lambda z: 0.1 * np.exp(-z * z))
        fld = ScaledField(0.0, y, np.ones_like(y), np.zeros_like(y))
        for pair in (_profile_pair(prof, y), moving):
            ref = pair.eval(LAW)
            assert np.any(ref.n != 0) and np.any(ref.R2_steady != 0)
            for tau, alpha in ((0.0, 1.0), (0.37, 0.5), (1.7, 1.0), (4.0, 2.5)):
                terms = error_terms(fld, ref, tau, alpha, LAW)
                *_, R1, R2 = _separate_formulas(
                    ScaledField(tau, y, fld.rho, fld.n), ref, alpha, LAW)
                assert terms.R1.tobytes() == R1.tobytes()
                assert terms.R2.tobytes() == R2.tobytes()
