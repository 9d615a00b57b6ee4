"""Pressure laws, potentials, relative quantities, and the generator family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusionwave.errors import DomainError
from diffusionwave.thermo import PressureLaw, entropy_generator


class TestPressure:
    def test_quadratic_law(self):
        assert PressureLaw(1.0, 2.0).pressure(2.0) == (4.0, 4.0)

    def test_linear_law(self):
        assert PressureLaw(3.0, 1.0).pressure(5.0) == (15.0, 3.0)

    def test_vacuum_limit(self):
        assert PressureLaw(1.0, 2.0).pressure(0.0) == (0.0, 0.0)

    def test_vacuum_linear_slope(self):
        p, dp = PressureLaw(2.0, 1.0).pressure(0.0)
        assert (p, dp) == (0.0, 2.0)

    def test_negative_density_rejected(self):
        with pytest.raises(DomainError):
            PressureLaw(1.0, 2.0).pressure(-1.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(DomainError):
            PressureLaw(0.0, 2.0)
        with pytest.raises(DomainError):
            PressureLaw(1.0, 0.5)


class TestPotential:
    def test_quadratic(self):
        # h = k (z^gamma - z)/(gamma-1), h' = k (gamma z^(gamma-1) - 1)/(gamma-1)
        h, dh, d2h = PressureLaw(1.0, 2.0).potential(2.0)
        assert (h, dh, d2h) == (2.0, 3.0, 2.0)
        # z h' - h = p
        assert 2.0 * dh - h == 4.0

    def test_isothermal_at_e(self):
        h, dh, d2h = PressureLaw(1.0, 1.0).potential(math.e)
        assert h == pytest.approx(math.e, rel=1e-14)
        assert dh == pytest.approx(2.0, rel=1e-14)
        assert d2h == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_cubic(self):
        h, dh, d2h = PressureLaw(2.0, 3.0).potential(1.0)
        assert (h, dh, d2h) == (0.0, 2.0, 6.0)
        _, dp = PressureLaw(2.0, 3.0).pressure(1.0)
        assert 1.0 * d2h == dp

    def test_vacuum_allowed_above_one(self):
        # h'(0) = -k/(gamma-1) is finite exactly when gamma > 1
        h, dh, d2h = PressureLaw(1.0, 3.0).potential(0.0)
        assert (h, dh) == (0.0, -0.5)
        assert d2h == 0.0

    def test_vacuum_second_derivative_flags(self):
        assert PressureLaw(1.0, 2.0).potential(0.0)[2] == 2.0
        assert PressureLaw(1.0, 1.5).potential(0.0)[2] == math.inf

    def test_isothermal_vacuum_rejected(self):
        with pytest.raises(DomainError):
            PressureLaw(1.0, 1.0).potential(0.0)


class TestRelative:
    def test_quadratic_expands_to_square(self):
        h_rel, p_rel = PressureLaw(1.0, 2.0).relative(3.0, 1.0)
        assert (h_rel, p_rel) == (4.0, 4.0)

    def test_coincidence(self):
        assert PressureLaw(2.5, 1.7).relative(1.3, 1.3) == (0.0, 0.0)

    def test_isothermal(self):
        h_rel, p_rel = PressureLaw(1.0, 1.0).relative(math.e, 1.0)
        assert h_rel == pytest.approx(1.0, rel=1e-13)
        assert p_rel == pytest.approx(0.0, abs=1e-13)

    def test_isothermal_vacuum_reference_rejected(self):
        with pytest.raises(DomainError):
            PressureLaw(1.0, 1.0).relative(1.0, 0.0)

    def test_vacuum_reference_needs_admissible_law(self):
        # h(1|0) = h(1) = 1 for gamma = 2, k = 1: the identity that the
        # vacuum-admissibility inequality reads; gamma = 1 has no h'(0)
        assert PressureLaw(1.0, 2.0).relative(1.0, 0.0)[0] == pytest.approx(1.0)
        with pytest.raises(DomainError):
            PressureLaw(1.0, 1.0).relative(1.0, 0.0)

    def test_vacuum_state_against_positive_reference(self):
        # h(0|1) = h(0) - h(1) + h'(1) is finite for every gamma >= 1
        h_rel, _ = PressureLaw(1.0, 1.0).relative(0.0, 1.0)
        assert h_rel == pytest.approx(1.0, rel=1e-13)


class TestGenerator:
    def test_power_branch(self):
        assert entropy_generator(2, 3.0) == 2.0

    def test_unit_zero(self):
        assert entropy_generator(1, 1.0) == 0.0
        assert entropy_generator(0, 1.0) == 0.0
        assert entropy_generator(2.3, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_branch(self):
        assert entropy_generator(0.5, 4.0) == pytest.approx(2.0, rel=1e-14)

    def test_log_branches(self):
        z = 2.0
        assert entropy_generator(1, z) == pytest.approx(z * math.log(z) - z + 1)
        assert entropy_generator(0, z) == pytest.approx(z - math.log(z) - 1)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            entropy_generator(2, 0.0)

    def test_vacuum_admissibility(self):
        assert PressureLaw(1.0, 2.0).vacuum_admissible() == (True, 2.0)
        assert PressureLaw(1.0, 1.0).vacuum_admissible() == (False, None)
        assert PressureLaw(1.0, 1.5).vacuum_admissible() == (True, 1.5)


LAWS = [PressureLaw(1.0, 2.0), PressureLaw(0.5, 1.4),
        PressureLaw(2.0, 3.0), PressureLaw(1.0, 1.0)]


@pytest.mark.parametrize("law", LAWS, ids=lambda l: f"g{l.gamma}")
def test_potential_identities_sampled(law):
    z = np.logspace(-6, 3, 10000)
    p, dp = law.pressure(z)
    h, dh, d2h = law.potential(z)
    assert np.all(np.abs(z * dh - h - p) <= 1e-12 * np.maximum(1.0, p))
    assert np.all(np.abs(d2h - dp / z) <= 1e-12 * np.abs(dp / z))


@pytest.mark.parametrize("law", LAWS, ids=lambda l: f"g{l.gamma}")
def test_relative_nonnegative_sampled(law):
    rng = np.random.default_rng(1)
    rho = 10.0 ** rng.uniform(-3, 1, 10000)
    rho_bar = 10.0 ** rng.uniform(-3, 1, 10000)
    h_rel, p_rel = law.relative(rho, rho_bar)
    assert np.all(h_rel >= -1e-14)
    assert np.all(
        np.abs(p_rel - (law.gamma - 1.0) * h_rel)
        <= 1e-12 * np.maximum(1.0, np.abs(h_rel))
    )


@pytest.mark.parametrize("law", LAWS, ids=lambda l: f"g{l.gamma}")
def test_relative_matches_generator_form(law):
    rng = np.random.default_rng(2)
    rho = 10.0 ** rng.uniform(-2, 1, 10000)
    rho_bar = 10.0 ** rng.uniform(-2, 1, 10000)
    h_rel, _ = law.relative(rho, rho_bar)
    g = law.gamma
    other = g * law.k * entropy_generator(g, rho / rho_bar) * rho_bar**g
    assert np.all(np.abs(h_rel - other) <= 1e-12 * np.maximum(1.0, np.abs(h_rel)))


@pytest.mark.parametrize("law", LAWS, ids=lambda l: f"g{l.gamma}")
def test_relative_sqrt_lower_bound(law):
    rng = np.random.default_rng(3)
    rho = 10.0 ** rng.uniform(-3, 1, 10000)
    rho_bar = 10.0 ** rng.uniform(-3, 1, 10000)
    h_rel, _ = law.relative(rho, rho_bar)
    lower = law.k * rho_bar ** (law.gamma - 1.0) * (np.sqrt(rho) - np.sqrt(rho_bar)) ** 2
    assert np.all(h_rel >= lower - 1e-12 * np.maximum(1.0, lower))


@given(
    p=st.floats(min_value=1e-3, max_value=3.0),
    z=st.floats(min_value=1e-6, max_value=10.0),
)
@settings(max_examples=300)
def test_generator_lower_bound(p, z):
    lower = (math.sqrt(z) - 1.0) ** 2 / max(p, 1.0 - p)
    assert entropy_generator(p, z) >= lower - 1e-12 * max(1.0, lower)


@given(
    gamma=st.floats(min_value=1.01, max_value=3.0),
    rho=st.floats(min_value=1e-6, max_value=100.0),
)
@settings(max_examples=300)
def test_vacuum_reference_inequality(gamma, rho):
    law = PressureLaw(1.0, gamma)
    ok, c = law.vacuum_admissible()
    assert ok
    _, dh, _ = law.potential(rho)
    _, dh0, _ = law.potential(0.0)
    h_rel, _ = law.relative(rho, 0.0)
    assert rho * (dh - dh0) <= c * h_rel + 1e-12 * max(1.0, h_rel)


@pytest.mark.parametrize("dg", [1e-6, 1e-10, 2.0**-52])
def test_relative_near_isothermal(dg):
    # h(rho|rho_bar) = k rho_bar^g F(rho/rho_bar), F(r) = (r^g - g r + g - 1)/(g - 1),
    # evaluated in 50-digit arithmetic at the exact binary gamma
    mpmath = pytest.importorskip("mpmath")
    law = PressureLaw(1.5, 1.0 + dg)
    rho = np.array([2.0, 0.5, 1e-3, 40.0, 0.0])
    rho_bar = np.array([1.0, 3.0, 0.7, 0.02, 1.0])
    h_rel, p_rel = law.relative(rho, rho_bar)
    with mpmath.workdps(50):
        g = mpmath.mpf(law.gamma)
        for r, rb, got, got_p in zip(rho, rho_bar, h_rel, p_rel):
            x = mpmath.mpf(r) / mpmath.mpf(rb)
            exact = law.k * mpmath.mpf(rb) ** g * (x**g - g * x + g - 1) / (g - 1)
            assert got == pytest.approx(float(exact), rel=1e-12)
            # p_rel = (g - 1) h_rel is O(g - 1) here: it is formed from the
            # pressures themselves, so only an absolute bound on their scale holds
            scale = 1.0 + law.pressure(r)[0]
            assert got_p == pytest.approx(float((g - 1) * exact), abs=1e-14 * scale)


@given(
    z=st.floats(min_value=1e-5, max_value=1e3),
    gamma=st.floats(min_value=1.0, max_value=3.0),
    k=st.floats(min_value=1e-2, max_value=10.0),
)
@settings(max_examples=300)
def test_pressure_potential_link(z, gamma, k):
    law = PressureLaw(k, gamma)
    p, _ = law.pressure(z)
    h, dh, _ = law.potential(z)
    assert z * dh - h == pytest.approx(p, rel=1e-12, abs=1e-12)
