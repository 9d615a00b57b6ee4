"""Transforms between physical and parabolic scaling variables."""

import numpy as np
import pytest

from diffusionwave.dynamics import PhysicalState
from diffusionwave.errors import DomainError
from diffusionwave.scaling import to_scaled


def _state(t=0.0, n=401, X=10.0, rho=None, m=None):
    x = np.linspace(-X, X, n)
    rho = np.full(n, 1.0) if rho is None else rho
    m = np.zeros(n) if m is None else m
    return PhysicalState(x, rho, m, t)


class TestToScaled:
    def test_time_map(self):
        field = to_scaled(_state(t=3.0), np.linspace(-2.0, 2.0, 5))
        assert field.tau == pytest.approx(np.log(4.0))

    def test_momentum_rescaling(self):
        state = _state(t=3.0, m=np.full(401, 0.5))
        field = to_scaled(state, np.linspace(-2.0, 2.0, 5))
        assert np.allclose(field.n, 1.0)

    def test_identity_at_t0(self):
        x = np.linspace(-5.0, 5.0, 101)
        rho = 1.0 + 0.1 * np.sin(x)
        m = 0.2 * np.cos(x)
        state = PhysicalState(x, rho, m, 0.0)
        field = to_scaled(state, x)
        assert field.tau == 0.0
        assert np.allclose(field.rho, rho, atol=1e-14)
        assert np.allclose(field.n, m, atol=1e-14)

    def test_sampling_position(self):
        # at t=3 the node y=2 samples the physical point x=4
        x = np.linspace(-10.0, 10.0, 2001)
        state = PhysicalState(x, 1.0 + 0.1 * np.tanh(x), np.zeros_like(x), 3.0)
        field = to_scaled(state, np.array([0.0, 2.0]))
        assert field.rho[1] == pytest.approx(1.0 + 0.1 * np.tanh(4.0), abs=1e-6)

    def test_window_guard(self):
        with pytest.raises(DomainError):
            to_scaled(_state(t=3.0, X=5.0), np.linspace(-4.0, 4.0, 9))

    def test_window_guard_left_edge(self):
        # cells of [0, 10] cannot hold y in [-4, 4]: np.interp would clamp
        # every y < 0 to rho[0]
        x = np.arange(0.05, 10.0, 0.1)
        state = PhysicalState(x, 1.0 + 0.01 * x, np.zeros_like(x), 0.0)
        with pytest.raises(DomainError, match="exceeds the physical domain"):
            to_scaled(state, np.linspace(-4.0, 4.0, 81))

    def test_window_guard_edges_with_slack(self):
        # each edge is checked on its own, up to a relative 1e-12
        x = np.arange(-1.95, 10.0, 0.1)  # cells of [-2, 10]
        state = PhysicalState(x, np.ones_like(x), np.zeros_like(x), 0.0)
        left, right = x[0] - state.dx / 2, x[-1] + state.dx / 2
        for y in ([left, 0.0, right], [left * (1 - 1e-13), right * (1 + 1e-13)]):
            assert to_scaled(state, np.array(y)).rho.size == len(y)
        for y in ([left * (1 + 1e-11), right], [left, right * (1 + 1e-11)]):
            with pytest.raises(DomainError):
                to_scaled(state, np.array(y))


class TestRoundTrip:
    def test_aligned_grids_exact(self):
        # y-nodes that map onto the cell centres sample rho and
        # sqrt(1+t) m exactly, without interpolation error
        t = 3.0
        y = np.linspace(-4.0, 4.0, 81)
        x = y * np.sqrt(1.0 + t)
        rho = 1.0 + 0.2 * np.exp(-(x**2) / 4)
        m = 0.1 * np.exp(-(x**2) / 4)
        field = to_scaled(PhysicalState(x, rho, m, t), y)
        assert np.array_equal(field.rho, rho)
        assert np.array_equal(field.n, np.sqrt(1.0 + t) * m)

    def test_mass_consistency(self):
        # integral of rho over y = (1+t)^{-1/2} integral of rho over x
        t = 3.0
        x = np.linspace(-40.0, 40.0, 8001)
        rho = 1.0 + 0.3 * np.exp(-(x**2) / 8)
        state = PhysicalState(x, rho, np.zeros_like(x), t)
        y = np.linspace(-20.0, 20.0, 4001)
        field = to_scaled(state, y)
        lhs = np.trapezoid(field.rho, y)
        stretch = np.sqrt(1.0 + t)
        sel = np.abs(x) <= 20.0 * stretch
        rhs = np.trapezoid(rho[sel], x[sel]) / stretch
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_interpolation_stays_in_range(self):
        rng = np.random.default_rng(5)
        x = np.linspace(-10.0, 10.0, 201)
        rho = rng.uniform(0.5, 2.0, x.size)
        state = PhysicalState(x, rho, np.zeros_like(x), 1.5)
        field = to_scaled(state, np.linspace(-6.0, 6.0, 301))
        assert field.rho.min() >= rho.min() - 1e-14
        assert field.rho.max() <= rho.max() + 1e-14
