"""Barotropic pressure laws and the thermodynamic potentials they induce.

A law p(z) = k z^gamma comes with an internal-energy potential h linked to it
through p = z h' - h and h'' = p'/z.  These fix h only up to a multiple of z;
the package uses h = k (z^gamma - z)/(gamma-1), which tends to k z log z as
gamma -> 1, so one formula covers every gamma >= 1 without the 1/(gamma-1)
blow-up of k z^gamma/(gamma-1).  Relative (Bregman) versions of p and h do not
see the choice and are the basic bricks of every entropy diagnostic here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["PressureLaw", "entropy_generator"]


@dataclass(frozen=True)
class PressureLaw:
    """gamma-law pressure p(z) = k z^gamma with k > 0 and gamma >= 1."""

    k: float
    gamma: float

    def __post_init__(self):
        if not self.k > 0:
            raise DomainError(f"pressure coefficient must be positive, got k={self.k}")
        if not self.gamma >= 1:
            raise DomainError(f"adiabatic exponent must be >= 1, got gamma={self.gamma}")

    # -- pressure -----------------------------------------------------------

    def pressure(self, z):
        """Return (p, p') at density z >= 0.

        At z = 0: p = 0 and p' = 0 for gamma > 1, p' = k for gamma = 1.
        """
        z = np.asarray(z, dtype=float)
        if np.any(z < 0):
            raise DomainError("density must be nonnegative")
        p, dp = self._p_dp(z)
        if p.ndim == 0:
            return float(p), float(dp)
        return p, dp

    def _p_dp(self, z, out=(None, None)):
        """(p, p') at a float array z >= 0, into out if given; no domain check.

        One formula for every gamma >= 1: z^(gamma-1) at z = 0 is 0 for
        gamma > 1 and 1 for gamma = 1, so p'(0) is 0 and k respectively.
        """
        return self._p(z, out[0]), self._dp(z, out[1])

    def _p(self, z, out=None):
        """p alone, as `_p_dp` computes it."""
        return np.multiply(np.power(z, self.gamma, out=out), self.k, out=out)

    def _dp(self, z, out=None):
        """p' alone, as `_p_dp` computes it."""
        return np.multiply(np.power(z, self.gamma - 1, out=out), self.k * self.gamma, out=out)

    # -- potential ----------------------------------------------------------

    def potential(self, z):
        """Return (h, h', h'') at density z.

        h = k z L(z) and h' = k (gamma L(z) + 1) with
        L(z) = (z^(gamma-1) - 1)/(gamma-1), read as log z at gamma = 1.
        h'' = k gamma z^(gamma-2) is one power formula, at z = 0 too, where it
        reads inf for gamma < 2, k gamma for gamma = 2 and 0 above.  z = 0 is
        allowed for gamma > 1 (h = 0, h' = -k/(gamma-1)); gamma = 1 needs z > 0.
        """
        z = np.asarray(z, dtype=float)
        if np.any(z < 0):
            raise DomainError("density must be nonnegative")
        k, g = self.k, self.gamma
        if g == 1.0 and np.any(z == 0):
            raise DomainError("h'(z) diverges at z = 0 for gamma = 1")
        lr = _log_ratio(z, g)
        h = k * z * lr
        dh = k * (g * lr + 1.0)
        with np.errstate(divide="ignore"):
            d2h = k * g * z ** (g - 2)
        if h.ndim == 0:
            return float(h), float(dh), float(d2h)
        return h, dh, d2h

    # -- relative quantities ------------------------------------------------

    def relative(self, rho, rho_bar):
        """Bregman distances (h_rel, p_rel) of rho from the reference rho_bar.

        h_rel = h(rho) - h(rho_bar) - h'(rho_bar)(rho - rho_bar) >= 0, and
        analogously for the pressure; for gamma-laws p_rel = (gamma-1) h_rel.
        A vacuum reference rho_bar = 0 is only admissible for gamma > 1.
        """
        rho = np.asarray(rho, dtype=float)
        rho_bar = np.asarray(rho_bar, dtype=float)
        if np.any(rho < 0):
            raise DomainError("densities must be nonnegative")
        h_rel, p_rel = self._relative(rho, rho - rho_bar, self._reference(rho_bar))
        if h_rel.ndim == 0:
            return float(h_rel), float(p_rel)
        return h_rel, p_rel

    def _reference(self, rho_bar):
        """(h, h', p, p') at a float array rho_bar >= 0, the terms `_relative`
        takes; `potential` refuses rho_bar = 0 at gamma = 1, where h' diverges."""
        h, dh, _ = self.potential(rho_bar)
        p, dp = self._p_dp(rho_bar)
        return h, dh, p, dp

    def _relative(self, rho, drho, reference, out=(None, None, None)):
        """(h_rel, p_rel) of the float array rho >= 0 (unchecked) against
        rho_bar, given drho = rho - rho_bar and the `_reference` terms; into
        out = (h_rel, p_rel, work) if given, work a scratch array."""
        hb, dhb, pb, dpb = reference
        h_out, p_out, work = out
        h_rel = np.subtract(self._h_value(rho, h_out, work), hb, h_out)
        h_rel -= np.multiply(dhb, drho, work)
        p_rel = np.subtract(self._p(rho, p_out), pb, p_out)
        p_rel -= np.multiply(dpb, drho, work)
        return h_rel, p_rel

    def _h_value(self, z, out=None, work=None):
        """h alone, into out if given, with work a scratch array; the limit
        value h(0) = 0 is taken for gamma = 1 as well."""
        z = np.asarray(z, dtype=float)
        h = np.multiply(z, self.k, out)
        if self.gamma != 1.0:
            h *= _log_ratio(z, self.gamma, work)
            return h
        with np.errstate(divide="ignore", invalid="ignore"):
            h *= _log_ratio(z, 1.0, work)
        h = np.asarray(h)
        np.copyto(h, 0.0, where=~(z > 0))
        return h

    # -- vacuum admissibility ----------------------------------------------

    def vacuum_admissible(self):
        """Whether relative quantities against rho_bar = 0 are defined.

        Returns (ok, c) where c is the least constant with p'(z) <= c p(z)/z;
        for gamma-laws that constant is gamma, and admissibility holds exactly
        for gamma > 1 (the integral of p/z^2 near zero diverges for gamma = 1).
        """
        if self.gamma > 1.0:
            return True, self.gamma
        return False, None


def _log_ratio(z, g, out=None):
    """(z^(g-1) - 1)/(g-1), read as log z at g = 1, into out if given.

    For g >= 2 the power is used as it stands: dividing by g - 1 >= 1 loses
    nothing, and exact powers stay exact.  Below that the difference goes
    through expm1((g-1) log z), so nothing cancels as g -> 1.
    """
    if g >= 2.0:
        r = np.power(z, g - 1.0, out)
        r -= 1.0
    else:
        with np.errstate(divide="ignore"):
            r = np.log(z, out)
        if g == 1.0:
            return r
        r *= g - 1.0
        r = np.expm1(r, out)
    r /= g - 1.0
    return r


def entropy_generator(exponent, z):
    """Convex generator F_p with F_p''(z) = z^(p-2) and F_p(1) = F_p'(1) = 0.

    Three branches: power form for p outside {0, 1}, z log z - z + 1 for
    p = 1, and z - log z - 1 for p = 0.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("entropy generator requires z > 0")
    p = float(exponent)
    if p == 1.0:
        out = z * np.log(z) - z + 1.0
    elif p == 0.0:
        out = z - np.log(z) - 1.0
    else:
        out = (z**p - p * z + p - 1.0) / (p * (p - 1.0))
    if out.ndim == 0:
        return float(out)
    return out
