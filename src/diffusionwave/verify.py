"""End-to-end verification suite: one check per acceptance criterion.

Each check returns a CheckResult with a pass flag and a human-readable
detail line.  The simulation runs are built from the acceptance configs
shipped in the package's `configs/` and cached so the envelope,
dissipation, audit, and inequality checks share them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from importlib.resources import files

import numpy as np

from .dynamics import PhysicalState, SolverConfig, run
from .entropy import (
    coercivity_constants,
    entropy_identity_residual,
    exchange_identity_residual,
    relative_entropy_density,
    xi_bound_check,
)
from .lab import dissipation_check, envelope_check, parse_config, plan, run_experiment
from .profile import LimitSpec, _ode_residual, solve_profile
from .scaling import ScaledField
from .thermo import PressureLaw, entropy_generator

__all__ = ["CheckResult", "ALL_CHECKS", "run_all"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# cached shared runs

# the coarse partner of each acceptance run, for the discrete-inequality check
_COARSE = dict(dx=0.04, dy=0.04, tau_step=0.2)


def _config(name):
    """The shipped acceptance config `name` ("jump" or "coincident")."""
    return parse_config(files("diffusionwave") / "configs" / f"{name}.cfg")


@lru_cache(maxsize=None)
def _report(name, **overrides):
    """The report of the shipped config `name`, with the given fields replaced."""
    return run_experiment(replace(_config(name), **overrides))


@lru_cache(maxsize=None)
def _plan(name):
    """The plan of the shipped config `name`: its profile, limits, law and
    reference, as the pipeline builds them."""
    return plan(_config(name))


# ---------------------------------------------------------------------------
# criteria 1-4: lab's envelope and dissipation rules on the acceptance runs


def _envelope(name, label):
    return CheckResult(f"{label} entropy decay envelope", *envelope_check(_report(name)))


def _dissipation(name, label):
    return CheckResult(f"{label} dissipation tail bound", *dissipation_check(_report(name)))


def check_coincident_envelope(): return _envelope("coincident", "coincident-limit")
def check_coincident_dissipation(): return _dissipation("coincident", "coincident-limit")
def check_jump_envelope(): return _envelope("jump", "jump-case")
def check_jump_dissipation(): return _dissipation("jump", "jump-case")


# ---------------------------------------------------------------------------
# criterion 5: profile suite


def check_profile_suite():
    jump = _plan("jump")
    prof, limits, law = jump.profile, jump.limits, jump.law
    msgs, ok = [], True

    # Darcy residual at interior nodes
    p, _ = law.pressure(prof.rho_star)
    darcy = limits.alpha * prof.n_star[1:-1] + (p[2:] - p[:-2]) / (2 * prof.dy)
    dmax = float(np.max(np.abs(darcy)))
    ok &= dmax <= 1e-8
    msgs.append(f"Darcy residual {dmax:.1e}")

    # monotonicity and range
    mono = bool(np.all(np.diff(prof.rho_star) <= 0))
    rng_ok = bool(np.min(prof.rho_star) >= limits.rho_plus
                  and np.max(prof.rho_star) <= limits.rho_minus)
    ok &= mono and rng_ok
    msgs.append(f"monotone={mono}, in-range={rng_ok}")

    # second-order ODE residual: every 8th and 4th node of a fine solution
    # on [-14, 14]
    fine = solve_profile(LimitSpec(1.2, 0.8, 1.0), law, L=20.0, dy=0.01)
    on = np.abs(fine.y) <= 14.0 + fine.dy / 2
    norms = []
    for step in (8, 4):
        y = fine.y[on][::step]
        r = _ode_residual(fine.rho_star[on][::step], y, step * fine.dy, law, 1.0)
        inner = np.abs(y) <= 10.0
        norms.append(float(np.max(np.abs(r[1:-1][inner[1:-1]]))))
    factor = norms[0] / norms[1]
    ok &= 3.0 <= factor <= 5.0
    msgs.append(f"residual refinement factor {factor:.2f}")

    # alpha-scaling of the flatness constants
    limits2 = dict(rho_minus=1.2, rho_plus=0.8)
    thetas, mus, ks = [], [], []
    for alpha in (0.5, 1.0, 2.0, 4.0):
        s = np.sqrt(alpha)
        p_a = solve_profile(LimitSpec(alpha=alpha, **limits2), law,
                            L=20.0 / s, dy=0.02 / s)
        thetas.append(p_a.theta)
        mus.append(p_a.mu * s)
        ks.append(p_a.K_const * alpha)
    spread = lambda v: max(v) / min(v) - 1.0
    s_th, s_mu, s_k = spread(thetas), spread(mus), spread(ks)
    ok &= s_th <= 0.01 and s_mu <= 0.02 and s_k <= 0.02
    msgs.append(
        f"alpha-scaling spreads: theta {s_th:.2e}, mu*sqrt(alpha) {s_mu:.2e}, "
        f"K*alpha {s_k:.2e}"
    )
    return CheckResult("similarity-profile suite", bool(ok), "; ".join(msgs))


# ---------------------------------------------------------------------------
# criterion 6: algebraic identities at rounding level


def check_algebraic_identities():
    rng = np.random.default_rng(20260825)
    laws = [PressureLaw(1.0, 2.0), PressureLaw(0.5, 1.4),
            PressureLaw(2.0, 3.0), PressureLaw(1.0, 1.0)]
    n_per = 25000
    worst = 0.0
    for law in laws:
        z = 10.0 ** rng.uniform(-6, 3, n_per)
        p, dp = law.pressure(z)
        h, dh, d2h = law.potential(z)
        r1 = np.abs(z * dh - h - p) / np.maximum(1.0, np.abs(p))
        r2 = np.abs(d2h - dp / z) / np.maximum(1.0, np.abs(dp / z))
        worst = max(worst, float(np.max(r1)), float(np.max(r2)))

        rho = 10.0 ** rng.uniform(-3, 1, n_per)
        rho_bar = 10.0 ** rng.uniform(-3, 1, n_per)
        h_rel, p_rel = law.relative(rho, rho_bar)
        scale = np.maximum(1.0, np.abs(h_rel))
        r3 = np.abs(p_rel - (law.gamma - 1.0) * h_rel) / scale
        r4 = np.abs(
            h_rel
            - law.gamma * law.k * entropy_generator(law.gamma, rho / rho_bar)
            * rho_bar**law.gamma
        ) / scale
        worst = max(worst, float(np.max(r3)), float(np.max(r4)))

    law = PressureLaw(1.0, 2.0)
    N = 100000
    rho = rng.uniform(0.1, 10.0, N)
    n = rng.uniform(-5.0, 5.0, N)
    rho1 = rng.uniform(0.1, 10.0, N)
    n1 = rng.uniform(-5.0, 5.0, N)
    rho2 = rng.uniform(0.1, 10.0, N)
    n2 = rng.uniform(-5.0, 5.0, N)
    tau = rng.uniform(0.0, 4.0)
    res = exchange_identity_residual(tau, (rho, n), (rho1, n1), (rho2, n2), law)
    e1 = relative_entropy_density(tau, rho, n, rho1, n1, law)
    e2 = relative_entropy_density(tau, rho, n, rho2, n2, law)
    scale = np.maximum(1.0, np.abs(e1) + np.abs(e2))
    worst = max(worst, float(np.max(res / scale)))

    return CheckResult(
        "algebraic identity suite", worst <= 1e-12,
        f"worst relative residual {worst:.2e} over 10^5 samples per identity",
    )


# ---------------------------------------------------------------------------
# criterion 7: inequality properties


def check_inequality_suite():
    rng = np.random.default_rng(7)
    msgs, ok = [], True

    # Bregman lower bound by the squared square-root difference
    law = PressureLaw(1.3, 1.7)
    rho = 10.0 ** rng.uniform(-3, 1, 100000)
    rho_bar = 10.0 ** rng.uniform(-3, 1, 100000)
    h_rel, _ = law.relative(rho, rho_bar)
    lower = law.k * rho_bar ** (law.gamma - 1.0) * (np.sqrt(rho) - np.sqrt(rho_bar)) ** 2
    v_sqrt = int(np.count_nonzero(h_rel < lower - 1e-12 * np.maximum(1.0, lower)))
    ok &= v_sqrt == 0
    msgs.append(f"sqrt lower bound violations {v_sqrt}")

    # generator family lower bound
    p = rng.uniform(1e-3, 3.0, 100000)
    z = rng.uniform(1e-6, 10.0, 100000)
    F = np.array([entropy_generator(pi, zi) for pi, zi in zip(p[:2000], z[:2000])])
    lowF = (np.sqrt(z[:2000]) - 1.0) ** 2 / np.maximum(p[:2000], 1.0 - p[:2000])
    v_F = int(np.count_nonzero(F < lowF - 1e-12 * np.maximum(1.0, lowF)))
    for pi in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):  # vectorized bulk at fixed exponents
        Fz = entropy_generator(pi, z)
        lw = (np.sqrt(z) - 1.0) ** 2 / max(pi, 1.0 - pi)
        v_F += int(np.count_nonzero(Fz < lw - 1e-12 * np.maximum(1.0, lw)))
    ok &= v_F == 0
    msgs.append(f"generator bound violations {v_F}")

    # xi-term pointwise bounds on records of the jump plan's own pass
    jump = _plan("jump")
    ref = jump.ref
    v_xi = 0
    for _ in range(125):
        tau = rng.uniform(0.0, 4.0)
        rho_s = rng.uniform(0.2, 3.0, ref.y.size)
        n_s = rng.uniform(-2.0, 2.0, ref.y.size)
        snap = jump.snapshot(ScaledField(tau, ref.y, rho_s, n_s))
        v_xi += xi_bound_check(snap, tau, ref, jump.law)
    ok &= v_xi == 0
    msgs.append(f"xi bound violations {v_xi} over 10^5 nodes")

    # vacuum-admissibility inequality rho (h'(rho) - h'(0)) <= c h(rho|0)
    law3 = PressureLaw(1.0, 1.5)
    _, c = law3.vacuum_admissible()
    rho = 10.0 ** rng.uniform(-6, 2, 100000)
    _, dh, _ = law3.potential(rho)
    _, dh0, _ = law3.potential(0.0)
    h_rel0, _ = law3.relative(rho, 0.0)
    v_vac = int(np.count_nonzero(
        rho * (dh - dh0) > c * h_rel0 + 1e-12 * np.maximum(1.0, h_rel0)))
    ok &= v_vac == 0
    msgs.append(f"vacuum inequality violations {v_vac}")

    # coercivity with proof-constructed constants
    law4 = PressureLaw(1.0, 2.0)
    delta, M = 0.5, 2.0
    cc = coercivity_constants(law4, delta, M)
    rho = rng.uniform(0.0, cc.rho_cap, 100000)
    rho_bar = rng.uniform(delta, M, 100000)
    n = rng.uniform(-3.0, 3.0, 100000)
    tau = rng.uniform(0.0, 4.0, 100000)
    eta = relative_entropy_density(tau, rho, n, rho_bar, 0.0, law4)
    lower = cc.lower_bound(tau, rho, n, rho_bar, law4.gamma)
    v_co = int(np.count_nonzero(eta < lower - 1e-12 * np.maximum(1.0, lower)))
    ok &= v_co == 0
    msgs.append(f"coercivity violations {v_co}")

    return CheckResult("inequality property suite", bool(ok), "; ".join(msgs))


# ---------------------------------------------------------------------------
# criterion 8: entropy identity order of convergence


def check_entropy_identity_order():
    # exact spatially uniform solution of the scaled system:
    # rho = rho0, n(tau) = e^{tau/2} m0 e^{-alpha (e^tau - 1)}
    rho0, m0, alpha = 1.3, 0.5, 1.0
    law = PressureLaw(1.0, 2.0)

    class Exact:
        def rho(self, tau, y):
            return rho0

        def n(self, tau, y):
            return np.exp(0.5 * tau) * m0 * np.exp(-alpha * np.expm1(tau))

    f = Exact()
    tau, y = 0.7, 0.3
    res = [abs(entropy_identity_residual(f, tau, y, alpha, law, h))
           for h in (0.1, 0.05, 0.025)]
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    ok = all(1.6 <= o <= 2.4 for o in orders)
    return CheckResult(
        "entropy identity second-order convergence", bool(ok),
        f"residuals {res[0]:.3e} -> {res[1]:.3e} -> {res[2]:.3e}, "
        f"orders {orders[0]:.2f}, {orders[1]:.2f}",
    )


# ---------------------------------------------------------------------------
# criterion 9: solver audits


def check_solver_audits():
    msgs, ok = [], True
    rep = _report("coincident")
    meta = rep.run_result.meta
    mass0 = rep.run_result.snapshots[0].mass
    drift = np.abs(meta["mass"] - mass0 - meta["boundary_flux_mass"])
    rel_drift = float(np.max(drift)) / mass0
    ok &= rel_drift <= 1e-10
    msgs.append(f"mass conservation drift {rel_drift:.1e}")

    # spatially constant state: exact exponential momentum decay
    law = PressureLaw(1.0, 2.0)
    limits = LimitSpec(1.0, 1.0, 1.0)
    x = (np.arange(240) + 0.5) * 0.1 - 12.0
    init = PhysicalState(x, np.ones_like(x), np.ones_like(x), 0.0)
    out = run(init, SolverConfig(cfl=0.45), law, limits, [np.log(2.0)])
    mid = out.final.m[x.size // 2]
    err = abs(mid - 0.5) / 0.5
    rho_err = abs(out.final.rho[x.size // 2] - 1.0)
    ok &= err <= 1e-12 and rho_err <= 1e-12
    msgs.append(f"constant-state damping error {err:.1e}")

    # positivity on the acceptance runs
    min_rho = min(
        float(min(np.min(s.rho) for s in r.run_result.snapshots))
        for r in (_report("coincident"), _report("jump"))
    )
    ok &= min_rho > 0
    msgs.append(f"min density over acceptance runs {min_rho:.4f}")
    return CheckResult("solver audit suite", bool(ok), "; ".join(msgs))


# ---------------------------------------------------------------------------
# criterion 10: discrete relative-entropy inequality


def _violation_measure(report):
    dtau = report.meta["dtau"]
    return float(np.sum(np.maximum(report.ineq_residual, 0.0)) * dtau)


def check_discrete_inequality():
    msgs, ok = [], True
    for label in ("coincident", "jump"):
        fine, coarse = _report(label), _report(label, **_COARSE)
        for tag, rep in (("fine", fine), ("coarse", coarse)):
            tol = rep.meta["ineq_tol"]
            worst = rep.worst_ineq_residual
            ok &= worst <= tol
            msgs.append(f"{label}/{tag}: max residual {worst:.2e} vs tol {tol:.2e}")
        mf, mc = _violation_measure(fine), _violation_measure(coarse)
        ok &= mf <= mc + 1e-14
        msgs.append(f"{label}: violation measure {mc:.2e} -> {mf:.2e}")
    return CheckResult("discrete relative-entropy inequality", bool(ok), "; ".join(msgs))


# ---------------------------------------------------------------------------
# criterion 11: weak-strong regression


def check_weak_strong():
    rep = _report("coincident", amplitude=0.0, dx=0.1)
    bound = 1e-10 * (2.0 * _config("coincident").L_y)  # per unit of the window 2 L_y
    worst = float(np.max(rep.E))
    return CheckResult(
        "weak-strong uniqueness regression",
        worst <= bound,
        f"max E(tau) = {worst:.2e} vs bound {bound:.2e}",
    )


# ---------------------------------------------------------------------------


ALL_CHECKS = [
    check_coincident_envelope,
    check_coincident_dissipation,
    check_jump_envelope,
    check_jump_dissipation,
    check_profile_suite,
    check_algebraic_identities,
    check_inequality_suite,
    check_entropy_identity_order,
    check_solver_audits,
    check_discrete_inequality,
    check_weak_strong,
]


def run_all(printer=print):
    results = []
    for check in ALL_CHECKS:
        res = check()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        printer(f"[{status}] {res.name}: {res.detail}")
    return results
