"""Acceptance gate: every check in the verification suite must pass.

Each criterion prints one `[PASS]`/`[FAIL]` line (run with `-s` to stream
them live); a failing criterion fails its own test case with the detail
string in the assertion message.  The acceptance runs are built from the
config files shipped in the package.
"""

import json
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from importlib.resources import files
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from diffusionwave import dynamics, lab, verify
from diffusionwave.dynamics import _coarsen
from diffusionwave.lab import EntropyReport, cell_grid, parse_config
from diffusionwave.verify import ALL_CHECKS

DATA = Path(__file__).parent / "data"
# the stored series' writer, which also defines the reference gate
sys.path.insert(0, str(DATA))
import make_series  # noqa: E402


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_acceptance(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("name, rho_minus, rho_plus, amplitude", [
    ("jump", 1.05, 0.95, 0.0),
    ("coincident", 1.0, 1.0, 0.2),
])
def test_fine_runs_use_the_shipped_configs(monkeypatch, name, rho_minus,
                                           rho_plus, amplitude):
    path = files("diffusionwave") / "configs" / f"{name}.cfg"
    assert path.is_file()
    cfg = parse_config(path)
    assert (cfg.rho_minus, cfg.rho_plus, cfg.amplitude) == (rho_minus, rho_plus,
                                                            amplitude)
    assert cell_grid(cfg.X, cfg.dx).size == 6000
    # the uncached run builder, with the simulation replaced by its config
    monkeypatch.setattr(verify, "run_experiment", lambda c: c)
    assert verify._report.__wrapped__(name) == cfg


def test_verify_fixtures_follow_the_parsed_configs(monkeypatch):
    # the jump plan, its profile and y-grid, and the weak-strong window come
    # from the shipped configs, so an edited config moves them
    shipped = verify.parse_config
    monkeypatch.setattr(verify, "parse_config", lambda path: replace(
        shipped(path), rho_minus=1.2, rho_plus=0.8, alpha=2.0, gamma=1.5,
        k=0.5, L_y=5.0, dy=0.05))
    solve, spacings = lab.solve_profile, []
    monkeypatch.setattr(lab, "solve_profile", lambda limits, law, L, dy: (
        spacings.append(dy) or solve(limits, law, L=L, dy=dy)))
    jump = verify._plan.__wrapped__("jump")
    prof, limits, law, ref = jump.profile, jump.limits, jump.law, jump.ref
    assert (limits.rho_minus, limits.rho_plus, limits.alpha) == (1.2, 0.8, 2.0)
    assert (law.gamma, law.k, spacings) == (1.5, 0.5, [0.05])
    # the pipeline's reference: that profile on the config's y-grid
    assert (ref.y[0], ref.y[-1], ref.y.size) == (-5.0, 5.0, 201)
    assert np.allclose(ref.rho, np.interp(ref.y, prof.y, prof.rho_star), atol=1e-5)
    monkeypatch.setattr(verify, "_report",
                        lambda name, **overrides: SimpleNamespace(E=np.zeros(3)))
    assert verify.check_weak_strong().detail.endswith("vs bound 1.00e-09")


def test_envelope_check_needs_theta_below_one_half(monkeypatch):
    # E far under its envelope fails when the envelope's theta < 1/2 is not met
    tau = np.linspace(0.0, 1.0, 3)
    z = np.zeros_like(tau)
    report = EntropyReport(
        tau=tau, E=np.full_like(tau, 1e-3), D_alpha=z, Xi1=z, Xi2=z, Xi3=z,
        meta={"theta": 0.6, "mu": 0.1, "K_const": 0.1})
    monkeypatch.setattr(verify, "_report", lambda name: report)
    result = verify.check_jump_envelope()
    assert not result.passed and "envelope_proved = False" in result.detail
    report.meta["theta"] = 0.25
    result = verify.check_jump_envelope()
    assert result.passed and "envelope_proved = True" in result.detail


def test_solver_audit_sees_momentum_lost_at_a_merge(monkeypatch):
    # a merge that keeps each pair's left m, not the pair mean, conserves
    # mass but not momentum: the audit's momentum ledger fails it
    def left_m(state):
        merged = _coarsen(state)
        merged.m = state.m[0::2].copy()
        return merged

    monkeypatch.setattr(dynamics, "_coarsen", left_m)
    monkeypatch.setattr(verify, "_report", lru_cache(maxsize=None)(verify._report.__wrapped__))
    result = verify.check_solver_audits()
    drift = float(result.detail.split("momentum ledger drift ")[1].split(";")[0])
    assert not result.passed and drift > 1e-9


# The scalar gate, a regression guard: a tenth of the fine-coarse gap from
# the stored series.  Zeroed MUSCL slopes (`slopes *= 0` in
# `_hyperbolic_rhs`, a first-order space discretization) sat at 1.72 of the
# jump gap and 24.9 of the coincident one, doubling dx at about 1.0 of
# both; the series were last written on the integrating-factor SSPRK(s,2)
# step of up to four stages, merging at t = 1, 7 and 31
# (tests/data/make_series.py --check prints the share).  It measures
# distance from a stored answer, not error, and from tau = 2.6 on an E that
# is off by 100 % passes it on jump; the reference gate below sees that.
GATE = 0.1


@pytest.mark.parametrize("name", ["jump", "coincident"])
def test_discretization_gate(name):
    # the stored series come from tests/data/make_series.py; the fine runs
    # are the cached acceptance runs, so the gate simulates nothing new
    stored = json.loads((DATA / f"{name}.json").read_text())
    report = verify._report(name)
    assert np.array_equal(report.tau, stored["tau"])
    deviation = float(np.max(np.abs(report.E - np.asarray(stored["E"]))))
    assert deviation <= GATE * stored["gap"], (
        f"{name}: E moved {deviation:.3e} from the stored series, "
        f"{deviation / stored['gap']:.3f} of the fine-coarse gap {stored['gap']:.3e}")


@pytest.mark.parametrize("name", ["jump", "coincident"])
def test_reference_gate(name):
    # each acceptance run's error against E_ref, this solver's run at dx/8
    # (tests/data/<name>_ref.json), in two forms that see every tau: within
    # make_series.FACTORS of the SSPRK(3,2) step's errors (ANCHORS) plus the
    # error bar |E_dx/4 - E_dx/8|.  It fails zeroed slopes, doubled dx, a
    # five-stage cap and the friction Strang-split around the step at
    # today's merges (CHANGES.md); the runs are the cached acceptance runs,
    # so it simulates nothing new
    ref = make_series.load_reference(name)
    report = verify._report(name)
    assert np.array_equal(report.tau, ref["tau"])
    assert ref["dx"] == verify._config(name).dx / make_series.REF_DX_DIVISOR
    for label, error, bound in make_series.reference_gate(name, report.E, ref):
        assert error <= bound, (f"{name}: {label} = {error:.3e}, "
                                f"{error / bound:.3f} of its bound {bound:.3e}")


def test_reference_gate_reads_every_bound():
    # a series at E_ref is inside both bounds; one last sample off by twice
    # the relative bound fails that bound alone, and a shift of three times
    # the absolute anchor fails the absolute bound
    gate = make_series.reference_gate
    for name in ("jump", "coincident"):
        ref = make_series.load_reference(name)
        E = np.array(ref["E"])
        assert [error for _, error, _ in gate(name, E, ref)] == [0.0, 0.0]
        off = E.copy()
        off[-1] *= 1.0 + 2.0 * gate(name, E, ref)[1][2]
        assert [error <= bound for _, error, bound in gate(name, off, ref)] == [True, False]
        (_, error, bound), _ = gate(name, E + 3.0 * make_series.ANCHORS[name][0], ref)
        assert error > bound


def test_make_series_parses_its_arguments_before_any_run():
    # --help prints the usage; a misspelt name is one line on stderr and
    # exit 2, not a traceback from a run or a missing <name>.json
    script = DATA / "make_series.py"
    run = lambda *args: subprocess.run([sys.executable, str(script), *args],
                                       capture_output=True, text=True, timeout=120)
    shown = run("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage:"), shown
    assert "jump, coincident, ref, bits" in shown.stdout and shown.stderr == ""
    for args in (["jmup"], ["--check", "bits", "jmup"]):
        refused = run(*args)
        assert refused.returncode == 2 and refused.stdout == "", refused
        assert refused.stderr.count("\n") == 1 and "'jmup'" in refused.stderr, refused
