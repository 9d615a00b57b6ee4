"""Experiment configuration, envelopes, rate fits, and CSV round trips."""

import warnings

import numpy as np
import pytest

from diffusionwave.entropy import ReferencePair
from diffusionwave.errors import ConfigError, DegenerateFitError, DomainError
from diffusionwave.lab import (
    EntropyReport,
    ExperimentConfig,
    diagnose,
    dissipation_check,
    emit_report,
    fit_decay_rate,
    parse_config,
    parse_report,
    read_csv,
    simulate,
    theoretical_bound,
    write_csv,
)


class TestTheoreticalBound:
    def test_unit_at_zero(self):
        assert theoretical_bound(0.0, 1.0, 0.1, 0.0, 0.0, False) == pytest.approx(1.0)

    def test_coincident_branch(self):
        assert theoretical_bound(2.0, 2.0, 0.0, 0.0, 0.0, True) == pytest.approx(
            2.0 * np.exp(-1.0))

    def test_jump_branch(self):
        val = theoretical_bound(2.0, 1.0, 0.1, 0.3, 0.2, False)
        assert val == pytest.approx(3.0 * np.exp(-0.65), rel=1e-12)

    def test_zero_theta_jump_rejected(self):
        with pytest.raises(DomainError):
            theoretical_bound(1.0, 1.0, 0.0, 0.1, 0.1, False)

    def test_monotone_decreasing(self):
        tau = np.linspace(0, 6, 200)
        jump = theoretical_bound(tau, 1.0, 0.2, 0.3, 0.2, False)
        coin = theoretical_bound(tau, 1.0, 0.0, 0.0, 0.0, True)
        assert np.all(np.diff(jump) < 0)
        assert np.all(np.diff(coin) < 0)


def _report_from_E(tau, E):
    z = np.zeros_like(tau)
    return EntropyReport(tau=tau, E=E, D_alpha=z, Xi1=z, Xi2=z, Xi3=z,
                         envelope=z, ineq_residual=z,
                         meta={"dtau": float(tau[1] - tau[0])})


class TestFitDecayRate:
    def test_pure_exponential(self):
        tau = np.linspace(0, 4, 41)
        rate, rms = fit_decay_rate(_report_from_E(tau, np.exp(-0.5 * tau)), (0, 4))
        assert rate == pytest.approx(0.5, abs=1e-9)
        assert rms <= 1e-12

    def test_constant(self):
        tau = np.linspace(0, 4, 41)
        rate, _ = fit_decay_rate(_report_from_E(tau, np.ones_like(tau)), (0, 4))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_wiggly(self):
        tau = np.linspace(0, 4, 81)
        E = np.exp(-0.4 * tau) * (1 + 0.01 * np.sin(tau))
        rate, _ = fit_decay_rate(_report_from_E(tau, E), (0, 4))
        assert rate == pytest.approx(0.4, abs=0.01)

    def test_nonpositive_rejected(self):
        tau = np.linspace(0, 4, 5)
        E = np.array([1.0, 0.5, 0.0, 0.5, 1.0])
        with pytest.raises(DegenerateFitError):
            fit_decay_rate(_report_from_E(tau, E), (0, 4))


class TestDissipationCheck:
    def test_short_run_inconclusive(self):
        tau = np.linspace(0, 1, 11)
        rep = _report_from_E(tau, np.exp(-tau))
        rep.meta.update(same_limits=False, theta=0.25, mu=1.0, K_const=0.1)
        # threshold 2 log(2 mu/(1-2 theta)) = 2 log(4) > 1
        res = dissipation_check(rep)
        assert res.inconclusive

    def test_flat_theta_required(self):
        tau = np.linspace(0, 1, 11)
        rep = _report_from_E(tau, np.exp(-tau))
        rep.meta.update(theta=0.5, mu=0.1, K_const=0.1)
        with pytest.raises(DomainError):
            dissipation_check(rep)

    def test_small_dissipation_passes(self):
        tau = np.linspace(0, 4, 41)
        rep = _report_from_E(tau, np.exp(-0.5 * tau))
        rep.D_alpha = 0.01 * np.exp(-0.5 * tau)
        rep.meta.update(same_limits=True, theta=0.0, mu=0.0, K_const=0.0)
        res = dissipation_check(rep)
        assert res.passed and not res.inconclusive


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.gamma == 2.0 and cfg.reference == "auto"

    def test_parse_and_comments(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text(
            "# jump experiment\n"
            "rho_minus = 1.05\n"
            "rho_plus = 0.95  # far field\n"
            "tau_max = 2.0\n"
            "order = 1\n"
        )
        cfg = parse_config(f)
        assert cfg.rho_minus == 1.05
        assert cfg.order == 1

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("rho_minuss = 1.0\n")
        with pytest.raises(ConfigError):
            parse_config(f)

    def test_bad_value_rejected(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("rho_minus = fast\n")
        with pytest.raises(ConfigError):
            parse_config(f)

    def test_malformed_line_rejected(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("rho_minus 1.0\n")
        with pytest.raises(ConfigError):
            parse_config(f)

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(reference="bogus")
        with pytest.raises(ConfigError):
            ExperimentConfig(tau_step=0.0)


_SMALL = dict(alpha=1.0, perturbation="bump", amplitude=0.1, X=8.0, dx=0.1,
              L_y=4.0, dy=0.05, tau_max=0.5, tau_step=0.125)


class TestDiagnose:
    @pytest.mark.parametrize("limits, reference", [
        ((1.0, 1.0), "auto"), ((1.05, 0.95), "auto"),
        ((1.05, 0.95), "smoothed-step")])
    def test_steady_memo_matches_fresh_evaluation(self, monkeypatch, limits,
                                                  reference):
        cfg = ExperimentConfig(rho_minus=limits[0], rho_plus=limits[1],
                               reference=reference, **_SMALL)
        run_result = simulate(cfg)
        memo = diagnose(cfg, run_result)
        monkeypatch.setattr(ReferencePair, "cached_eval",
                            lambda self, y, law: self.eval(y, law))
        fresh = diagnose(cfg, run_result)
        for name in ("E", "D_alpha", "Xi1", "Xi2", "Xi3", "envelope",
                     "ineq_residual"):
            assert getattr(memo, name).tobytes() == getattr(fresh, name).tobytes()
        assert memo.meta == fresh.meta

    def test_vacuum_reference_rejected_before_the_snapshots(self, monkeypatch):
        cfg = ExperimentConfig(rho_minus=0.0, rho_plus=0.0, **_SMALL)
        run_result = simulate(cfg)
        monkeypatch.setattr("diffusionwave.lab.to_scaled", None)  # never reached
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="bounded away from 0"):
                diagnose(cfg, run_result)


class TestCsvRoundTrip:
    def test_generic(self, tmp_path):
        path = tmp_path / "t.csv"
        cols = {"a": np.array([1.0, 0.1 + 0.2]), "b": np.array([-1e-17, 3.5])}
        write_csv(path, {"alpha": 1.0, "note": "x"}, cols)
        comments, back = read_csv(path)
        assert comments["alpha"] == 1.0
        assert comments["note"] == "x"
        for key in cols:
            assert np.array_equal(back[key], cols[key])

    def test_report_field_for_field(self, tmp_path):
        tau = np.linspace(0, 4, 41)
        rng = np.random.default_rng(21)
        rep = EntropyReport(
            tau=tau, E=np.exp(-0.5 * tau) * (1 + 1e-3 * rng.standard_normal(41)),
            D_alpha=rng.random(41), Xi1=rng.standard_normal(41),
            Xi2=rng.standard_normal(41), Xi3=rng.standard_normal(41),
            envelope=np.exp(-0.4 * tau), ineq_residual=1e-6 * rng.standard_normal(41),
            meta={"theta": 0.025013278003306282, "E0": 1.0, "same_limits": False},
        )
        path = tmp_path / "report.csv"
        emit_report(rep, path)
        back = parse_report(path)
        for name in ("tau", "E", "D_alpha", "Xi1", "Xi2", "Xi3",
                     "envelope", "ineq_residual"):
            assert np.array_equal(getattr(back, name), getattr(rep, name)), name
        assert back.meta["theta"] == rep.meta["theta"]
        assert back.meta["same_limits"] is False
