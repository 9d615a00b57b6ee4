"""Experiment configuration, envelopes, rate fits, and CSV round trips."""

import math
from dataclasses import fields, replace
from importlib.resources import files

import numpy as np
import pytest

import diffusionwave.lab as lab_module
from diffusionwave.entropy import RefData, ReferencePair
from diffusionwave.errors import ConfigError, DegenerateFitError, DomainError
from diffusionwave.lab import (
    EntropyReport,
    ExperimentConfig,
    diagnose,
    dissipation_check,
    emit_report,
    envelope_check,
    fit_decay_rate,
    parse_config,
    parse_report,
    plan,
    read_csv,
    simulate,
    theoretical_bound,
    write_csv,
)
from diffusionwave.grids import node_grid
from diffusionwave.profile import LimitSpec
from diffusionwave.scaling import to_scaled
from diffusionwave.thermo import PressureLaw


class TestTheoreticalBound:
    def test_unit_at_zero(self):
        assert theoretical_bound(0.0, 1.0, 0.1, 0.0, 0.0) == pytest.approx(1.0)

    def test_coincident_branch(self):
        # theta = mu = K = 0, the constant profile's constants
        assert theoretical_bound(2.0, 2.0, 0.0, 0.0, 0.0) == pytest.approx(
            2.0 * np.exp(-1.0))

    def test_coincident_case_is_E0_exp_to_the_bit(self):
        # the one formula at theta = mu = K = 0 is E0 e^{-tau/2} to the bit,
        # on arrays and on scalars, with int or float zeros
        tau = np.linspace(0.0, 6.0, 61)
        for E0 in (7.089e-2, 1.0, 3.5e-7):
            expected = E0 * np.exp(-0.5 * tau)
            for zero in (0, 0.0):
                got = theoretical_bound(tau, E0, zero, zero, zero)
                assert np.array_equal(got, expected), (E0, zero)
                assert [theoretical_bound(t, E0, zero, zero, zero) for t in tau] == list(expected)

    def test_jump_branch(self):
        val = theoretical_bound(2.0, 1.0, 0.1, 0.3, 0.2)
        assert val == pytest.approx(3.0 * np.exp(-0.65), rel=1e-12)

    def test_zero_theta_jump_rejected(self):
        # K > 0 needs theta > 0: K/theta has no value at theta = 0, so the
        # envelope is NaN there
        for theta in (0.0, -0.0, -0.1):
            assert math.isnan(theoretical_bound(1.0, 1.0, theta, 0.1, 0.1))
            assert np.isnan(theoretical_bound(np.linspace(0, 1, 3), 1.0, theta, 0.1, 0.1)).all()

    def test_monotone_decreasing(self):
        tau = np.linspace(0, 6, 200)
        jump = theoretical_bound(tau, 1.0, 0.2, 0.3, 0.2)
        coin = theoretical_bound(tau, 1.0, 0.0, 0.0, 0.0)
        assert np.all(np.diff(jump) < 0)
        assert np.all(np.diff(coin) < 0)


def _report_from_E(tau, E):
    z = np.zeros_like(tau)
    return EntropyReport(tau=tau, E=E, D_alpha=z, Xi1=z, Xi2=z, Xi3=z,
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


def test_envelope_check_without_an_envelope_says_so(tmp_path):
    # theta >= 1/2: the envelope is NaN, whatever envelope column an older
    # series holds, and the verdict names the parameters and the missing
    # envelope, not a NaN ratio
    tau = np.linspace(0, 1, 11)
    rep = _report_from_E(tau, np.exp(-tau))
    rep.meta.update(theta=0.6, mu=0.1, K_const=0.1, ineq_tol=1e-3)
    path = tmp_path / "series.csv"
    emit_report(rep, path)
    meta, cols = read_csv(path)
    write_csv(path, meta, {**cols, "envelope": np.ones_like(tau)})
    rep = parse_report(path)
    assert np.isnan(rep.envelope).all()
    res = envelope_check(rep)
    assert not res.passed
    assert res.detail == ("theta = 0.6000, envelope_proved = False, mu = 0.1000, K = 0.1000, "
                          "E0 = 1.0000e+00: the paper proves no envelope unless theta < 1/2")


def test_ineq_residual_has_one_entry_per_interval():
    # dE/dtau + D + E/2 - (Xi1 + Xi2 + Xi3) on each interval: the forward
    # difference of E against trapezoid averages, exact in binary here
    tau = np.linspace(0, 1, 5)
    rep = _report_from_E(tau, np.array([1.0, 0.5, 0.25, 0.5, 0.25]))
    rep.D_alpha = np.full_like(tau, 0.5)
    rep.Xi1 = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
    rep.Xi2 = rep.Xi3 = 0.5 * rep.Xi1
    assert rep.ineq_residual.tolist() == [-1.125, -1.3125, -0.3125, -1.3125]
    assert rep.worst_ineq_residual == -0.3125
    single = EntropyReport(*np.zeros((6, 1)))  # one sample: no interval
    assert single.ineq_residual.shape == (0,)
    assert single.worst_ineq_residual == -math.inf


class TestDissipationCheck:
    def test_short_run_inconclusive(self):
        tau = np.linspace(0, 1, 11)
        rep = _report_from_E(tau, np.exp(-tau))
        rep.meta.update(theta=0.25, mu=1.0, K_const=0.1)
        # threshold 2 log(2 mu/(1-2 theta)) = 2 log(4) > 1
        res = dissipation_check(rep)
        assert not res.passed
        assert res.detail == ("inconclusive (threshold tau = 2.77 past the "
                              "series end tau = 1)")

    def test_flat_theta_required(self):
        tau = np.linspace(0, 1, 11)
        rep = _report_from_E(tau, np.exp(-tau))
        rep.meta.update(theta=0.5, mu=0.1, K_const=0.1)
        res = dissipation_check(rep)
        assert not res.passed and "theta = 0.5000" in res.detail

    def test_small_dissipation_passes(self):
        tau = np.linspace(0, 4, 41)
        rep = _report_from_E(tau, np.exp(-0.5 * tau))
        rep.D_alpha = 0.01 * np.exp(-0.5 * tau)
        rep.meta.update(theta=0.0, mu=0.0, K_const=0.0)
        res = dissipation_check(rep)
        assert res.passed and res.detail.startswith("min relative margin ")


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.gamma == 2.0

    def test_parse_and_comments(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text(
            "# jump experiment\n"
            "rho_minus = 1.05\n"
            "rho_plus = 0.95  # far field\n"
            "tau_max = 2.0\n"
            "order = 2\n"
        )
        cfg = parse_config(f)
        assert cfg.rho_minus == 1.05
        assert cfg.order == 2

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

    def test_amplitude_alone_gives_the_bump(self, tmp_path):
        # no switch beside the amplitude: a nonzero one is never ignored
        f = tmp_path / "bump.cfg"
        f.write_text("amplitude = 0.2\n")
        cfg = parse_config(f)
        x = lab_module.cell_grid(cfg.X, cfg.dx)
        rho, m = lab_module.build_initial(cfg, x, LimitSpec(1.0, 1.0, cfg.alpha))
        assert np.array_equal(rho, 1.0 + 0.2 * np.exp(-x**2 / 2.0))
        assert np.all(m == 0.0)

    def test_bump_takes_libm_exp(self):
        # the bump's bits hold on any x86-64 CPU: numpy's AVX-512 exp differs
        # from libm in the last bit, and at amplitude 0.37 on a far field of
        # 0.8 some of those differences reach the densities
        cfg = replace(parse_config(files("diffusionwave") / "configs" / "coincident.cfg"),
                      amplitude=0.37, rho_minus=0.8, rho_plus=0.8)
        initial, c, w = plan(cfg).initial, cfg.center, cfg.width
        bump = [math.exp(-((v - c) * (v - c)) / (2.0 * w * w)) for v in initial.x.tolist()]
        assert initial.rho.tobytes() == (0.8 + 0.37 * np.array(bump)).tobytes()

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(tau_step=0.0)

    def test_domain_too_small_for_window(self):
        # the scaled window at the last snapshot, L_y sqrt(1 + t_end) =
        # L_y e^(tau_max/2), must fit in [-X, X]: 8 e^2 = 59.1 at the defaults
        ExperimentConfig(X=59.2)
        # a window that fills [-X, X] to the last bit, t taken by libm's expm1
        # as the run takes it; numpy's expm1 is 1 ulp above on AVX-512
        ExperimentConfig(L_y=1.0, X=math.sqrt(1.0 + math.expm1(1.75)), dx=0.1, dy=0.1,
                         tau_max=1.75, tau_step=0.25)
        # 8 sqrt(1 + 3) = 16 on a 100-cell grid of half-width 5
        for kw in (dict(X=59.0), dict(X=5.0, dx=0.1, tau_max=math.log(4.0),
                                      tau_step=math.log(4.0))):
            with pytest.raises(ConfigError, match="too small for the requested scaled window"):
                ExperimentConfig(**kw)


_SMALL = dict(alpha=1.0, amplitude=0.1, X=8.0, dx=0.1,
              L_y=4.0, dy=0.05, tau_max=0.5, tau_step=0.125)


class TestPlan:
    def test_coincident_reference_is_the_constant_state(self):
        # the plan reads the coincident reference off the constant profile:
        # field by field, rho = rho_+, the thermodynamics of rho_+, and every
        # momentum, derivative and residual 0
        cfg = ExperimentConfig(rho_minus=1.3, rho_plus=1.3, **_SMALL)
        p = plan(cfg)
        assert lab_module.make_reference(cfg, p.limits, p.law, p.profile)[1] == "constant"
        assert (p.profile.theta, p.profile.mu, p.profile.K_const) == (0.0, 0.0, 0.0)
        y = node_grid(cfg.L_y, cfg.dy)
        rho = np.full(y.size, 1.3)
        (h, dh, d2h), (pr, dp) = p.law.potential(rho), p.law.pressure(rho)
        expected = dict(y=y, rho=rho, h=h, dh=dh, d2h=d2h, p=pr, dp=dp)
        for f in fields(RefData):
            want = expected.get(f.name, np.zeros(y.size))
            assert np.array_equal(getattr(p.ref, f.name), want), f.name


class TestDiagnose:
    @pytest.mark.parametrize("limits", [(1.0, 1.0), (1.05, 0.95)],
                             ids=["coincident", "jump"])
    def test_reference_evaluated_once_per_run(self, monkeypatch, limits):
        # one ReferencePair.eval per run, and no h'(rho) of the snapshots:
        # halving tau_step adds snapshots but no PressureLaw.potential call
        cfgs = [ExperimentConfig(rho_minus=limits[0], rho_plus=limits[1],
                                 **{**_SMALL, "tau_step": step})
                for step in (0.125, 0.0625)]
        runs = [simulate(plan(cfg)) for cfg in cfgs]
        calls = []
        for cls, name in ((ReferencePair, "eval"), (PressureLaw, "potential")):
            def counted(self, *args, _original=getattr(cls, name), _name=name):
                calls.append(_name)
                return _original(self, *args)
            monkeypatch.setattr(cls, name, counted)
        counts = []
        for cfg, run_result in zip(cfgs, runs):
            calls.clear()
            diagnose(plan(cfg), run_result)
            counts.append((calls.count("eval"), calls.count("potential")))
        assert [n_eval for n_eval, _ in counts] == [1, 1]
        assert counts[1][1] == counts[0][1]

    def test_one_scaling_and_one_pass_per_snapshot(self, monkeypatch):
        # to_scaled, the diagnostics pass and the Bregman terms run once
        # per snapshot each, and the plan builds the pass once per run
        cfg = ExperimentConfig(rho_minus=1.05, rho_plus=0.95, **_SMALL)
        calls = []

        def counted(name, original):
            def call(*args):
                calls.append(name)
                return original(*args)
            return call

        def build(*args, _original=lab_module._snapshot_pass):
            calls.append("build")
            return counted("pass", _original(*args))

        monkeypatch.setattr(lab_module, "_snapshot_pass", build)
        p = plan(cfg)
        run_result = simulate(p)
        monkeypatch.setattr(lab_module, "to_scaled", counted("to_scaled", to_scaled))

        def relative(self, *args, _original=PressureLaw._relative):
            calls.append("_relative")
            return _original(self, *args)
        monkeypatch.setattr(PressureLaw, "_relative", relative)
        diagnose(p, run_result)
        count = len(run_result.snapshots)
        assert count == 5
        assert [calls.count(name) for name in ("build", "to_scaled", "pass", "_relative")] \
            == [1] + [count] * 3

    def test_vacuum_reference_rejected_before_the_snapshots(self):
        # a far field that is not > 0 is refused by the plan's LimitSpec,
        # before the run; so is alpha = 0, coincident limits included
        for limits in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (-1.0, -1.0), (1.0, -0.5)):
            cfg = ExperimentConfig(rho_minus=limits[0], rho_plus=limits[1], **_SMALL)
            with pytest.raises(DomainError, match="far-field densities must be positive"):
                plan(cfg)
        for limits in ((1.0, 1.0), (1.05, 0.95)):
            cfg = ExperimentConfig(rho_minus=limits[0], rho_plus=limits[1],
                                   **{**_SMALL, "alpha": 0.0})
            with pytest.raises(DomainError, match="friction coefficient must be > 0"):
                plan(cfg)


class TestCsvRoundTrip:
    def test_generic(self, tmp_path):
        path = tmp_path / "t.csv"
        cols = {"a": np.array([1.0, 0.1 + 0.2]), "b": np.array([-1e-17, 3.5])}
        write_csv(path, {"alpha": 1.0, "note": "x", "flag": False}, cols)
        comments, back = read_csv(path)
        assert comments["alpha"] == 1.0
        assert comments["note"] == "x"
        assert comments["flag"] is False
        for key in cols:
            assert np.array_equal(back[key], cols[key])

    def test_column_text_is_pinned(self, tmp_path):
        # each column is converted to float once: ints are written as floats,
        # and -0.0, nan and the infinities keep their text
        path = tmp_path / "t.csv"
        write_csv(path, {}, {"x": np.array([0.1, -0.0, np.nan, np.inf, -np.inf]),
                             "n": np.array([1200, 0, -3, 7, 2**53 + 1]),
                             "mixed": [1, 2.5, -0.0, float("nan"), -1e-17]})
        assert path.read_text() == ("x,n,mixed\n"
                                    "0.1,1200.0,1.0\n"
                                    "-0.0,0.0,2.5\n"
                                    "nan,-3.0,-0.0\n"
                                    "inf,7.0,nan\n"
                                    "-inf,9007199254740992.0,-1e-17\n")

    def test_report_field_for_field(self, tmp_path):
        tau = np.linspace(0, 4, 41)
        rng = np.random.default_rng(21)
        rep = EntropyReport(
            tau=tau, E=np.exp(-0.5 * tau) * (1 + 1e-3 * rng.standard_normal(41)),
            D_alpha=rng.random(41), Xi1=rng.standard_normal(41),
            Xi2=rng.standard_normal(41), Xi3=rng.standard_normal(41),
            meta={"theta": 0.025013278003306282, "mu": 0.04, "K_const": 0.1,
                  "ineq_tol": 1e-3},
        )
        path = tmp_path / "report.csv"
        emit_report(rep, path)
        back = parse_report(path)
        # the measured columns alone are written; the derived ones follow
        assert list(read_csv(path)[1]) == ["tau", "E", "D_alpha", "Xi1", "Xi2", "Xi3"]
        for name in ("tau", "E", "D_alpha", "Xi1", "Xi2", "Xi3",
                     "envelope", "ineq_residual"):
            assert np.array_equal(getattr(back, name), getattr(rep, name)), name
        assert back.meta == rep.meta
