"""Command-line interface: subcommand smoke tests and exit codes."""

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffusionwave
from diffusionwave import dynamics, scaling, verify
from diffusionwave.cli import main
from diffusionwave.dynamics import _AUDIT, PhysicalState
from diffusionwave.errors import ConfigError, DomainError
from diffusionwave.lab import (EntropyReport, ExperimentConfig, emit_report, make_reference,
                               parse_config, parse_report, plan, read_csv, write_csv)
from diffusionwave.profile import default_halfwidth, solve_profile

FAST_CFG = """\
rho_minus = 1.0
rho_plus = 1.0
alpha = 1.0
amplitude = 0.1
X = 8.0
dx = 0.1
L_y = 4.0
dy = 0.1
tau_max = 0.5
tau_step = 0.25
"""
JUMP_CFG = (FAST_CFG.replace("rho_minus = 1.0", "rho_minus = 1.05")
            .replace("rho_plus = 1.0", "rho_plus = 0.95"))
# to t = e^1.5 - 1 = 3.48: past t = 3, where the solver merges cell pairs
MERGED_JUMP_CFG = (JUMP_CFG.replace("tau_max = 0.5", "tau_max = 1.5")
                   .replace("L_y = 4.0", "L_y = 2.0"))


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(FAST_CFG)
    return path


def test_profile_command(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    rc = main(["profile", "--rho-minus", "1.05", "--rho-plus", "0.95",
               "--dy", "0.05", "--out", str(out)])
    assert rc == 0
    comments, cols = read_csv(out)
    assert set(cols) == {"y", "rho_star", "n_star", "r_star", "ode_residual"}
    assert 0 < comments["theta"] < 0.5
    assert np.all(np.diff(cols["rho_star"]) <= 1e-12)
    assert "theta=" in capsys.readouterr().out


def test_profile_header_reads_the_grid_solved_on(tmp_path):
    # at alpha = 2 the default half-width is 20/sqrt(2) = 14.142..., which
    # rounds up to 283 steps of --dy 0.05: the profile is solved on --dy
    out = tmp_path / "prof.csv"
    assert main(["profile", "--rho-minus", "1.05", "--rho-plus", "0.95", "--alpha", "2",
                 "--dy", "0.05", "--out", str(out)]) == 0
    comments, cols = read_csv(out)
    y = cols["y"]
    assert comments["L"] == y[-1] == -y[0] == 283 * 0.05
    assert comments["dy"] == y[1] - y[0] == pytest.approx(0.05, rel=1e-12)


WIDE_CFG = (JUMP_CFG.replace("alpha = 1.0", "alpha = 100.0").replace("X = 8.0", "X = 30.0")
            .replace("L_y = 4.0", "L_y = 9.0").replace("dy = 0.1", "dy = 0.05"))


def test_profile_too_coarse_for_its_width_names_the_grid(tmp_path, capsys):
    # at alpha = 100 the profile's low side is about sqrt(4 p'(0.95)/100) =
    # 0.276 wide: dy = 0.1 cannot resolve it, and the one line says on what grid
    path = tmp_path / "coarse.cfg"
    path.write_text(WIDE_CFG.replace("dy = 0.05", "dy = 0.1"))
    out_dir = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dy = 0.1" in err and "width" in err and "0.276" in err, err
    assert not out_dir.exists()


def test_profile_stall_names_the_grid(tmp_path, capsys):
    # rho_+ = 1e-3 at dy = 0.05: the line search stalls far above its floor,
    # and the one line says at what residual and on what grid
    out = tmp_path / "prof.csv"
    assert main(["profile", "--rho-minus", "1", "--rho-plus", "1e-3", "--dy", "0.05",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Newton line search stalled at residual" in err, err
    assert "rounding floor" in err and "dy = 0.05" in err and "width" in err, err
    assert not out.exists()


def test_window_wider_than_the_default_profile(tmp_path, capsys):
    # at alpha = 100 the profile's default half-width, 8, is short of
    # L_y + dy = 9.05: the plan solves the profile wider, at the y-grid's
    # spacing, so that the reference is read off its nodes
    path = tmp_path / "wide.cfg"
    path.write_text(WIDE_CFG)
    cfg = parse_config(path)
    p = plan(cfg)
    assert default_halfwidth(p.limits, p.law) == 8.0
    assert (p.profile.y[-1], p.profile.dy) == (pytest.approx(9.05), pytest.approx(0.05))
    assert main(["diagnose", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().err == ""
    # a profile at another dy, or one that ends inside L_y + dy, is refused
    for L, dy in ((12.0, 0.025), (12.0, 0.06), (None, 0.05)):
        prof = solve_profile(p.limits, p.law, L=L, dy=dy)
        with pytest.raises(DomainError, match="not nodes of the profile"):
            make_reference(cfg, p.limits, p.law, prof)


def test_profile_bad_input_exits_1(tmp_path, capsys):
    # grids are rejected before any allocation: 1e-7 would ask for 4e8 nodes;
    # limits at 0 are no profile, not even a constant one, nor is alpha = 0
    # at coincident limits; the last inputs
    # overflow or make the Newton system singular
    out = tmp_path / "prof.csv"
    for flags in (["--dy", "1e-320"], ["--dy", "-0.5"], ["--dy", "0"],
                  ["--dy", "1e-7"], ["--dy", "nan"], ["--dy", "inf"],
                  ["--L", "0"], ["--L", "-1"], ["--L", "inf"], ["--L", "nan"],
                  ["--L", "1e300"], ["--rho-minus", "0", "--rho-plus", "0"],
                  ["--rho-minus", "1", "--rho-plus", "1", "--alpha", "0"],
                  ["--rho-minus", "nan"], ["--alpha", "inf"],
                  ["--rho-minus", "1e200"], ["--gamma", "1e10"],
                  ["--gamma", "1e300", "--rho-minus", "1.0"],
                  ["--alpha", "1e300", "--k", "1e-300"]):
        rc = main(["profile", "--rho-minus", "1.05", "--rho-plus", "0.95",
                   *flags, "--out", str(out)])
        assert rc == 1, flags
        assert capsys.readouterr().err.count("\n") == 1, flags
        assert not out.exists()


def test_simulate_then_diagnose(tmp_path, cfg_file):
    snap_dir = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out-dir", str(snap_dir)]) == 0
    snaps = sorted(snap_dir.glob("snapshot_*.csv"))
    assert len(snaps) == 3  # tau = 0, 0.25, 0.5
    assert (snap_dir / "run_meta.csv").exists()
    _, cols = read_csv(snaps[0])
    assert set(cols) == {"x", "rho", "m"}

    series = tmp_path / "series.csv"
    assert main(["diagnose", "--config", str(cfg_file),
                 "--in-dir", str(snap_dir), "--out", str(series)]) == 0
    report = parse_report(series)
    assert report.tau[0] == 0.0
    assert np.all(report.E >= 0)
    assert len(list(tmp_path.glob("scaled_*.csv"))) == 3


def test_in_dir_samples_each_snapshot_once(tmp_path, cfg_file, monkeypatch):
    # the scaled_*.csv files are the fields diagnose samples, not a second
    # to_scaled per snapshot, under whichever module's name it is called
    snap_dir = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out-dir", str(snap_dir)]) == 0
    to_scaled, calls = scaling.to_scaled, []

    def counted(*args):
        calls.append(args)
        return to_scaled(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "diffusionwave" and getattr(module, "to_scaled", None) is to_scaled:
            monkeypatch.setattr(module, "to_scaled", counted)
    assert main(["diagnose", "--config", str(cfg_file), "--in-dir", str(snap_dir),
                 "--out", str(tmp_path / "series.csv")]) == 0
    assert len(calls) == len(list(tmp_path.glob("scaled_*.csv"))) == 3


def test_run_meta_header_is_the_audit_in_readme_order(tmp_path, cfg_file):
    snap_dir = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out-dir", str(snap_dir)]) == 0
    header = [line for line in (snap_dir / "run_meta.csv").read_text().splitlines()
              if not line.startswith("#")][0]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert header == ",".join(_AUDIT) and f"#   {header}\n" in readme


def test_domain_too_small_for_the_window_exits_1(tmp_path, capsys):
    # 8 e^2 = 59.1 > 20: the scaled window at tau = 4 leaves the domain
    with pytest.raises(ConfigError, match="too small for the requested scaled window"):
        ExperimentConfig(X=20.0)
    cfg, snap_dir = tmp_path / "small.cfg", tmp_path / "snaps"
    cfg.write_text("X = 20.0\n")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(snap_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "scaled window" in err, err
    assert not list(snap_dir.glob("snapshot_*.csv"))


def test_run_meta_audits_the_momentum_ledger(tmp_path, cfg_file):
    # momentum - initial momentum - boundary flux + damping sink telescopes
    # to rounding, across the merge of cell pairs too; the jump keeps a net
    # pressure flux through the boundary
    cfg_file.write_text(MERGED_JUMP_CFG)
    snap_dir = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out-dir", str(snap_dir)]) == 0
    _, meta = read_csv(snap_dir / "run_meta.csv")
    head, first = read_csv(snap_dir / "snapshot_000000.csv")
    initial = PhysicalState(first["x"], first["rho"], first["m"], head["t"])
    assert meta["dx"][0] == initial.dx and meta["dx"][-1] == pytest.approx(2 * initial.dx)
    flux, sink = meta["boundary_flux_momentum"], meta["damping_sink"]
    assert abs(flux[-1]) > 1e-3 and sink[-1] != 0.0
    ledger = meta["momentum"] - initial.momentum - flux + sink
    assert np.max(np.abs(ledger)) <= 1e-12


def test_run_meta_records_boundary_contact(tmp_path):
    # step data keep the edge cells at the far field to the bit until the
    # waves, slower than 1.5, arrive from x = 0 at the edges x = +-8; the
    # contact is a run_meta.csv column, not a RuntimeWarning
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("rho_minus = 1.05\nrho_plus = 0.95\nX = 8.0\ndx = 0.1\n"
                   "L_y = 2.0\ndy = 0.1\ntau_max = 2.5\ntau_step = 0.5\n")
    snap_dir = tmp_path / "snaps"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(snap_dir)]) == 0
    _, meta = read_csv(snap_dir / "run_meta.csv")
    t, deviation = meta["t"], meta["boundary_deviation"]
    assert deviation.size == t.size and np.any(t < 2.0)
    assert np.all(deviation[t < 2.0] == 0.0)
    assert deviation[-1] > 1e-8


def test_diagnose_self_contained(tmp_path, cfg_file):
    series = tmp_path / "series.csv"
    assert main(["diagnose", "--config", str(cfg_file),
                 "--out", str(series)]) == 0
    report = parse_report(series)
    # coincident limits; the header restates neither them nor E[0]
    assert (report.meta["theta"], report.meta["mu"], report.meta["K_const"]) == (0, 0, 0)
    assert not report.meta.keys() & {"theta_lt_half", "E0", "tail_ok", "same_limits",
                                     "reference"}
    assert report.E[-1] < report.E[0]


@pytest.mark.parametrize("limits", ["coincident", "jump", "jump-merged"])
def test_in_dir_series_matches_self_contained(tmp_path, cfg_file, limits):
    cfg_file.write_text({"coincident": FAST_CFG, "jump": JUMP_CFG,
                         "jump-merged": MERGED_JUMP_CFG}[limits])
    snap_dir = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out-dir", str(snap_dir)]) == 0
    if limits == "jump-merged":
        # snapshots on two grids: 160 cells up to t = 3, 80 after, each file
        # with the dx of its own grid
        grids = {(cols["x"].size, round(head["dx"], 12))
                 for head, cols in map(read_csv, snap_dir.glob("snapshot_*.csv"))}
        assert grids == {(160, 0.1), (80, 0.2)}
    from_dir, direct = tmp_path / "from_dir.csv", tmp_path / "direct.csv"
    assert main(["diagnose", "--config", str(cfg_file),
                 "--in-dir", str(snap_dir), "--out", str(from_dir)]) == 0
    assert main(["diagnose", "--config", str(cfg_file),
                 "--out", str(direct)]) == 0
    assert from_dir.read_bytes() == direct.read_bytes()

    # snapshots of another schedule do not match this config
    other = tmp_path / "other.cfg"
    other.write_text(cfg_file.read_text().replace("tau_step = 0.25",
                                                  "tau_step = 0.125"))
    assert main(["diagnose", "--config", str(other), "--in-dir", str(snap_dir),
                 "--out", str(tmp_path / "s.csv")]) == 1


def test_snapshot_times_equal_to_six_digits_keep_their_files(tmp_path, capsys):
    # 21 snapshots within 2e-6 of each other: one file each, named by index
    cfg = tmp_path / "close.cfg"
    cfg.write_text("rho_minus = 1.0\nrho_plus = 1.0\n"
                   "X = 2.0\ndx = 0.25\nL_y = 1.0\ndy = 0.25\n"
                   "tau_max = 2e-6\ntau_step = 1e-7\n")
    snap_dir = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(snap_dir)]) == 0
    assert capsys.readouterr().out == f"wrote 21 snapshots to {snap_dir}\n"
    assert len(list(snap_dir.glob("snapshot_*.csv"))) == 21
    from_dir, direct = tmp_path / "from_dir.csv", tmp_path / "direct.csv"
    assert main(["diagnose", "--config", str(cfg), "--in-dir", str(snap_dir),
                 "--out", str(from_dir)]) == 0
    assert main(["diagnose", "--config", str(cfg), "--out", str(direct)]) == 0
    assert from_dir.read_bytes() == direct.read_bytes()
    assert len(list(tmp_path.glob("scaled_*.csv"))) == 21


def test_malformed_flags_exit_1(tmp_path, cfg_file, capsys):
    # argparse's own exit code 2 would read as a numerical failure
    out = str(tmp_path / "s.csv")
    for argv in (["diagnose", "--config", str(cfg_file), "--reference", "auto", "--out", out],
                 ["profile", "--rho-minus", "abc", "--rho-plus", "0.95", "--out", out],
                 ["simulate", "--config", str(cfg_file)],
                 ["no-such-command"], []):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
    assert not (tmp_path / "s.csv").exists()


def test_report_exit_codes(tmp_path, cfg_file, capsys):
    series = tmp_path / "series.csv"
    main(["diagnose", "--config", str(cfg_file), "--out", str(series)])
    report = parse_report(series)
    # past E[0], the E0 of the envelope: E above the envelope
    report.E[1:] = 2.0 * report.envelope[1:]
    emit_report(report, series)
    assert main(["report", str(series)]) == 3
    del report.meta["ineq_tol"]
    emit_report(report, series)
    assert main(["report", str(series)]) == 1
    # not an entropy series: a simulate snapshot, a config file, no file
    snap_dir = tmp_path / "snaps"
    main(["simulate", "--config", str(cfg_file), "--out-dir", str(snap_dir)])
    snapshot = sorted(snap_dir.glob("snapshot_*.csv"))[0]
    capsys.readouterr()
    for path in (snapshot, cfg_file, tmp_path / "missing.csv"):
        assert main(["report", str(path)]) == 1, path
        assert capsys.readouterr().err.count("\n") == 1, path


@pytest.mark.parametrize("key, value", [
    ("theta", "abc"), ("mu", None), ("ineq_tol", "x"), ("E0", float("nan")),
    ("K_const", [1.0]), ("theta", float("inf")), ("mu", True),
])
def test_report_rejects_a_non_numeric_header(tmp_path, cfg_file, capsys, key, value):
    series = tmp_path / "series.csv"
    main(["diagnose", "--config", str(cfg_file), "--out", str(series)])
    report = parse_report(series)
    if key == "E0":  # not a header key: the E column's first row
        report.E[0] = value
        name = "E0, the E column's first row,"
    else:
        report.meta[key] = value
        name = f"header {key}"
    emit_report(report, series)
    capsys.readouterr()
    assert main(["report", str(series)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{name} must be a finite number" in err, err


def _synthetic_series(theta, mu, tau_max, K_const=0.1):
    """A jump-limit series, E = E0 e^{-tau}, with a small dissipation."""
    tau = np.linspace(0.0, tau_max, 21)
    z = np.zeros_like(tau)
    return EntropyReport(
        tau=tau, E=1e-2 * np.exp(-tau), D_alpha=1e-3 * np.exp(-tau), Xi1=z, Xi2=z, Xi3=z,
        meta={"theta": theta, "mu": mu, "K_const": K_const, "ineq_tol": 1e-3})


def _add_stale_columns(series, **columns):
    """Append `columns` to the series file, as an older diagnose wrote them."""
    meta, cols = read_csv(series)
    write_csv(series, meta, {**cols, **columns})


def _interval_residuals(tau, E, D, Xi):
    """dE/dtau + D + E/2 - Xi on each interval, written out apart from lab's:
    the forward difference of E against trapezoid averages."""
    avg = lambda v: 0.5 * (v[1:] + v[:-1])
    return np.diff(E) / np.diff(tau) + avg(D) + 0.5 * avg(E) - avg(Xi)


def test_report_derives_the_residual_past_stale_columns(tmp_path, capsys):
    # an older series' envelope (1.0) and ineq_residual (5.0) columns are
    # not read: report prints the residual of the series' own E, D and Xi,
    # and the same verdicts as on the series without those columns
    cfg, series = tmp_path / "jump.cfg", tmp_path / "series.csv"
    cfg.write_text(JUMP_CFG)
    assert main(["diagnose", "--config", str(cfg), "--out", str(series)]) == 0
    capsys.readouterr()
    rc = main(["report", str(series)])
    clean = capsys.readouterr().out
    meta, cols = read_csv(series)
    worst = np.max(_interval_residuals(cols["tau"], cols["E"], cols["D_alpha"],
                                       cols["Xi1"] + cols["Xi2"] + cols["Xi3"]))
    ones = np.ones_like(cols["tau"])
    _add_stale_columns(series, envelope=ones, ineq_residual=5.0 * ones)
    assert main(["report", str(series)]) == rc
    out = capsys.readouterr().out
    assert out == clean and "[PASS] entropy decay envelope" in out
    assert f"max inequality residual = {worst:.3e} (tol {meta['ineq_tol']:.3e})\n" in out


@pytest.mark.parametrize("theta, mu, tau_max, verdicts", [
    (0.025, 0.04, 4.0, (True, True)),
    (0.1, 1.3, 2.0, (True, False)),    # the threshold tau 2.36 is past the end
    (2.74, 0.04, 4.0, (False, False)),  # theta >= 1/2: no envelope is proved
])
def test_report_and_verify_give_one_verdict(tmp_path, capsys, monkeypatch,
                                           theta, mu, tau_max, verdicts):
    series = tmp_path / "series.csv"
    emit_report(_synthetic_series(theta, mu, tau_max), series)
    monkeypatch.setattr(verify, "_report", lambda name: parse_report(series))
    checks = [verify.check_jump_envelope(), verify.check_jump_dissipation()]
    assert tuple(c.passed for c in checks) == verdicts
    capsys.readouterr()
    assert main(["report", str(series)]) == (0 if all(verdicts) else 3)
    out, err = capsys.readouterr()
    assert err == ""
    for check, name in zip(checks, ("entropy decay envelope", "dissipation tail bound")):
        assert f"[{'PASS' if check.passed else 'FAIL'}] {name}: {check.detail}\n" in out
    assert "nan" not in out


@pytest.mark.parametrize("theta, K_const", [(0.6, 0.1), (0.0, 0.1)])
def test_no_stored_flag_grants_an_envelope(tmp_path, capsys, monkeypatch, theta, K_const):
    # theta >= 1/2, or K > 0 at theta = 0: the paper proves no envelope, so
    # both rules fail, whatever a stale envelope column and header say
    report = _synthetic_series(theta, 0.04, 4.0, K_const)
    report.meta.update(theta_lt_half=True, E0=123.0, same_limits=False)
    series = tmp_path / "series.csv"
    emit_report(report, series)
    _add_stale_columns(series, envelope=np.ones_like(report.tau))
    monkeypatch.setattr(verify, "_report", lambda name: parse_report(series))
    for check in (verify.check_jump_envelope, verify.check_jump_dissipation):
        assert not check().passed
    capsys.readouterr()
    assert main(["report", str(series)]) == 3
    out = capsys.readouterr().out
    # each detail names the condition that fails: theta > 0 at theta = 0
    needs = "theta < 1/2" if theta >= 0.5 else "0 < theta < 1/2 at K > 0"
    assert (f"theta = {theta:.4f}, theta_lt_half = False, mu = 0.0400, K = 0.1000, "
            f"E0 = 1.0000e-02: the paper proves no envelope unless {needs}\n") in out
    assert f"[FAIL] dissipation tail bound: theta = {theta:.4f}: the bound needs {needs}\n" in out


def test_report_names_an_inconclusive_dissipation_check(tmp_path, capsys):
    # threshold 2 log(2 mu / (1 - 2 theta)) = 2.36 lies past tau = 2: the
    # tail bound is not checked, which still exits 3
    report = _synthetic_series(0.1, 1.3, 2.0)
    series = tmp_path / "series.csv"
    emit_report(report, series)
    assert main(["report", str(series)]) == 3
    out = capsys.readouterr().out
    assert ("dissipation tail bound: inconclusive (threshold tau = 2.36 past "
            "the series end tau = 2)\n") in out
    assert "passed=" not in out and "margin=nan" not in out


# rho_+ = 0.004 at alpha = 0.3: theta = 30.4 and mu = 1780, so e^{mu/2} overflows
OVERFLOW_CFG = (JUMP_CFG.replace("rho_plus = 0.95", "rho_plus = 0.004")
                .replace("alpha = 1.0", "alpha = 0.3").replace("dy = 0.1", "dy = 0.02"))


def test_no_envelope_without_theta_below_one_half(tmp_path, capsys):
    # the envelope is NaN, not evaluated, and report fails both rules on theta
    cfg, series = tmp_path / "overflow.cfg", tmp_path / "series.csv"
    cfg.write_text(OVERFLOW_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagnose", "--config", str(cfg), "--out", str(series)]) == 0
    assert "inf" not in series.read_text()
    report = parse_report(series)
    assert report.meta["theta"] > 0.5
    assert np.all(np.isnan(report.envelope)) and np.all(np.isfinite(report.E))
    capsys.readouterr()
    assert main(["report", str(series)]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    theta = f"theta = {report.meta['theta']:.4f}"
    assert f"[FAIL] entropy decay envelope: {theta}, theta_lt_half = False" in out
    assert "the paper proves no envelope unless theta < 1/2\n" in out
    assert f"[FAIL] dissipation tail bound: {theta}: the bound needs theta < 1/2" in out
    worst = np.max(report.ineq_residual)
    assert f"max inequality residual = {worst:.3e} " in out and "nan" not in out


def test_report_and_verify_read_the_worst_interval(tmp_path, capsys, monkeypatch):
    # every interval's residual is negative; a stale ineq_residual column,
    # the placeholder 0 of older series in row 0 and 1e-4 elsewhere, is not read
    report = _synthetic_series(0.025, 0.04, 4.0)
    report.meta["dtau"] = 0.2
    series = tmp_path / "series.csv"
    emit_report(report, series)
    stale = np.full_like(report.tau, 1e-4)
    stale[0] = 0.0
    _add_stale_columns(series, ineq_residual=stale)
    residual = _interval_residuals(report.tau, report.E, report.D_alpha, report.Xi1)
    assert residual.size == report.tau.size - 1 and np.all(residual < 0)
    worst = np.max(residual)
    capsys.readouterr()
    assert main(["report", str(series)]) == 0
    assert f"max inequality residual = {worst:.3e} (tol 1.000e-03)\n" in capsys.readouterr().out
    monkeypatch.setattr(verify, "_report", lambda name, **overrides: parse_report(series))
    check = verify.check_discrete_inequality()
    assert f"jump/fine: max residual {worst:.2e} vs tol 1.00e-03" in check.detail


def test_report_command(tmp_path, cfg_file, capsys):
    series = tmp_path / "series.csv"
    main(["diagnose", "--config", str(cfg_file), "--out", str(series)])
    capsys.readouterr()
    assert main(["report", str(series)]) == 0
    out = capsys.readouterr().out
    assert "samples: 3" in out
    assert "E:" in out


def test_report_of_a_series_without_rows_exits_1(tmp_path, cfg_file, capsys):
    series = tmp_path / "series.csv"
    main(["diagnose", "--config", str(cfg_file), "--out", str(series)])
    head = [line for line in series.read_text().splitlines()
            if line.startswith("#") or line.startswith("tau,")]
    series.write_text("\n".join(head) + "\n")
    capsys.readouterr()
    assert main(["report", str(series)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no rows" in err, err


def test_report_skips_a_degenerate_fit(tmp_path, cfg_file, capsys):
    # tau = 0, 0.6: the fit window (0.3, 0.6) holds one sample
    series = tmp_path / "series.csv"
    main(["diagnose", "--config", str(cfg_file), "--out", str(series)])
    report = parse_report(series)
    for name in ("tau", "E", "D_alpha", "Xi1", "Xi2", "Xi3"):
        setattr(report, name, getattr(report, name)[[0, -1]])
    report.tau = np.array([0.0, 0.6])
    emit_report(report, series)
    capsys.readouterr()
    assert main(["report", str(series)]) in (0, 3)
    out, err = capsys.readouterr()
    assert err == ""
    assert "fitted decay rate skipped: fit window contains fewer than two samples" in out
    assert "entropy decay envelope: theta = " in out and "dissipation tail bound" in out
    assert "max inequality residual" in out


def test_unknown_config_key_exits_1(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rho_minuss = 1.0\n")
    assert main(["simulate", "--config", str(bad),
                 "--out-dir", str(tmp_path / "o")]) == 1


def test_invalid_config_value_exits_1(tmp_path, capsys):
    jump = "rho_minus = 1.05\nrho_plus = 0.95\n"
    for text in ("rho_minus = -1.0\n", "tau_max = nan\n", "dx = 100\n",
                 "dy = 100\n", "tau_step = 10.0\n", jump + "alpha = nan\n",
                 jump + "gamma = inf\n", "dx = 1e-320\n", "dx = 1e-6\n",
                 "ineq_slack = 0.05\n",
                 "initial_base = step\n", "reference = auto\n",
                 "dx = 0.02\ndx = 0.04\n"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["diagnose", "--config", str(bad),
                     "--out", str(tmp_path / "s.csv")]) == 1, text
        assert capsys.readouterr().err.count("\n") == 1, text


def test_vacuum_reference_exits_1(tmp_path, capsys):
    cfg = tmp_path / "vacuum.cfg"
    cfg.write_text(FAST_CFG.replace("= 1.0\nrho_plus = 1.0", "= 0.0\nrho_plus = 0.0"))
    assert main(["diagnose", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "far-field densities must be positive" in err, err


_FAR_FIELD = "far-field densities must be positive"


# each case: edits of the toy config, and the one line that refuses it
@pytest.mark.parametrize("limits", [
    ({"rho_minus": "0", "rho_plus": "1.0"}, _FAR_FIELD),
    ({"rho_minus": "1.0", "rho_plus": "0"}, _FAR_FIELD),
    ({"rho_minus": "0.0", "rho_plus": "-0.0"}, _FAR_FIELD),
    ({"rho_minus": "-1.0", "rho_plus": "1.0"}, _FAR_FIELD),
    ({"rho_minus": "1.0", "rho_plus": "-0.5"}, _FAR_FIELD),
    # no friction: the paper's system is damped, coincident limits included
    ({"rho_minus": "1.0", "rho_plus": "1.0", "alpha": "0"},
     "friction coefficient must be > 0"),
    # refused before the first step: a profile the plan cannot solve, a bump
    # that empties cells, a cfl above 1/2, an order other than 2
    ({"rho_plus": "0.001"}, "Newton line search stalled"),
    ({"amplitude": "-2.0"}, "initial density must stay positive"),
    ({"cfl": "0.7"}, "cfl must lie in (0, 1/2]"),
    ({"order": "1"}, "order must be 2"),
])
def test_far_field_not_positive_rejected_at_parse_time(tmp_path, capsys, monkeypatch,
                                                       limits):
    # refused before the first step: no step is taken and nothing is written
    edits, message = limits
    steps = []
    monkeypatch.setattr(dynamics, "_advance", lambda *args, **kwargs: steps.append(args))
    cfg = tmp_path / "bad.cfg"
    values = {**{key: repr(v) for key, v in _TOY_VALUES.items()}, **edits}
    cfg.write_text("".join(f"{key} = {v}\n" for key, v in values.items()))
    out_dir, series = tmp_path / "o", tmp_path / "s.csv"
    for command in (["simulate", "--config", str(cfg), "--out-dir", str(out_dir)],
                    ["diagnose", "--config", str(cfg), "--out", str(series)],
                    ["diagnose", "--config", str(cfg), "--in-dir", str(out_dir),
                     "--out", str(series)]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, (command, err)
    assert steps == [] and not out_dir.exists() and not series.exists()


def test_density_reaching_zero_exits_2(tmp_path, capsys, monkeypatch):
    # a first step of dt = 1/4 whose first stage (h = dt/2) empties every
    # cell of its window exactly: d rho = -8 rho, and rho - (8 rho)/8 = 0
    advance, rhs = dynamics._advance, dynamics._hyperbolic_rhs

    def emptying(ws, S, law, out):
        ends = rhs(ws, S, law, out)
        np.multiply(S[0][2:-2], -8.0, out=out[0])
        return ends

    monkeypatch.setattr(dynamics, "_advance",
                        lambda *args, **kwargs: advance(*args, **{**kwargs, "dt": 0.25}))
    monkeypatch.setattr(dynamics, "_hyperbolic_rhs", emptying)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(JUMP_CFG)
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "zero density" in err, err
    assert not (tmp_path / "o").exists()


# a valid toy value for every numeric config key: a jump on 160 cells
_TOY_VALUES = {
    "rho_minus": 1.05, "rho_plus": 0.95, "alpha": 1.0, "gamma": 2.0, "k": 1.0,
    "amplitude": 0.1, "width": 1.0, "center": 0.0, "X": 8.0, "dx": 0.1,
    "L_y": 4.0, "dy": 0.1, "tau_max": 0.5, "tau_step": 0.25, "order": 2,
    "cfl": 0.45,
}
_BAD_VALUES = ("nan", "inf", "-inf", "0", "-1")


@settings(max_examples=120, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(_TOY_VALUES)),
                       st.sampled_from(_BAD_VALUES), max_size=3))
@example({})
@example({"rho_minus": "0", "rho_plus": "0"})
@example({"rho_minus": "-1", "rho_plus": "-1"})
@example({"alpha": "0", "rho_minus": "0", "rho_plus": "0"})
def test_config_fuzz_one_line_errors(overrides):
    values = {**{key: repr(v) for key, v in _TOY_VALUES.items()}, **overrides}
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["diagnose", "--config", str(cfg),
                       "--out", str(Path(tmp) / "s.csv")])
    assert rc in (0, 1, 2), text
    assert overrides or rc == 0, (text, err.getvalue())  # the toy config runs
    if rc != 0:
        assert err.getvalue().count("\n") == 1, (text, err.getvalue())
        assert "Traceback" not in err.getvalue()


def test_domain_error_exits_1(tmp_path):
    # window guard: the scaled window leaves the physical domain
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(FAST_CFG.replace("X = 8.0", "X = 4.0"))
    assert main(["diagnose", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")]) == 1


def _rows(edit):
    """A corruption that keeps the header and edits the list of data rows."""
    def corrupt(text):
        lines = text.splitlines(keepends=True)
        head = sum(line.startswith("#") for line in lines) + 1
        return "".join(lines[:head] + edit(lines[head:]))
    return corrupt


def _swap_rows_70_90(rows):
    rows[70], rows[90] = rows[90], rows[70]
    return rows


def _density(value):
    """A row edit that sets the density of row 40."""
    def edit(rows):
        x, _, m = rows[40].split(",")
        rows[40] = f"{x},{value},{m}"
        return rows
    return edit


@pytest.mark.parametrize("corrupt", [
    lambda text: re.sub(r"^# t=.*$", "# t=abc", text, flags=re.M),
    lambda text: re.sub(r"^# t=.*$", "# t=[1,2]", text, flags=re.M),
    lambda text: re.sub(r"^# t=.*$", "# t=nan", text, flags=re.M),
    _rows(lambda rows: rows[:1]),
    _rows(lambda rows: []),
    _rows(_swap_rows_70_90),
    _rows(_density("nan")),
    _rows(_density("0.0")),
], ids=["t-abc", "t-list", "t-nan", "one-row", "no-rows", "x-unsorted", "rho-nan",
        "rho-zero"])
def test_diagnose_rejects_a_malformed_snapshot(tmp_path, cfg_file, capsys, corrupt):
    snap_dir = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out-dir", str(snap_dir)]) == 0
    bad = snap_dir / "snapshot_000001.csv"
    bad.write_text(corrupt(bad.read_text()))
    capsys.readouterr()
    assert main(["diagnose", "--config", str(cfg_file), "--in-dir", str(snap_dir),
                 "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and bad.name in err, err
    assert not (tmp_path / "s.csv").exists()


def test_diagnose_rejects_snapshots_short_of_the_window(tmp_path, cfg_file, capsys):
    # snapshots cut to x > 0 cannot hold the y-window's left half: exit 1
    # with one line, not a series read off the clamped left edge
    snap_dir = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out-dir", str(snap_dir)]) == 0
    for path in snap_dir.glob("snapshot_*.csv"):
        head, cols = read_csv(path)
        keep = cols["x"] > 0
        write_csv(path, head, {name: col[keep] for name, col in cols.items()})
    capsys.readouterr()
    assert main(["diagnose", "--config", str(cfg_file), "--in-dir", str(snap_dir),
                 "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds the physical domain" in err, err
    assert not (tmp_path / "s.csv").exists()


def test_diagnose_missing_snapshots_exits_1(tmp_path, cfg_file):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["diagnose", "--config", str(cfg_file),
                 "--in-dir", str(empty), "--out", str(tmp_path / "s.csv")]) == 1


def test_python_dash_m_runs_from_a_checkout():
    src = str(Path(diffusionwave.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "diffusionwave", "--help"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and "usage: diffusionwave" in out.stdout


def test_package_imports_without_scipy():
    src = str(Path(diffusionwave.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, diffusionwave, diffusionwave.cli, diffusionwave.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
