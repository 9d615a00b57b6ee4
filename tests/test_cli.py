"""Command-line interface: subcommand smoke tests and exit codes."""

import contextlib
import io
import os
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
from diffusionwave.cli import main
from diffusionwave.dynamics import PhysicalState
from diffusionwave.lab import emit_report, parse_report, read_csv

FAST_CFG = """\
rho_minus = 1.0
rho_plus = 1.0
alpha = 1.0
perturbation = bump
amplitude = 0.1
X = 8.0
dx = 0.1
L_y = 4.0
dy = 0.1
tau_max = 0.5
tau_step = 0.25
"""


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


def test_profile_bad_input_exits_1(tmp_path, capsys):
    # grids are rejected before any allocation: 1e-7 would ask for 4e8 nodes;
    # the last inputs overflow or make the Newton system singular
    out = tmp_path / "prof.csv"
    for flags in (["--dy", "1e-320"], ["--dy", "-0.5"], ["--dy", "0"],
                  ["--dy", "1e-7"], ["--dy", "nan"], ["--dy", "inf"],
                  ["--L", "0"], ["--L", "-1"], ["--L", "inf"], ["--L", "nan"],
                  ["--L", "1e300"], ["--rho-minus", "nan"], ["--alpha", "inf"],
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


def test_run_meta_audits_the_momentum_ledger(tmp_path, cfg_file):
    # momentum - initial momentum - boundary flux + damping sink telescopes
    # to rounding; the jump keeps a net pressure flux through the boundary
    cfg_file.write_text(FAST_CFG.replace("rho_minus = 1.0", "rho_minus = 1.05")
                        .replace("rho_plus = 1.0", "rho_plus = 0.95"))
    snap_dir = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out-dir", str(snap_dir)]) == 0
    _, meta = read_csv(snap_dir / "run_meta.csv")
    head, first = read_csv(snap_dir / "snapshot_000000.csv")
    initial = PhysicalState(first["x"], first["rho"], first["m"], head["t"])
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
    assert report.meta["same_limits"] is True
    assert report.E[-1] < report.E[0]


@pytest.mark.parametrize("limits", ["coincident", "jump"])
def test_in_dir_series_matches_self_contained(tmp_path, cfg_file, limits):
    if limits == "jump":
        cfg_file.write_text(FAST_CFG.replace("rho_minus = 1.0", "rho_minus = 1.05")
                            .replace("rho_plus = 1.0", "rho_plus = 0.95"))
    snap_dir = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out-dir", str(snap_dir)]) == 0
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
    cfg.write_text("rho_minus = 1.0\nrho_plus = 1.0\nperturbation = bump\n"
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
    for argv in (["diagnose", "--config", str(cfg_file), "--reference", "bogus", "--out", out],
                 ["diagnose", "--config", str(cfg_file), "--reference", "smoothed_step",
                  "--out", out],
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
    report.E = 2.0 * report.envelope
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
    for name in ("tau", "E", "D_alpha", "Xi1", "Xi2", "Xi3", "envelope",
                 "ineq_residual"):
        setattr(report, name, getattr(report, name)[[0, -1]])
    report.tau = np.array([0.0, 0.6])
    emit_report(report, series)
    capsys.readouterr()
    assert main(["report", str(series)]) in (0, 3)
    out, err = capsys.readouterr()
    assert err == ""
    assert "fitted decay rate skipped: fit window contains fewer than two samples" in out
    assert "max E/envelope" in out and "dissipation tail bound" in out
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
                 jump + "gamma = inf\n", "dx = 1e-320\n", "dx = 1e-6\n"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["diagnose", "--config", str(bad),
                     "--out", str(tmp_path / "s.csv")]) == 1, text
        assert capsys.readouterr().err.count("\n") == 1, text


def test_vacuum_reference_exits_1(tmp_path, capsys):
    cfg = tmp_path / "vacuum.cfg"
    cfg.write_text(FAST_CFG.replace("= 1.0\nrho_plus = 1.0", "= 0.0\nrho_plus = 0.0"))
    for ref in ([], ["--reference", "smoothed-step"]):
        assert main(["diagnose", "--config", str(cfg), *ref,
                     "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bounded away from 0" in err, err


# a valid toy value for every numeric config key: a jump on 160 cells
_TOY_VALUES = {
    "rho_minus": 1.05, "rho_plus": 0.95, "alpha": 1.0, "gamma": 2.0, "k": 1.0,
    "amplitude": 0.1, "width": 1.0, "center": 0.0, "X": 8.0, "dx": 0.1,
    "L_y": 4.0, "dy": 0.1, "tau_max": 0.5, "tau_step": 0.25, "order": 2,
    "cfl": 0.45, "ineq_slack": 0.05,
}
_BAD_VALUES = ("nan", "inf", "-inf", "0", "-1")


@settings(max_examples=120, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(_TOY_VALUES)),
                       st.sampled_from(_BAD_VALUES), max_size=3))
@example({"rho_minus": "0", "rho_plus": "0"})
@example({"rho_minus": "-1", "rho_plus": "-1"})
@example({"alpha": "0", "rho_minus": "0", "rho_plus": "0"})
def test_config_fuzz_one_line_errors(overrides):
    values = {**{key: repr(v) for key, v in _TOY_VALUES.items()}, **overrides}
    text = "perturbation = bump\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["diagnose", "--config", str(cfg),
                       "--out", str(Path(tmp) / "s.csv")])
    assert rc in (0, 1, 2), text
    if rc != 0:
        assert err.getvalue().count("\n") == 1, (text, err.getvalue())
        assert "Traceback" not in err.getvalue()


def test_domain_error_exits_1(tmp_path):
    # window guard: the scaled window leaves the physical domain
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(FAST_CFG.replace("X = 8.0", "X = 4.0"))
    assert main(["diagnose", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")]) == 1


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
