"""Command-line interface.

Subcommands: profile (solve and export a similarity profile), simulate
(run the physical solver from a config file), diagnose (transform snapshots
and emit entropy time series), report (summarize a time series), verify
(run the acceptance suite).  Exit codes: 0 success, 1 configuration or
domain error, 2 numerical failure, 3 acceptance violation (a failed verify
check, or a report of a series on which verify's envelope or dissipation
check would fail: both print lab's verdicts).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dynamics import PhysicalState, RunResult
from .errors import (ConfigError, DegenerateFitError, DomainError,
                     NumericalFailure, SolverFailure)
from .lab import (
    diagnose,
    dissipation_check,
    emit_report,
    envelope_check,
    fit_decay_rate,
    header_float,
    parse_config,
    parse_report,
    plan,
    read_csv,
    run_experiment,
    simulate,
    write_csv,
)
from .profile import LimitSpec, solve_profile
from .thermo import PressureLaw

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3


def _cmd_profile(args):
    prof = solve_profile(LimitSpec(args.rho_minus, args.rho_plus, args.alpha),
                         PressureLaw(k=args.k, gamma=args.gamma), L=args.L, dy=args.dy)
    # the grid solved on: the default L is a whole number of --dy, so its
    # spacing is --dy to rounding; a given --L keeps L and rounds the count
    write_csv(
        args.out,
        {"theta": prof.theta, "mu": prof.mu, "K": prof.K_const,
         "rho_minus": args.rho_minus, "rho_plus": args.rho_plus,
         "alpha": args.alpha, "gamma": args.gamma, "k": args.k,
         "L": float(prof.y[-1]), "dy": prof.dy},
        {"y": prof.y, "rho_star": prof.rho_star, "n_star": prof.n_star,
         "r_star": prof.r_star, "ode_residual": prof.ode_residual},
    )
    print(f"wrote {args.out}: theta={prof.theta:.6g} mu={prof.mu:.6g} "
          f"K={prof.K_const:.6g}")
    return EXIT_OK


def _cmd_simulate(args):
    cfg = parse_config(args.config)
    result = simulate(plan(cfg))
    # made only now: a run that fails (exit 1 or 2) leaves no directory
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = {"gamma": cfg.gamma, "k": cfg.k, "alpha": cfg.alpha,
              "rho_minus": cfg.rho_minus, "rho_plus": cfg.rho_plus,
              "dx": cfg.dx}
    # named by index: times that agree to a few digits must not collide;
    # dx is that of the snapshot's own grid, which coarsens as the run goes
    for i, snap in enumerate(result.snapshots):
        write_csv(out / f"snapshot_{i:06d}.csv", {**header, "dx": snap.dx, "t": snap.t},
                  {"x": snap.x, "rho": snap.rho, "m": snap.m})
    write_csv(out / "run_meta.csv", header, result.meta)
    print(f"wrote {len(result.snapshots)} snapshots to {out}")
    return EXIT_OK


def _read_snapshots(in_dir):
    """The snapshot files of a simulate run, in time order, as a RunResult."""
    snapshots = []
    for path in Path(in_dir).glob("snapshot_*.csv"):
        meta, cols = read_csv(path)
        t = header_float(path, meta, "t")
        try:
            x, rho, m = cols["x"], cols["rho"], cols["m"]
        except KeyError as exc:
            raise ConfigError(f"{path}: missing {exc}") from exc
        if x.size < 2:
            raise ConfigError(f"{path}: a snapshot needs at least two cells")
        if not (np.all(np.isfinite([x, rho, m])) and np.all(np.diff(x) > 0)):
            raise ConfigError(
                f"{path}: x, rho and m must be finite and x strictly increasing")
        try:
            snapshots.append(PhysicalState(x, rho, m, t))
        except DomainError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not snapshots:
        raise ConfigError(f"no snapshot files in {in_dir}")
    return RunResult(sorted(snapshots, key=lambda snap: snap.t))


def _cmd_diagnose(args):
    cfg = parse_config(args.config)
    out = Path(args.out)
    if args.in_dir:
        def write_scaled(i, fld):
            write_csv(out.parent / f"scaled_{i:06d}.csv", {"tau": fld.tau},
                      {"y": fld.y, "rho": fld.rho, "n": fld.n})
        report = diagnose(plan(cfg), _read_snapshots(args.in_dir), write_scaled)
    else:
        report = run_experiment(cfg)
    emit_report(report, out)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_report(args):
    report = parse_report(args.timeseries)
    tau = report.tau
    print(f"samples: {len(tau)}, tau in [{tau[0]:g}, {tau[-1]:g}]")
    print(f"E: {report.E[0]:.6e} -> {report.E[-1]:.6e}")
    if np.all(report.E > 0) and tau[-1] > 0.5:
        try:
            rate, rms = fit_decay_rate(report, (min(0.5, tau[-1] / 2), tau[-1]))
            print(f"fitted decay rate {rate:.4f} (rms {rms:.2e})")
        except DegenerateFitError as exc:
            print(f"fitted decay rate skipped: {exc}")
    verdicts = {"entropy decay envelope": envelope_check(report),
                "dissipation tail bound": dissipation_check(report)}
    for name, (passed, detail) in verdicts.items():
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    print(f"max inequality residual = {report.worst_ineq_residual:.3e} "
          f"(tol {report.meta['ineq_tol']:.3e})")
    return EXIT_OK if all(v.passed for v in verdicts.values()) else EXIT_VIOLATION


def _cmd_verify(args):
    from .verify import run_all

    results = run_all()
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VIOLATION if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Malformed flags are a configuration error (exit 1, one line), not
    argparse's exit 2 with a usage dump: 2 means a numerical failure."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="diffusionwave",
        description="Numerical laboratory for damped Euler flow relaxing "
                    "to a nonlinear diffusion wave",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="solve a similarity profile")
    p.add_argument("--rho-minus", type=float, required=True)
    p.add_argument("--rho-plus", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--dy", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("simulate", help="run the physical solver")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diagnose", help="entropy diagnostics in scaling variables")
    p.add_argument("--config", required=True)
    p.add_argument("--in-dir", default=None,
                   help="snapshot directory from a previous simulate run, whose "
                        "scaled fields go to scaled_*.csv beside --out; "
                        "omitted: simulate internally")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("report", help="summarize an entropy time series")
    p.add_argument("timeseries")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, DomainError, SolverFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
