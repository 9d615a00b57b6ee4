"""The benchmark's workloads: a config drawn from a seed, the timed
operation, and the check of its output.

- jump_fine: lab.run_experiment on the jump acceptance config (6000 cells,
  41 snapshots, profile reference). The solver dominates; per-cell work and
  memory traffic on large arrays set the time.
- jump_dense_diag: `diffusionwave diagnose --config` (cli.main, which runs
  lab.run_experiment and writes the series CSV) on the same limits at
  dx=0.1, dy=0.005, tau_step=0.01 (1200 cells, 401 snapshots, 3201-node
  y-grid). Diagnostics (scaling and entropy) take a large share, and the
  solver runs on small arrays where fixed cost per step dominates.

The seed only moves the jump, 1 +- delta with delta in [0.045, 0.055]; cell
and snapshot counts stay fixed. Seed 0 gives the acceptance values exactly,
and its output is also compared with a series stored in reference/.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from diffusionwave import cli, lab

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Grid and snapshot spacing of each workload; the seed never changes them.
GRIDS = {
    "jump_fine": dict(dx=0.02, dy=0.02, tau_step=0.1),
    "jump_dense_diag": dict(dx=0.1, dy=0.005, tau_step=0.01),
}
NAMES = tuple(GRIDS)
VIA_CLI = {"jump_dense_diag"}
# Toy size for the self-test: a few hundred cells and eleven snapshots.
TOY_GRID = dict(X=20.0, dx=0.1, dy=0.04, tau_max=1.0, tau_step=0.1)
# Cells and kernel steps of one host-speed calibration burst (calibrate.py):
# the cells of the workload's grid, and steps for about 25 ms.
CALIBRATION = {
    "jump_fine": (6000, 100),
    "jump_dense_diag": (1200, 200),
}
TOY_CALIBRATION = (200, 100)

ENVELOPE_SLACK = 1.05
MASS_DRIFT_TOL = 1e-10
BOUNDARY_WARNING = "waves reached the boundary cells"


def make_config(name, seed, toy=False):
    """The ExperimentConfig of a workload for one seed."""
    if name not in GRIDS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    delta = 0.05 if seed == DEFAULT_SEED else float(
        np.random.default_rng(seed).uniform(0.045, 0.055))
    grid = {**dict(X=60.0, L_y=8.0, tau_max=4.0), **GRIDS[name],
            **(TOY_GRID if toy else {})}
    return lab.ExperimentConfig(rho_minus=1.0 + delta, rho_plus=1.0 - delta,
                                alpha=1.0, gamma=2.0, k=1.0, **grid)


def config_text(cfg):
    """The config as a `key = value` file that lab.parse_config reads back."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        lines.append(f"{f.name} = {value if isinstance(value, str) else repr(value)}\n")
    return "".join(lines)


@dataclass
class Outcome:
    """What one operation produced, in the form the check reads."""

    report: object = None        # lab.EntropyReport
    run_result: object = None    # dynamics.RunResult, when the operation returns it
    exit_code: int = 0           # CLI exit code


class Workload:
    """One workload at one seed; operations write under work_dir.

    At the default seed and full size, the output is also compared with the
    stored series, unless check_reference is false (when making that series).
    """

    def __init__(self, name, seed, work_dir, toy=False, check_reference=True):
        self.name, self.seed, self.toy = name, seed, toy
        self.cfg = make_config(name, seed, toy)
        self.calibration = TOY_CALIBRATION if toy else CALIBRATION[name]
        self.work_dir = Path(work_dir)
        self.via_cli = name in VIA_CLI
        self.reference = None
        if check_reference and seed == DEFAULT_SEED and not toy:
            self.reference = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
        self.cfg_path = self.work_dir / "workload.cfg"
        self.series_path = self.work_dir / "series.csv"
        if self.via_cli:
            self.cfg_path.write_text(config_text(self.cfg))

    def run_op(self):
        """The timed operation. Its return value goes to outcome()."""
        if not self.via_cli:
            return lab.run_experiment(self.cfg)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["diagnose", "--config", str(self.cfg_path),
                             "--out", str(self.series_path)])

    def outcome(self, raw):
        """Read an operation's output back; removes the file it wrote."""
        if not self.via_cli:
            return Outcome(report=raw, run_result=raw.run_result)
        if raw != 0:
            return Outcome(exit_code=raw)
        try:
            return Outcome(report=lab.parse_report(self.series_path))
        finally:
            self.series_path.unlink(missing_ok=True)

    def check(self, outcome):
        """Problems with one operation's output; empty when it is correct."""
        if outcome.exit_code != 0:
            return [f"exit code {outcome.exit_code}"]
        rep, cfg = outcome.report, self.cfg
        n = len(lab.tau_schedule(cfg))
        if len(rep.tau) != n:
            return [f"{len(rep.tau)} snapshots, expected {n}"]
        if not np.all(np.isfinite(rep.E)):
            return ["non-finite relative entropy"]
        problems = []
        bound = ENVELOPE_SLACK * rep.envelope
        if not np.all(rep.E <= bound):
            problems.append(f"E above {ENVELOPE_SLACK} x envelope: "
                            f"max ratio {np.nanmax(rep.E / bound):.4g}")
        tol = rep.meta["ineq_tol"]
        worst = float(np.max(rep.ineq_residual))
        if not worst <= tol:
            problems.append(f"inequality residual {worst:.3e} above tolerance {tol:.3e}")
        if outcome.run_result is not None:
            meta = outcome.run_result.meta
            mass0 = outcome.run_result.snapshots[0].mass
            drift = float(np.max(np.abs(meta["mass"] - mass0 - meta["boundary_flux_mass"]))) / mass0
            if not drift <= MASS_DRIFT_TOL:
                problems.append(f"relative mass-ledger drift {drift:.2e}")
        if self.reference is not None:
            dev = float(np.max(np.abs(rep.E - np.asarray(self.reference["E"]))))
            if not dev <= self.reference["gap"]:
                problems.append(f"E differs from the stored series by {dev:.3e}, "
                                f"more than the fine-coarse gap {self.reference['gap']:.3e}")
        return problems
