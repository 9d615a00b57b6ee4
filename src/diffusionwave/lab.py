"""Experiment harness: configuration, end-to-end runs, envelopes, reports.

One pipeline, config -> simulate -> snapshots -> diagnose -> report:
`simulate(cfg)` builds the initial data and runs the solver to a RunResult,
`diagnose(cfg, run_result)` maps each snapshot to scaling variables and
measures the relative entropy against the reference in an EntropyReport,
and `run_experiment(cfg)` chains the two.  Also the theoretical decay
envelopes, rate fitting, the dissipation tail check, and CSV emission and
parsing for all artifacts.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dynamics import PhysicalState, RunResult, SolverConfig, run
from .entropy import ReferencePair, error_terms, total_relative_entropy
from .errors import ConfigError, DegenerateFitError, DomainError
from .grids import cell_grid, grid_count, node_grid
from .profile import LimitSpec, solve_profile
from .scaling import to_scaled
from .thermo import PressureLaw

__all__ = [
    "ExperimentConfig",
    "EntropyReport",
    "parse_config",
    "simulate",
    "diagnose",
    "run_experiment",
    "fit_decay_rate",
    "theoretical_bound",
    "dissipation_check",
    "DissipationCheck",
    "emit_report",
    "parse_report",
    "write_csv",
    "read_csv",
]


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    # law and far field
    rho_minus: float = 1.0
    rho_plus: float = 1.0
    alpha: float = 1.0
    gamma: float = 2.0
    k: float = 1.0
    # initial data: base density (far-field step or similarity profile) plus
    # an optional localized perturbation of the density
    initial_base: str = "step"          # step | profile
    perturbation: str = "none"          # none | bump | ramp
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    # grids
    X: float = 60.0
    dx: float = 0.02
    L_y: float = 8.0
    dy: float = 0.02
    # schedule
    tau_max: float = 4.0
    tau_step: float = 0.1
    # diagnostics and solver
    reference: str = "auto"             # auto | constant | smoothed-step | profile
    order: int = 2
    cfl: float = 0.45
    ineq_slack: float = 0.05            # coefficient of the inequality tolerance

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.initial_base not in ("step", "profile"):
            raise ConfigError(f"unknown initial_base {self.initial_base!r}")
        if self.perturbation not in ("none", "bump", "ramp"):
            raise ConfigError(f"unknown perturbation {self.perturbation!r}")
        if self.reference not in ("auto", "constant", "smoothed-step", "profile"):
            raise ConfigError(f"unknown reference {self.reference!r}")
        if self.tau_max <= 0 or self.tau_step <= 0:
            raise ConfigError("tau_max and tau_step must be positive")
        if self.dx <= 0 or self.dy <= 0 or self.X <= 0 or self.L_y <= 0:
            raise ConfigError("grid parameters must be positive")
        if self.width <= 0:
            raise ConfigError("perturbation width must be positive")
        if (grid_count(2.0 * self.X, self.dx) < 2
                or grid_count(2.0 * self.L_y, self.dy) < 1):
            raise ConfigError("grids need at least two cells and two y-nodes")
        if grid_count(self.tau_max, self.tau_step) < 1:
            raise ConfigError(
                "the schedule tau_max/tau_step has no snapshot after tau = 0")


_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_config(path):
    """Read a flat `key = value` config file; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _CONFIG_TYPES[key]
        try:
            if kind in ("float", float):
                values[key] = float(value)
            elif kind in ("int", int):
                values[key] = int(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# experiment pieces


def tau_schedule(cfg):
    n = grid_count(cfg.tau_max, cfg.tau_step)
    return np.round(np.linspace(0.0, n * cfg.tau_step, n + 1), 12)


def build_initial(cfg, x, limits, profile=None):
    """Initial (rho, m): step or profile base plus a density perturbation."""
    if cfg.initial_base == "profile":
        if profile is None:
            raise ConfigError("profile initial data requires a non-constant profile")
        ref = ReferencePair.from_profile(profile, limits)
        rho = np.asarray(ref.rho(x), dtype=float)
        m = np.asarray(ref.n(x), dtype=float)  # n = m at t = 0
    else:
        rho = limits.step_density(x).astype(float)
        m = np.zeros_like(x)

    if cfg.perturbation == "bump":
        rho = rho + cfg.amplitude * np.exp(-((x - cfg.center) ** 2) / (2.0 * cfg.width**2))
    elif cfg.perturbation == "ramp":
        s = np.clip((x - cfg.center) / cfg.width, -1.0, 1.0)
        rho = rho + cfg.amplitude * 0.5 * (1.0 + s) * (1.0 - np.abs(s))
    if np.any(rho <= 0):
        raise ConfigError("initial density must stay positive")
    return rho, m


def make_reference(cfg, limits, law, profile):
    kind = cfg.reference
    if kind == "auto":
        kind = "constant" if limits.same_limits else "profile"
    if kind == "constant":
        if not limits.same_limits:
            raise ConfigError("constant reference requires coincident limits")
        return ReferencePair.constant(limits.rho_plus), "constant"
    if kind == "smoothed-step":
        return ReferencePair.smoothed_step(limits), "smoothed-step"
    if profile is None:
        raise ConfigError("profile reference requires non-coincident limits")
    return ReferencePair.from_profile(profile, limits), "profile"


# ---------------------------------------------------------------------------
# report


@dataclass
class EntropyReport:
    tau: np.ndarray
    E: np.ndarray
    D_alpha: np.ndarray
    Xi1: np.ndarray
    Xi2: np.ndarray
    Xi3: np.ndarray
    envelope: np.ndarray
    ineq_residual: np.ndarray
    meta: dict = field(default_factory=dict)
    fields_scaled: list = field(default_factory=list)  # ScaledField per snapshot
    run_result: RunResult | None = None                 # the diagnosed run

    @property
    def E0(self):
        return float(self.E[0])


def _inequality_residual(tau, E, D, Xi_total):
    """Per-interval defect of the relative-entropy inequality,
    dE/dtau + D + E/2 <= Xi: forward difference of E against
    trapezoid-averaged D, E, Xi on each interval."""
    avg = lambda v: 0.5 * (v[1:] + v[:-1])
    return np.diff(E) / np.diff(tau) + avg(D) + 0.5 * avg(E) - avg(Xi_total)


def theoretical_bound(tau, E0, theta, mu, K_const, same_limits):
    """Decay envelope: e^{-tau/2} E0 for coincident limits, else
    e^{-(1/2-theta)tau + mu/2} (E0 + K/theta)."""
    tau = np.asarray(tau, dtype=float)
    if same_limits:
        out = E0 * np.exp(-0.5 * tau)
    else:
        if theta <= 0:
            raise DomainError(
                "the jump-case envelope needs theta > 0; "
                "use the coincident-limit branch instead"
            )
        out = np.exp(-(0.5 - theta) * tau + 0.5 * mu) * (E0 + K_const / theta)
    return float(out) if out.ndim == 0 else out


def simulate(cfg):
    """Build the initial data and run the solver through the snapshot
    times expm1(tau_schedule(cfg))."""
    law = PressureLaw(k=cfg.k, gamma=cfg.gamma)
    limits = LimitSpec(cfg.rho_minus, cfg.rho_plus, cfg.alpha)
    profile = None
    if not limits.same_limits and cfg.initial_base == "profile":
        profile = solve_profile(limits, law, dy=cfg.dy)
    x = cell_grid(cfg.X, cfg.dx)
    rho0, m0 = build_initial(cfg, x, limits, profile)
    t_snap = np.expm1(tau_schedule(cfg))
    scfg = SolverConfig(cfl=cfg.cfl, order=cfg.order,
                        snapshot_times=tuple(t_snap[1:]))
    return run(PhysicalState(x, rho0, m0, 0.0), scfg, law, limits,
               float(t_snap[-1]), scaled_halfwidth=cfg.L_y)


def diagnose(cfg, run_result):
    """Transform each snapshot to scaling variables and assemble the
    relative-entropy report against the configured reference.

    The reference density must be bounded away from 0 on the y-grid
    (ConfigError before any snapshot otherwise).  The reference is a
    function of y, evaluated once for the whole run
    (`ReferencePair.cached_eval`).
    """
    law = PressureLaw(k=cfg.k, gamma=cfg.gamma)
    limits = LimitSpec(cfg.rho_minus, cfg.rho_plus, cfg.alpha)
    taus = tau_schedule(cfg)
    t_snap = np.expm1(taus)
    times = np.array([snap.t for snap in run_result.snapshots])
    if times.shape != t_snap.shape or np.any(
            np.abs(times - t_snap) > 1e-12 * (1.0 + t_snap)):
        raise ConfigError(
            f"snapshot times do not match the schedule of the config "
            f"({len(times)} snapshots, {len(t_snap)} scheduled)"
        )

    profile = None
    theta = mu = K_const = 0.0
    if not limits.same_limits:
        profile = solve_profile(limits, law, dy=cfg.dy)
        theta, mu, K_const = profile.theta, profile.mu, profile.K_const
    ref, ref_kind = make_reference(cfg, limits, law, profile)

    y = node_grid(cfg.L_y, cfg.dy)
    if not np.min(ref.rho(y)) > 0:
        raise ConfigError(
            f"the {ref_kind} reference density must be bounded away from 0 "
            f"(rho_minus = {cfg.rho_minus!r}, rho_plus = {cfg.rho_plus!r})")
    E = np.empty(len(taus))
    D = np.empty(len(taus))
    Xi = np.empty((len(taus), 3))
    fields_scaled = []
    for j, snap in enumerate(run_result.snapshots):
        fld = to_scaled(snap, y)
        fields_scaled.append(fld)
        totals = total_relative_entropy(fld, ref, cfg.alpha, law)
        E[j], D[j] = totals.E, totals.D_alpha
        terms = error_terms(fld, ref, fld.tau, cfg.alpha, law)
        Xi[j] = terms.Xi

    E0 = float(E[0])
    same = limits.same_limits
    if same or theta > 0:
        envelope = theoretical_bound(taus, E0, theta, mu, K_const, same)
    else:
        envelope = np.full_like(taus, np.nan)

    dtau = cfg.tau_step
    tol = cfg.ineq_slack * E0 * (dtau + cfg.dy**2 + cfg.dx / cfg.dy)
    residual = np.zeros_like(taus)
    residual[1:] = _inequality_residual(taus, E, D, Xi.sum(axis=1))

    meta = {
        "gamma": cfg.gamma, "k": cfg.k, "alpha": cfg.alpha,
        "rho_minus": cfg.rho_minus, "rho_plus": cfg.rho_plus,
        "dx": cfg.dx, "dy": cfg.dy, "dtau": dtau,
        "reference": ref_kind, "same_limits": same,
        "theta": theta, "mu": mu, "K_const": K_const,
        "theta_lt_half": bool(same or (0.0 < theta < 0.5)),
        "E0": E0, "ineq_tol": tol,
    }
    return EntropyReport(
        tau=taus, E=E, D_alpha=D,
        Xi1=Xi[:, 0], Xi2=Xi[:, 1], Xi3=Xi[:, 2],
        envelope=envelope, ineq_residual=residual, meta=meta,
        fields_scaled=fields_scaled, run_result=run_result,
    )


def run_experiment(cfg):
    """Simulate, transform to scaling variables, and assemble the report."""
    return diagnose(cfg, simulate(cfg))


# ---------------------------------------------------------------------------
# rate fitting and dissipation tail check


def fit_decay_rate(report, window):
    """Least-squares slope of -log E versus tau on [tau_min, tau_max]."""
    lo, hi = window
    mask = (report.tau >= lo) & (report.tau <= hi)
    if np.count_nonzero(mask) < 2:
        raise DegenerateFitError("fit window contains fewer than two samples")
    E = report.E[mask]
    if np.any(E <= 0):
        raise DegenerateFitError("nonpositive entropy samples in the fit window")
    t = report.tau[mask]
    A = np.column_stack([t, np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(A, -np.log(E), rcond=None)
    rms = float(np.sqrt(np.mean((A @ coef + np.log(E)) ** 2)))
    return float(coef[0]), rms


@dataclass
class DissipationCheck:
    passed: bool
    inconclusive: bool
    threshold: float
    margin: float


def dissipation_check(report):
    """Tail-integral bound on the friction dissipation.

    For every sampled tau past the threshold 2 log(2 mu / (1 - 2 theta)),
    requires int_tau^end D_alpha <= 1.1 (envelope(tau) + 2 K e^{-tau/2}),
    with theta, mu and K from `report.meta` and E0 = `report.E0`.
    """
    m = report.meta
    theta, mu, K_const, E0 = m["theta"], m["mu"], m["K_const"], report.E0
    if not theta < 0.5:
        raise DomainError("the dissipation bound requires theta < 1/2")
    same = bool(m.get("same_limits", theta == 0.0))
    arg = 2.0 * mu / (1.0 - 2.0 * theta)
    threshold = 2.0 * np.log(arg) if arg > 0 else -np.inf
    tau = report.tau
    if threshold > tau[-1]:
        return DissipationCheck(False, True, float(threshold), np.nan)

    # tail integrals by trapezoid, measured from each sample to the end
    D = report.D_alpha
    seg = 0.5 * (D[1:] + D[:-1]) * np.diff(tau)
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    valid = tau >= threshold
    env = theoretical_bound(tau[valid], E0, theta, mu, K_const, same)
    bound = 1.1 * (env + 2.0 * K_const * np.exp(-0.5 * tau[valid]))
    gap = bound - tail[valid]
    passed = bool(np.all(gap >= 0))
    margin = float(np.min(gap / np.maximum(bound, 1e-300)))
    return DissipationCheck(passed, False, float(threshold), margin)


# ---------------------------------------------------------------------------
# CSV I/O


def write_csv(path, comments, columns):
    """CSV with '#'-prefixed `key=value` header comments; exact float text."""
    lines = []
    for key, value in comments.items():
        if isinstance(value, np.generic):
            value = value.item()
        lines.append(f"# {key}={value!r}")
    names = list(columns)
    lines.append(",".join(names))
    cols = [np.asarray(columns[name]) for name in names]
    for row in zip(*cols):
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path):
    """Inverse of write_csv: returns (comments, columns) with float columns."""
    comments, names, rows = {}, None, []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            try:
                comments[key.strip()] = ast.literal_eval(value.strip())
            except (ValueError, SyntaxError):
                comments[key.strip()] = value.strip()
            continue
        if names is None:
            names = [s.strip() for s in line.split(",")]
            continue
        try:
            row = [float(s) for s in line.split(",")]
        except ValueError:
            row = []
        if len(row) != len(names):
            raise ConfigError(f"{path}: not a numeric row of {len(names)}: {raw!r}")
        rows.append(row)
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(names or [])))
    columns = {name: data[:, j] for j, name in enumerate(names or [])}
    return comments, columns


_SERIES_COLUMNS = ("tau", "E", "D_alpha", "Xi1", "Xi2", "Xi3", "envelope",
                   "ineq_residual")


def emit_report(report, path):
    write_csv(path, report.meta,
              {name: getattr(report, name) for name in _SERIES_COLUMNS})


def parse_report(path):
    meta, cols = read_csv(path)
    missing = [name for name in _SERIES_COLUMNS if name not in cols]
    if missing:
        raise ConfigError(
            f"{path}: not an entropy series, no column {', '.join(missing)}")
    if not cols["tau"].size:
        raise ConfigError(f"{path}: the entropy series has no rows")
    return EntropyReport(**{name: cols[name] for name in _SERIES_COLUMNS},
                         meta=meta)
