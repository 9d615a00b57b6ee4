"""Experiment harness: configuration, end-to-end runs, envelopes, reports.

One pipeline, config -> plan -> simulate -> snapshots -> diagnose -> report:
`plan(cfg)` builds and checks all that reads no snapshot before the first
step, the reference included, read off the similarity profile (the constant
state for coincident limits); `simulate(plan)` runs the solver through the
snapshot times to a RunResult, `diagnose(plan, run_result)` maps each
snapshot to scaling variables and measures the relative entropy against the
reference in an EntropyReport, and `run_experiment(cfg)` chains the three.
Also the theoretical decay envelopes, rate fitting, the acceptance rules with
their slacks (defined here once), and CSV emission and parsing for all
artifacts.  An EntropyReport stores what the run measured and derives its
envelope and inequality residual from that.  `theoretical_bound` alone decides
where the paper proves its envelope (theta < 1/2, and theta > 0 unless K = 0),
NaN elsewhere; the report's `envelope` calls it, and the envelope and
dissipation rules read that.  Each rule returns one Verdict, printed as is.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import PhysicalState, RunResult, SolverConfig, run
from .entropy import RefData, ReferencePair, _snapshot_pass
from .errors import ConfigError, DegenerateFitError, DomainError
from .grids import cell_grid, cover_count, grid_count, node_grid
from .profile import LimitSpec, SimilarityProfile, default_halfwidth, solve_profile
from .scaling import to_scaled
from .thermo import PressureLaw

__all__ = [
    "ExperimentConfig",
    "EntropyReport",
    "parse_config",
    "Plan",
    "plan",
    "simulate",
    "diagnose",
    "run_experiment",
    "fit_decay_rate",
    "theoretical_bound",
    "envelope_check",
    "dissipation_check",
    "Verdict",
    "emit_report",
    "parse_report",
    "write_csv",
    "read_csv",
]


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    # law and far field (rho_-+, alpha > 0: plan's LimitSpec checks them); the
    # reference is the limits' similarity profile, constant if they coincide
    rho_minus: float = 1.0
    rho_plus: float = 1.0
    alpha: float = 1.0
    gamma: float = 2.0
    k: float = 1.0
    # initial data: the far-field step at rest plus a Gaussian bump of the
    # density, amplitude exp(-(x - center)^2 / (2 width^2)); none at amplitude 0
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
    # solver
    order: int = 2
    cfl: float = 0.45

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.tau_max <= 0 or self.tau_step <= 0:
            raise ConfigError("tau_max and tau_step must be positive")
        if self.dx <= 0 or self.dy <= 0 or self.X <= 0 or self.L_y <= 0:
            raise ConfigError("grid parameters must be positive")
        if self.width <= 0:
            raise ConfigError("bump width must be positive")
        if (grid_count(2.0 * self.X, self.dx) < 2
                or grid_count(2.0 * self.L_y, self.dy) < 1):
            raise ConfigError("grids need at least two cells and two y-nodes")
        if grid_count(self.tau_max, self.tau_step) < 1:
            raise ConfigError(
                "the schedule tau_max/tau_step has no snapshot after tau = 0")
        # the scaled window [-L_y, L_y] at the run's last snapshot t, x = y sqrt(1 + t)
        if self.L_y * math.sqrt(1.0 + _snapshot_times(tau_schedule(self)[-1:])[0]) > self.X:
            raise ConfigError("physical domain too small for the requested scaled window")
        # the solver keys, by the solver's own checks
        SolverConfig(self.cfl, self.order)


_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_config(path):
    """Read a flat `key = value` config file; unknown or repeated keys are
    errors."""
    values, lines = {}, {}
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
        if key in lines:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} repeated from line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = (int if _CONFIG_TYPES[key] == "int" else float)(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# experiment pieces


def tau_schedule(cfg):
    n = grid_count(cfg.tau_max, cfg.tau_step)
    return np.round(np.linspace(0.0, n * cfg.tau_step, n + 1), 12)


def build_initial(cfg, x, limits, profile=None):
    """Initial (rho, m): the far-field step at rest plus the density bump,
    which adds exactly 0 at amplitude 0, its exp from libm, whose bits hold on
    any x86-64 CPU.  `profile` is unused; it stays for callers that pass it."""
    bump = np.fromiter(map(math.exp, -((x - cfg.center) ** 2) / (2.0 * cfg.width**2)), float)
    rho = limits.step_density(x).astype(float) + cfg.amplitude * bump
    if np.any(rho <= 0):
        raise ConfigError("initial density must stay positive")
    return rho, np.zeros_like(x)


def make_reference(cfg, limits, law, profile):
    """(RefData, kind): the reference evaluated once on the y-grid of `cfg`,
    read off the nodes of `profile` at the y-grid and one node beyond each end
    (to 1e-9 of the spacing, or DomainError); kind is "constant" for coincident
    limits, whose profile is the constant state, else "profile".  `plan`
    reads only the RefData; the kind stays for callers that unpack it."""
    y = node_grid(cfg.L_y, cfg.dy)
    h = y[1] - y[0]
    lo = grid_count(y[0] - h - profile.y[0], profile.dy)  # the left neighbour
    run = slice(lo, lo + y.size + 2)
    if not (0 <= lo and run.stop <= profile.y.size
            and np.allclose(profile.y[run][1:-1], y, rtol=0, atol=1e-9 * h)):
        raise DomainError(
            f"the y-grid on [-{cfg.L_y:g}, {cfg.L_y:g}] at spacing {h:.6g} and its "
            f"two neighbours are not nodes of the profile on "
            f"[{profile.y[0]:g}, {profile.y[-1]:g}] at spacing {profile.dy:.6g}")
    return (ReferencePair(y, profile.rho_star[run], profile.n_star[run]).eval(law),
            "constant" if limits.same_limits else "profile")


@dataclass(frozen=True)
class Plan:
    """Everything of one experiment that reads no snapshot, built by `plan`."""

    cfg: ExperimentConfig
    law: PressureLaw
    limits: LimitSpec
    solver: SolverConfig
    taus: np.ndarray  # tau_schedule(cfg); the run's snapshot times are expm1(taus[1:])
    initial: PhysicalState
    profile: SimilarityProfile  # the constant state for coincident limits
    ref: RefData
    snapshot: Callable  # the per-snapshot pass, `entropy._snapshot_pass`


def plan(cfg):
    """The Plan of `cfg`; each piece is built, and so checked, here once."""
    law = PressureLaw(k=cfg.k, gamma=cfg.gamma)
    limits = LimitSpec(cfg.rho_minus, cfg.rho_plus, cfg.alpha)
    taus = tau_schedule(cfg)
    solver = SolverConfig(cfl=cfg.cfl)
    x = cell_grid(cfg.X, cfg.dx)
    initial = PhysicalState(x, *build_initial(cfg, x, limits), 0.0)
    # one lattice: the profile's nodes, at the y-grid's spacing h, run a
    # whole number of h, at least one, beyond each end of the y-grid, so
    # that make_reference reads the reference off them
    h = 2.0 * cfg.L_y / grid_count(2.0 * cfg.L_y, cfg.dy)
    beyond = max(1, cover_count(default_halfwidth(limits, law) - cfg.L_y, h))
    profile = solve_profile(limits, law, L=cfg.L_y + beyond * h, dy=h)
    ref, _ = make_reference(cfg, limits, law, profile)
    return Plan(cfg, law, limits, solver, taus, initial, profile, ref,
                _snapshot_pass(ref, cfg.alpha, law))


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
    meta: dict = field(default_factory=dict)
    run_result: RunResult | None = None  # the diagnosed run

    @property
    def E0(self):
        return float(self.E[0])

    @property
    def envelope(self):
        """`theoretical_bound` at each tau, of E0 and the header's theta, mu, K."""
        m = self.meta
        return theoretical_bound(self.tau, self.E0, m["theta"], m["mu"], m["K_const"])

    @property
    def ineq_residual(self):
        """The inequality's defect on each of the n - 1 intervals."""
        return _inequality_residual(self.tau, self.E, self.D_alpha, self.Xi1 + self.Xi2 + self.Xi3)

    @property
    def worst_ineq_residual(self):
        """The largest residual over the intervals; -inf for a single sample."""
        return float(np.max(self.ineq_residual, initial=-np.inf))


def _inequality_residual(tau, E, D, Xi_total):
    """Per-interval defect of the relative-entropy inequality,
    dE/dtau + D + E/2 <= Xi: forward difference of E against
    trapezoid-averaged D, E, Xi on each interval."""
    avg = lambda v: 0.5 * (v[1:] + v[:-1])
    return np.diff(E) / np.diff(tau) + avg(D) + 0.5 * avg(E) - avg(Xi_total)


def theoretical_bound(tau, E0, theta, mu, K_const):
    """Decay envelope e^{-(1/2-theta)tau + mu/2} (E0 + K/theta), with K/theta
    read as 0 when K = 0: coincident limits, theta = mu = K = 0, give
    E0 e^{-tau/2}.  The paper proves it for theta < 1/2 only, and K/theta has
    no value at K > 0, theta <= 0; there it is NaN, e^{mu/2} unevaluated (it
    may overflow at theta >= 1/2)."""
    tau = np.asarray(tau, dtype=float)
    if theta < 0.5 and (theta > 0 or K_const == 0):
        out = (np.exp(-(0.5 - theta) * tau + 0.5 * mu)
               * (E0 + (K_const / theta if K_const else 0.0)))
    else:
        out = np.full_like(tau, np.nan)
    return float(out) if out.ndim == 0 else out


def _snapshot_times(taus):
    """e^tau - 1 of each tau by libm, whose bits hold on any x86-64 CPU."""
    return np.array([math.expm1(tau) for tau in taus])


def simulate(plan):
    """Run the solver from the plan's initial state through its snapshot times."""
    return run(plan.initial, plan.solver, plan.law, plan.limits, _snapshot_times(plan.taus[1:]))


def diagnose(plan, run_result, on_scaled=None):
    """Transform each snapshot to scaling variables and assemble the
    relative-entropy report against the plan's reference.  Each snapshot
    takes one `to_scaled` and one call of the plan's pass; `on_scaled`, if
    given, is called with the index and the ScaledField of each.
    """
    cfg, taus, ref = plan.cfg, plan.taus, plan.ref
    t_snap = _snapshot_times(taus)
    times = np.array([snap.t for snap in run_result.snapshots])
    if times.shape != t_snap.shape or np.any(
            np.abs(times - t_snap) > 1e-12 * (1.0 + t_snap)):
        raise ConfigError(
            f"snapshot times do not match the schedule of the config "
            f"({len(times)} snapshots, {len(t_snap)} scheduled)"
        )

    E = np.empty(len(taus))
    D = np.empty(len(taus))
    Xi = np.empty((len(taus), 3))
    for j, snap in enumerate(run_result.snapshots):
        fld = to_scaled(snap, ref.y)
        if on_scaled is not None:
            on_scaled(j, fld)
        diag = plan.snapshot(fld)
        E[j], D[j], Xi[j] = diag.E, diag.D_alpha, diag.Xi

    meta = {
        "gamma": cfg.gamma, "k": cfg.k, "alpha": cfg.alpha,
        "rho_minus": cfg.rho_minus, "rho_plus": cfg.rho_plus,
        "dx": cfg.dx, "dy": cfg.dy, "dtau": cfg.tau_step, "theta": plan.profile.theta,
        "mu": plan.profile.mu, "K_const": plan.profile.K_const,
        "ineq_tol": INEQ_SLACK * float(E[0]) * (cfg.tau_step + cfg.dy**2 + cfg.dx / cfg.dy),
    }
    return EntropyReport(tau=taus, E=E, D_alpha=D, Xi1=Xi[:, 0], Xi2=Xi[:, 1], Xi3=Xi[:, 2],
                         meta=meta, run_result=run_result)


def run_experiment(cfg):
    """Plan, simulate, transform to scaling variables, and assemble the
    report."""
    p = plan(cfg)
    return diagnose(p, simulate(p))


# ---------------------------------------------------------------------------
# rate fitting and the acceptance rules


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


# slacks of the acceptance rules; ineq_tol = INEQ_SLACK E0 (dtau + dy^2 + dx/dy)
ENVELOPE_SLACK = 1.05
DISSIPATION_SLACK = 1.1
INEQ_SLACK = 0.05


class Verdict(NamedTuple):
    """An acceptance rule's pass flag and the line that says why."""
    passed: bool
    detail: str


def _envelope_needs(theta):
    """Where the envelope is NaN, what it needs: theta < 1/2, or theta > 0 at K > 0."""
    return "theta < 1/2" if theta >= 0.5 else "0 < theta < 1/2 at K > 0"


def envelope_check(report):
    """The envelope rule: E <= ENVELOPE_SLACK * `report.envelope` at every
    tau; it fails where the envelope is NaN, for the paper proves none there."""
    m = report.meta
    bound = ENVELOPE_SLACK * report.envelope
    proved = not np.isnan(bound).all()
    params = (f"theta = {m['theta']:.4f}, theta_lt_half = {proved}, "
              f"mu = {m['mu']:.4f}, K = {m['K_const']:.4f}, E0 = {report.E0:.4e}")
    if not proved:
        return Verdict(False, f"{params}: the paper proves no envelope unless "
                              f"{_envelope_needs(m['theta'])}")
    return Verdict(bool(np.all(report.E <= bound)),
                   f"{params}, max E/({ENVELOPE_SLACK} envelope) = "
                   f"{np.max(report.E / bound):.4f}, worst gap {np.max(report.E - bound):.2e}")


def dissipation_check(report):
    """Tail-integral bound on the friction dissipation.

    For every sampled tau past the threshold 2 log(2 mu / (1 - 2 theta)),
    requires int_tau^end D_alpha <= DISSIPATION_SLACK (envelope(tau)
    + 2 K e^{-tau/2}), with envelope = `report.envelope`.  Fails where that
    is NaN, or when the threshold is past the end.
    """
    m, tau = report.meta, report.tau
    theta, mu, K_const = m["theta"], m["mu"], m["K_const"]
    env = report.envelope
    if np.isnan(env).all():
        return Verdict(False, f"theta = {theta:.4f}: the bound needs {_envelope_needs(theta)}")
    arg = 2.0 * mu / (1.0 - 2.0 * theta)
    threshold = 2.0 * np.log(arg) if arg > 0 else -np.inf
    if threshold > tau[-1]:
        return Verdict(False, f"inconclusive (threshold tau = {threshold:.2f} "
                              f"past the series end tau = {tau[-1]:g})")

    # tail integrals by trapezoid, measured from each sample to the end
    D = report.D_alpha
    seg = 0.5 * (D[1:] + D[:-1]) * np.diff(tau)
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    valid = tau >= threshold
    bound = DISSIPATION_SLACK * (env[valid] + 2.0 * K_const * np.exp(-0.5 * tau[valid]))
    gap = bound - tail[valid]
    margin = float(np.min(gap / np.maximum(bound, 1e-300)))
    return Verdict(bool(np.all(gap >= 0)),
                   f"min relative margin {margin:.4f} (threshold tau = {threshold:.2f})")


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
    cols = [np.asarray(columns[name], dtype=float).tolist() for name in names]
    for row in zip(*cols):
        lines.append(",".join(map(repr, row)))
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


def header_float(path, meta, key):
    """Header value `key` of the file `path`; ConfigError unless a finite real."""
    value = meta.get(key)
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"{path}: header {key} must be a finite number, got {value!r}")
    return float(value)


# what the run measured; parse_report reads no other column
_SERIES_COLUMNS = ("tau", "E", "D_alpha", "Xi1", "Xi2", "Xi3")


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
    for key in ("theta", "mu", "K_const", "ineq_tol"):
        header_float(path, meta, key)
    E0 = float(cols["E"][0])  # the E0 the envelope reads
    if not math.isfinite(E0):
        raise ConfigError(f"{path}: E0, the E column's first row, must be a finite "
                          f"number, got {E0!r}")
    return EntropyReport(**{name: cols[name] for name in _SERIES_COLUMNS}, meta=meta)
