"""Measurement core: timed operations, traced operations and layer probes.

An end-to-end run (trace 0) issues operations one at a time (a closed loop
with one client), with tracing off. Short bursts of a fixed calibration
kernel interrupt each operation and sample the host's speed (calibrate.py);
the run reports the median operation time rescaled to the kernel's nominal
speed. On a shared host the CPU's speed moves in spells of seconds to
minutes, and the ratio cancels what the two share.
A traced run (trace 1) alternates an untraced and a traced operation, then
probes each layer's public functions on the workload's own data; the
per-layer metrics come from the traced operations and the probes.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
import tracemalloc
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from diffusionwave import dynamics, entropy, lab, profile, scaling, thermo

from calibrate import Calibrator
from spans import Tracer
from workloads import BOUNDARY_WARNING

END_TO_END = [
    ("wall_norm_s", "s"),
    ("cpu_norm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("dynamics.run_s", "s"),
    ("dynamics.steps", "count"),
    ("dynamics.cells", "count"),
    ("dynamics.cell_updates_per_s", "1/s"),
    ("dynamics.step_us", "us"),
    ("dynamics.numerical_flux_us", "us"),
    ("dynamics.step_temp_bytes", "B"),
    ("dynamics.boundary_warnings", "count"),
    ("thermo.pressure_us", "us"),
    ("thermo.pressure_calls_per_step", "count"),
    ("profile.solve_s", "s"),
    ("scaling.to_scaled_us", "us"),
    ("scaling.calls", "count"),
    ("entropy.total_relative_entropy_us", "us"),
    ("entropy.error_terms_us", "us"),
    ("entropy.ref_eval_calls_per_snapshot", "count"),
    ("lab.write_csv_ms", "ms"),
    ("lab.read_csv_ms", "ms"),
    ("lab.write_csv_mb", "MB"),
    ("lab.self_s", "s"),
    ("share.dynamics", "1"),
    ("share.entropy_scaling", "1"),
    ("share.csv_io", "1"),
    ("share.cli_self", "1"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

PRESSURE_PROBE_SIZE = 6001
PROBE_BUDGET_S = 0.2


@dataclass
class Op:
    wall: float     # seconds, calibration bursts excluded
    cpu: float
    boundary_warnings: int
    problems: list = field(default_factory=list)
    calibration: object = None   # calibrate.Calibration, when sampled


def issue(work, tracer=None, calibrator=None):
    """Run one operation, timed, then check its output (untimed). With a
    calibrator, bursts sample the host's speed during the operation."""
    raw, problems = None, []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with (calibrator.sampling() if calibrator else contextlib.nullcontext()) as cal:
            try:
                if tracer is None:
                    raw = work.run_op()
                else:
                    with tracer.installed(), tracer.op():
                        raw = work.run_op()
            except Exception:
                problems = [traceback.format_exc()]
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if cal is not None:
            wall, cpu = wall - cal.wall, cpu - cal.cpu
    boundary = sum(BOUNDARY_WARNING in str(w.message) for w in caught)
    if not problems:
        try:
            problems = work.check(work.outcome(raw))
        except Exception:
            problems = [traceback.format_exc()]
    return Op(wall, cpu, boundary, problems, cal)


def _loop(seconds, once):
    """Call once() until the next call is predicted to end after `seconds`."""
    results, start = [], time.perf_counter()
    while True:
        results.append(once())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def _metrics(values, spec):
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(work, seconds, setup_samples):
    calibrator = Calibrator(*work.calibration)
    ops = _loop(seconds, lambda: issue(work, calibrator=calibrator))
    walls, cpus = zip(*(o.calibration.normalise(o.wall, o.cpu) for o in ops))
    values = {
        "wall_norm_s": statistics.median(walls),
        "cpu_norm_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    return ops, _metrics(values, END_TO_END)


def _op_layers(tracer, op_id, self_times, snapshots):
    """Per-layer values of one traced operation."""
    idx = [i for i, s in enumerate(tracer.spans) if s.op == op_id]
    root = next(i for i in idx if tracer.spans[i].name == "op")
    wall = tracer.spans[root].end - tracer.spans[root].start
    total, calls = {}, {}
    for i in idx:
        s = tracer.spans[i]
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
    t = lambda name: total.get(name, 0.0)
    counts = tracer.counts[op_id]
    run_s = t("dynamics.run")
    return {
        "dynamics.run_s": run_s,
        "dynamics.steps": counts["dynamics.steps"],
        "dynamics.cells": counts["dynamics.cells"],
        "dynamics.cell_updates_per_s":
            counts["dynamics.steps"] * counts["dynamics.cells"] / run_s if run_s else 0.0,
        "scaling.calls": calls.get("scaling.to_scaled", 0),
        "entropy.ref_eval_calls_per_snapshot": counts["entropy.ref_eval_calls"] / snapshots,
        "lab.write_csv_mb": counts["lab.write_csv_bytes"] / 1e6,
        "lab.self_s": sum(self_times[i] for i in idx if tracer.spans[i].name == "lab.run_experiment"),
        "share.dynamics": run_s / wall,
        "share.entropy_scaling": (t("entropy.total_relative_entropy") + t("entropy.error_terms")
                                  + t("scaling.to_scaled")) / wall,
        "share.csv_io": (t("lab.write_csv") + t("lab.read_csv")) / wall,
        "share.cli_self": sum(self_times[i] for i in idx
                              if tracer.spans[i].name.startswith("cli.")) / wall,
        "trace.wall_s": wall,
    }


def _per_call(fn):
    """Median seconds per call over PROBE_BUDGET_S (at least three calls)."""
    times, start = [], time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < PROBE_BUDGET_S:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(work):
    """Per-call times of each layer's public functions on the workload's
    initial state, grids and reference."""
    cfg = work.cfg
    law = thermo.PressureLaw(k=cfg.k, gamma=cfg.gamma)
    limits = profile.LimitSpec(cfg.rho_minus, cfg.rho_plus, cfg.alpha)
    prof = profile.solve_profile(limits, law, dy=cfg.dy)
    x = lab.cell_grid(cfg.X, cfg.dx)
    rho0, m0 = lab.build_initial(cfg, x, limits, prof)
    state = dynamics.PhysicalState(x, rho0, m0, 0.0)
    scfg = dynamics.SolverConfig(cfl=cfg.cfl, order=cfg.order)
    step = lambda: dynamics.step(state, scfg, law, cfg.alpha, limits)
    R = np.concatenate([[limits.rho_minus], rho0, [limits.rho_plus]])
    M = np.concatenate([[0.0], m0, [0.0]])
    z = np.linspace(rho0.min(), rho0.max(), PRESSURE_PROBE_SIZE)
    ref, _ = lab.make_reference(cfg, limits, law, prof)
    y = lab.node_grid(cfg.L_y, cfg.dy)
    fld = scaling.to_scaled(state, y)
    csv_path = work.work_dir / "probe.csv"

    out = {
        "dynamics.step_us": 1e6 * _per_call(step),
        "dynamics.numerical_flux_us": 1e6 * _per_call(
            lambda: dynamics.numerical_flux((R[:-1], M[:-1]), (R[1:], M[1:]), law)),
        "thermo.pressure_us": 1e6 * _per_call(lambda: law.pressure(z)),
        "profile.solve_s": _per_call(
            lambda: profile.solve_profile(limits, law, dy=cfg.dy)),
        "scaling.to_scaled_us": 1e6 * _per_call(lambda: scaling.to_scaled(state, y)),
        "entropy.total_relative_entropy_us": 1e6 * _per_call(
            lambda: entropy.total_relative_entropy(fld, ref, cfg.alpha, law)),
        "entropy.error_terms_us": 1e6 * _per_call(
            lambda: entropy.error_terms(fld, ref, fld.tau, cfg.alpha, law)),
        "lab.write_csv_ms": 1e3 * _per_call(lambda: lab.write_csv(
            csv_path, {"t": state.t}, {"x": state.x, "rho": state.rho, "m": state.m})),
        "lab.read_csv_ms": 1e3 * _per_call(lambda: lab.read_csv(csv_path)),
    }
    csv_path.unlink()

    tracemalloc.start()
    step()
    out["dynamics.step_temp_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    counter = Tracer()
    with counter.installed(), counter.op():
        step()
    out["thermo.pressure_calls_per_step"] = counter.counts[0]["thermo.pressure_calls"]
    return out


def traced(work, seconds, spans_path=None):
    """Alternate untraced and traced operations, then probe the layers."""
    tracer = Tracer()
    pairs = _loop(seconds, lambda: (issue(work), issue(work, tracer)))
    ops = [op for pair in pairs for op in pair]
    self_times = tracer.self_times()
    snapshots = len(lab.tau_schedule(work.cfg))
    per_op = [_op_layers(tracer, k, self_times, snapshots) for k in range(len(pairs))]
    values = {name: statistics.median(v[name] for v in per_op) for name in per_op[0]}
    values["dynamics.boundary_warnings"] = statistics.median(
        traced_op.boundary_warnings for _, traced_op in pairs)
    values["trace.overhead_s"] = statistics.median(t.wall - u.wall for u, t in pairs)
    values.update(probes(work))
    if spans_path is not None:
        tracer.write(spans_path)
    return ops, _metrics(values, PER_LAYER)
