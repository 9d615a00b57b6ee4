"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload jump_fine --seed 0 --seconds 55 --trace 0

Run from the repository root. The program is imported from src/. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The line before it records the environment.
--out FILE appends a record of the run for compare.py.
"""

import os

# Pin BLAS/OpenMP threads before numpy loads; set-up probes inherit this.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 8          # fresh processes timing set-up, besides this one
SETUP_PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy-size inputs (self-test)")
    p.add_argument("--out", help="append a JSON record of this run to this file")
    p.add_argument("--spans", help="write the traced run's spans to this file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args, work_dir):
    """Import the program, build the workload's config and directories;
    returns the workload and the seconds this took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import diffusionwave
    if SRC not in Path(diffusionwave.__file__).resolve().parents:
        raise RuntimeError(f"diffusionwave imported from {diffusionwave.__file__}, not {SRC}")
    import workloads
    work = workloads.Workload(args.workload, args.seed, work_dir, toy=args.toy)
    return work, time.perf_counter() - t0


def probe_setup(args):
    """Set-up time of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          timeout=SETUP_PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def environment():
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "diffusionwave").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        # the ceiling keeps git from searching above the checkout
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "diffusionwave" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'diffusionwave'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        work, setup_s = setup(args, work_dir)
        if args.setup_probe:
            print(setup_s)
            return 0
        import bench

        if args.trace:
            ops, metrics = bench.traced(work, args.seconds, args.spans)
        else:
            samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            ops, metrics = bench.end_to_end(work, args.seconds, samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"{args.workload}: wrong output: {'; '.join(op.problems)}", file=sys.stderr)
    summary = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items())
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} operations, "
          f"fail_rate={len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)}), "
          f"wall per operation {[round(op.wall, 3) for op in ops]} s, "
          f"boundary warnings per operation {[op.boundary_warnings for op in ops]}")
    cals = [op.calibration for op in ops if op.calibration]
    if cals:
        print(f"calibration: seconds per burst during each operation "
              f"{[round(c.wall / c.bursts, 5) for c in cals]}")
    print(summary)
    env = environment()
    print(json.dumps({"environment": env}))
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "environment": env,
                  "op_wall_s": [op.wall for op in ops], "op_cpu_s": [op.cpu for op in ops],
                  "calibration": [vars(c) for c in cals],
                  "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
