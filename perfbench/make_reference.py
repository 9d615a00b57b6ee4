"""Write reference/<workload>.json: the seed-0 series E(tau) of each workload
and the gap between it and a run at twice the dx, dy and tau_step.

    python3 perfbench/make_reference.py [workload ...]

The benchmark accepts a seed-0 output whose E stays within that gap of the
stored series. Regenerate only when the program's answer is meant to change.
"""

import dataclasses
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import run  # pins threads and locates src/

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from diffusionwave import lab  # noqa: E402

import workloads  # noqa: E402


def main(names):
    warnings.simplefilter("ignore", RuntimeWarning)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                         text=True, check=False).stdout.strip() or None
    run.WORK.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            work = workloads.Workload(name, workloads.DEFAULT_SEED, tmp,
                                      check_reference=False)
            fine = work.outcome(work.run_op()).report
        cfg = work.cfg
        coarse = lab.run_experiment(dataclasses.replace(
            cfg, dx=2 * cfg.dx, dy=2 * cfg.dy, tau_step=2 * cfg.tau_step))
        if not np.allclose(fine.tau[::2], coarse.tau, rtol=0, atol=1e-12):
            raise RuntimeError(f"{name}: coarse snapshots do not match every other fine one")
        gap = float(np.max(np.abs(fine.E[::2] - coarse.E)))
        record = {
            "workload": name,
            "seed": workloads.DEFAULT_SEED,
            "source_commit": sha,
            "config": dataclasses.asdict(cfg),
            "gap": gap,
            "tau": fine.tau.tolist(),
            "E": fine.E.tolist(),
        }
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}: {len(fine.E)} samples, gap {gap:.3e}")


if __name__ == "__main__":
    main(sys.argv[1:] or list(workloads.NAMES))
