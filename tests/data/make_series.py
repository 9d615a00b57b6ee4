"""Write <name>.json beside this script: the E(tau) series of the shipped
acceptance config <name> and its fine-coarse gap, the largest |E| difference
at common tau between that run and the coarse partner `verify` pairs it
with (twice the dx, dy and tau_step).

    PYTHONPATH=src python3 tests/data/make_series.py [--check] [jump] [coincident]

The discretization gate in tests/test_acceptance.py holds the acceptance
runs to a tenth of that gap from the stored series.  Regenerate only when
the program's answer is meant to change, and record why in CHANGES.md.
With --check it writes nothing and prints, for each config, how far the
current solver's E(tau) is from the stored one: max |E - stored E| as a
fraction of the stored gap, the number the gate bounds.
"""

import dataclasses
import json
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

from diffusionwave import verify  # noqa: E402
from diffusionwave.lab import parse_config  # noqa: E402

NAMES = ("jump", "coincident")


def check(names):
    for name in names:
        stored = json.loads((HERE / f"{name}.json").read_text())
        report = verify._report(name)
        if not np.array_equal(report.tau, stored["tau"]):
            raise RuntimeError(f"{name}: snapshot times differ from the stored series")
        deviation = float(np.max(np.abs(report.E - np.asarray(stored["E"]))))
        print(f"{name}: max |E - stored E| = {deviation:.3e}, "
              f"{deviation / stored['gap']:.4f} of the gap {stored['gap']:.3e}")


def main(names):
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False).stdout.strip() or None
    for name in names:
        fine = verify._report(name)
        coarse = verify._report(name, **verify._COARSE)
        if not np.allclose(fine.tau[::2], coarse.tau, rtol=0, atol=1e-12):
            raise RuntimeError(f"{name}: coarse snapshots do not match every other fine one")
        gap = float(np.max(np.abs(fine.E[::2] - coarse.E)))
        cfg = parse_config(files("diffusionwave") / "configs" / f"{name}.cfg")
        record = {
            "config": name,
            "source_commit": sha,
            "settings": dataclasses.asdict(cfg),
            "coarse": verify._COARSE,
            "gap": gap,
            "tau": fine.tau.tolist(),
            "E": fine.E.tolist(),
        }
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}: {len(fine.E)} samples, gap {gap:.3e}")


if __name__ == "__main__":
    args = sys.argv[1:]
    names = [a for a in args if a != "--check"] or list(NAMES)
    (check if "--check" in args else main)(names)
