"""Write <name>.json beside this script: the E(tau) series of the shipped
acceptance config <name> and its fine-coarse gap, the largest |E| difference
at common tau between that run and the coarse partner `verify` pairs it
with (twice the dx, dy and tau_step).  The artifact `bits` writes bits.json:
the bits of what the program prints for the acceptance runs.

    PYTHONPATH=src python3 tests/data/make_series.py [--check] [jump] [coincident] [bits]

With no name it does all three; an unknown name exits 2 before any run.

The discretization gate in tests/test_acceptance.py holds the acceptance
runs to a tenth of that gap from the stored series.  Regenerate only when
the program's answer is meant to change, and record why in CHANGES.md.
With --check it writes nothing and prints, for each config, how far the
current solver's E(tau) is from the stored one: max |E - stored E| as a
fraction of the stored gap, the number the gate bounds.  For `bits` it
prints `bits: identical`, or the first artifact, column and tau whose bits
differ from bits.json.  That line is not a test: the bits depend on the
numpy build, whose version bits.json records.  They do not depend on the
SIMD extensions numpy dispatches to on x86-64 (for gamma in {1, 2}), which
bits.json records too, as provenance: a difference there is a note on
stderr, never a difference in bits.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from importlib.resources import files
from itertools import zip_longest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

from diffusionwave import lab, verify  # noqa: E402
from diffusionwave.lab import parse_config  # noqa: E402

NAMES = ("jump", "coincident")
BITS = "bits"
CHOICES = (*NAMES, BITS)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def source_sha256():
    """sha256 of the package source, each file's path under src/ and bytes in
    path order, as perfbench records `src_sha256`: unlike the commit, it
    names the tree that ran, committed or not."""
    src = ROOT / "src"
    return _sha256(b"".join(path.relative_to(src).as_posix().encode() + path.read_bytes()
                            for path in sorted((src / "diffusionwave").rglob("*.py"))))


def bits_record():
    """Each acceptance config's series header and columns, exact, as
    `diagnose --config` writes them; sha256 digests of its run's
    `run_result.meta` arrays; and a sha256 digest of each line that
    `verify.run_all` prints."""
    lines = []
    verify.run_all(printer=lines.append)
    series, run_meta = {}, {}
    for name in NAMES:
        report = verify._report(name)
        series[name] = {"header": report.meta,
                        "columns": {col: getattr(report, col).tolist()
                                    for col in lab._SERIES_COLUMNS}}
        run_meta[name] = {key: _sha256(np.ascontiguousarray(value).tobytes())
                          for key, value in report.run_result.meta.items()}
    # through JSON, so a fresh record compares like a stored one
    return json.loads(json.dumps({
        "numpy": np.__version__,
        "numpy_simd": np.show_config(mode="dicts")["SIMD Extensions"],
        "series": series,
        "run_meta": run_meta,
        "verify": [_sha256(line.encode()) for line in lines],
    }))


def first_difference(stored, current):
    """The first artifact, column and tau whose bits differ; None if none."""
    for name in NAMES:
        old, new = stored["series"][name], current["series"][name]
        if old["header"] != new["header"]:
            keys = sorted(k for k in old["header"].keys() | new["header"].keys()
                          if old["header"].get(k) != new["header"].get(k))
            return f"{name} series header {keys[0]}"
        if old["columns"].keys() != new["columns"].keys():
            cols = sorted(old["columns"].keys() ^ new["columns"].keys())
            return f"{name} series columns {', '.join(cols)} in one record only"
        tau = np.asarray(new["columns"]["tau"])
        for col in new["columns"]:
            a, b = (np.asarray(s["columns"][col], dtype=float) for s in (old, new))
            if a.shape != b.shape:
                return f"{name} series column {col}: {a.size} rows stored, {b.size} now"
            differ = np.flatnonzero(a.view(np.uint64) != b.view(np.uint64))
            if differ.size:
                return f"{name} series column {col} at tau = {tau[differ[0]]:g}"
    for name in NAMES:
        old, new = stored["run_meta"][name], current["run_meta"][name]
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                return f"{name} run_meta column {key}"
    for i, (a, b) in enumerate(zip_longest(stored["verify"], current["verify"])):
        if a != b:
            return f"verify line {i + 1}"
    return None


def check(names):
    for name in names:
        if name == BITS:
            stored = json.loads((HERE / "bits.json").read_text())
            current = bits_record()
            where = first_difference(stored, current)
            note = ("" if stored["numpy"] == current["numpy"] else
                    f" (numpy {current['numpy']} here, {stored['numpy']} in bits.json)")
            print(f"bits: {'identical' if where is None else 'differ: ' + where}{note}")
            if stored["numpy_simd"] != current["numpy_simd"]:
                print(f"note: numpy SIMD extensions {current['numpy_simd']} here, "
                      f"{stored['numpy_simd']} in bits.json", file=sys.stderr)
            continue
        stored = json.loads((HERE / f"{name}.json").read_text())
        report = verify._report(name)
        if not np.array_equal(report.tau, stored["tau"]):
            raise RuntimeError(f"{name}: snapshot times differ from the stored series")
        deviation = float(np.max(np.abs(report.E - np.asarray(stored["E"]))))
        print(f"{name}: max |E - stored E| = {deviation:.3e}, "
              f"{deviation / stored['gap']:.4f} of the gap {stored['gap']:.3e}")


def main(names):
    sha = source_sha256()
    for name in names:
        if name == BITS:
            record = {"src_sha256": sha, **bits_record()}
            path = HERE / "bits.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}: numpy {record['numpy']}, "
                  f"{len(record['verify'])} verify lines")
            continue
        fine = verify._report(name)
        coarse = verify._report(name, **verify._COARSE)
        if not np.allclose(fine.tau[::2], coarse.tau, rtol=0, atol=1e-12):
            raise RuntimeError(f"{name}: coarse snapshots do not match every other fine one")
        gap = float(np.max(np.abs(fine.E[::2] - coarse.E)))
        cfg = parse_config(files("diffusionwave") / "configs" / f"{name}.cfg")
        record = {
            "config": name,
            "src_sha256": sha,
            "settings": dataclasses.asdict(cfg),
            "coarse": verify._COARSE,
            "gap": gap,
            "tau": fine.tau.tolist(),
            "E": fine.E.tolist(),
        }
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}: {len(fine.E)} samples, gap {gap:.3e}")


class _Parser(argparse.ArgumentParser):
    """A bad argument is one line on stderr and exit 2, not a usage dump."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def parse_args():
    parser = _Parser(description="Write or check the stored acceptance series and bits.json.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print how far the program is from the stored files")
    # not choices=: argparse checks the empty list of a bare --check against them
    parser.add_argument("names", nargs="*", metavar="name",
                        help=f"one of {', '.join(CHOICES)}; all of them if none is given")
    args = parser.parse_args()
    for name in args.names:
        if name not in CHOICES:
            parser.error(f"argument name: invalid choice: {name!r} "
                         f"(choose from {', '.join(CHOICES)})")
    return args.check, args.names or list(CHOICES)


if __name__ == "__main__":
    do_check, names = parse_args()
    (check if do_check else main)(names)
