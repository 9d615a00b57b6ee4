"""Write the stored series of the acceptance configs beside this script.

<name>.json holds the E(tau) series of the shipped acceptance config <name>
and its fine-coarse gap, the largest |E| difference at common tau between
that run and the coarse partner `verify` pairs it with (twice the dx, dy and
tau_step).  The artifact `ref` writes <name>_ref.json for both configs: the
reference E_ref(tau), this solver's run at dx/8 (dy and tau_step kept), and
its error bar |E_dx/4 - E_dx/8| at each tau, with both dx and `src_sha256`;
its four runs take about 30 s.  The artifact `bits` writes bits.json: the
bits of what the program prints for the acceptance runs.

    PYTHONPATH=src python3 tests/data/make_series.py [--check] [jump] [coincident] [ref] [bits]

With no name it does all four; an unknown name exits 2 before any run.

Two gates in tests/test_acceptance.py read these files.  The reference gate
holds each acceptance run's error against E_ref, max |E - E_ref| and the
largest |E - E_ref|/E_ref at tau >= LATE_TAU, to a stated factor (FACTORS)
of the error the fixed-stage SSPRK(3,2) scheme read there (ANCHORS), plus
the error bar.  The scalar gate, a regression guard, holds the runs to a
tenth of the gap from <name>.json.  Regenerate only when the program's
answer is meant to change, and record why in CHANGES.md.  With --check it
writes nothing and runs nothing beyond the acceptance runs: for each config
it prints max |E - stored E| as a fraction of the stored gap, the number
the scalar gate bounds; for `ref`, each run's steps and RHS calls, which
the accuracy was bought with, and each of the reference gate's four errors
and the share of its bound spent.  For `bits` it prints `bits: identical`,
or the first artifact, column and tau whose bits differ from bits.json.
That line is not a test: the bits depend on the numpy build, whose version
bits.json records.  They do not depend on the SIMD extensions numpy
dispatches to on x86-64 (for gamma in {1, 2}), which bits.json records too,
as provenance: a difference there is a note on stderr, never a difference in
bits.
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
REF, BITS = "ref", "bits"
CHOICES = (*NAMES, REF, BITS)

# The reference gate.  Errors from tau = LATE_TAU on are read relative to
# E_ref: there E (4.7e-7 on jump at tau = 4) is 200 times below the
# fine-coarse gap, so an absolute bound cannot see a 100 % error.  ANCHORS
# are each config's (max |E - E_ref|, late max |E - E_ref|/E_ref) under the
# fixed three-stage SSPRK(3,2) step, frozen, against the E_ref of
# <name>_ref.json; FACTORS the multiple of each a scheme may reach.  A
# factor of 2 on the late error passed the Strang-split SSPRK(s,2) step of
# up to four stages (1.79 and 1.78) and failed up to five (2.90 and 2.86);
# with the friction inside the stages and merges a half-octave earlier the
# late errors read 1.69 and 1.45; CHANGES.md records the variants it fails.
LATE_TAU = 2.5
REF_DX_DIVISOR, BAR_DX_DIVISOR = 8, 4
ANCHORS = {"jump": (1.340e-4, 1.800e-2), "coincident": (5.831e-6, 1.383e-4)}
FACTORS = (1.25, 2.0)


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


def load_reference(name):
    return json.loads((HERE / f"{name}_ref.json").read_text())


def reference_gate(name, E, ref):
    """The reference gate's two (label, error, bound) of the series E on
    the tau of ref, the stored reference of config name: each bound is its
    factor of the anchor plus the largest error bar in the same form."""
    tau, E_ref, bar = (np.asarray(ref[key]) for key in ("tau", "E", "error_bar"))
    late = tau >= LATE_TAU
    error = np.abs(np.asarray(E) - E_ref)
    errors = (np.max(error), np.max(error[late] / E_ref[late]))
    bars = (np.max(bar), np.max(bar[late] / E_ref[late]))
    return [(label, float(e), factor * anchor + float(b))
            for label, e, factor, anchor, b in zip(
                ("max |E - E_ref|", f"max |E - E_ref|/E_ref at tau >= {LATE_TAU:g}"),
                errors, FACTORS, ANCHORS[name], bars)]


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
        if name == REF:
            for config in NAMES:
                report, ref = verify._report(config), load_reference(config)
                if not np.array_equal(report.tau, ref["tau"]):
                    raise RuntimeError(f"{config}: snapshot times differ from the reference")
                meta = report.run_result.meta
                print(f"{config}: {meta['dt'].size} steps, "
                      f"{int(meta['stages'].sum())} RHS calls")
                for label, error, bound in reference_gate(config, report.E, ref):
                    print(f"{config}: {label} = {error:.3e}, "
                          f"{error / bound:.4f} of the bound {bound:.3e}")
            continue
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


def write_reference(sha):
    """<name>_ref.json of each config: the run at dx/8 and its error bar."""
    for name in NAMES:
        dx = verify._config(name).dx
        ref, bar = (verify._report(name, dx=dx / d) for d in (REF_DX_DIVISOR, BAR_DX_DIVISOR))
        if not (np.array_equal(ref.tau, verify._report(name).tau)
                and np.array_equal(ref.tau, bar.tau)):
            raise RuntimeError(f"{name}: reference snapshots do not match the acceptance run's")
        record = {
            "config": name,
            "src_sha256": sha,
            "dx": dx / REF_DX_DIVISOR,
            "error_bar_dx": dx / BAR_DX_DIVISOR,
            "steps": int(ref.run_result.meta["dt"].size),
            "tau": ref.tau.tolist(),
            "E": ref.E.tolist(),
            "error_bar": np.abs(bar.E - ref.E).tolist(),
        }
        path = HERE / f"{name}_ref.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}: dx {record['dx']:g}, "
              f"{record['steps']} steps, error bar at most {max(record['error_bar']):.3e}")


def main(names):
    sha = source_sha256()
    for name in names:
        if name == REF:
            write_reference(sha)
            continue
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
