"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload at toy size, with tracing off and on, the command must
print every metric BENCHMARK.json names, with its unit, on a correct output.
A wrong output injected into each workload must count as a failed operation,
and the command must fail without printing a result where the program's
source is missing. Exits with 1 on the first broken expectation.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins threads and locates src/

sys.path.insert(0, str(run.SRC))

import bench  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(Path(run.__file__).resolve())]


def expect(ok, message):
    if not ok:
        raise SystemExit(f"selftest: FAIL: {message}")


def check_metrics(name, trace):
    proc = subprocess.run(
        RUN + ["--workload", name, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--toy"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=False)
    expect(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{name}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{name} trace={trace}: toy output judged wrong:\n{proc.stderr}")
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{name} trace={trace}: metrics {got} differ from {want}")
    for key, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
               f"{name}: {key} = {m['value']!r}")
    print(f"selftest: {name} trace={trace}: {len(got)} metrics with units")


def inject_wrong_output(work):
    """Make each operation return a wrong answer the check must catch."""
    run_op = work.run_op

    def wrong():
        raw = run_op()
        if work.via_cli:
            series = work.series_path
            series.write_text("\n".join(series.read_text().splitlines()[:-1]) + "\n")
        else:
            raw.E[-1] = 2.0 * raw.envelope[-1]
        return raw

    work.run_op = wrong


def check_injected(name):
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = workloads.Workload(name, 1, tmp, toy=True)
        inject_wrong_output(work)
        ops, _ = bench.end_to_end(work, 0.5, [0.0])
    failed = sum(bool(op.problems) for op in ops)
    expect(failed == len(ops), f"{name}: {failed}/{len(ops)} injected wrong outputs caught")
    print(f"selftest: {name}: {failed}/{len(ops)} injected wrong outputs counted as failed")


def check_without_program():
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        for rel in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / rel, Path(tmp) / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            BENCHMARK["command"] + ["--workload", workloads.NAMES[0], "--seed", "0",
                                    "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180, check=False)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("selftest: without the program the command fails and prints no result")


def main():
    run.WORK.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        for trace in (0, 1):
            check_metrics(name, trace)
        check_injected(name)
    check_without_program()
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
