"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records `run.py --out FILE` appends; only end-to-end
runs (trace 0) are compared. Runs pair up in the order they were recorded,
so record them alternating which side runs first. One row per workload and
metric gives each side's median and quartiles, the pairs the change won, and
a verdict:

- gain: the change wins at least 9/10 of the pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: either side's spread (interquartile range over median) exceeds
  the bound, unless every change run is better than every parent run;
- unchanged: none of these.

A gain does not count when the change failed more operations than the
parent. Exits with 1 when any metric regressed, else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
GAIN_SHARE = 0.9


def load(path):
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs[rec["workload"]].append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, lower_is_better, change_failed_more):
    better = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = (cm - pm) / pm if lower_is_better else (pm - cm) / pm
    all_better = all(better(c, p) for c in change for p in parent)
    gain = (wins >= GAIN_SHARE * len(pairs) and better(cm, pm)
            and abs(cm - pm) > p3 - p1 and not change_failed_more)
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    if spread > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "regression"
    elif gain:
        label = "gain"
    else:
        label = "unchanged"
    return label, wins, len(pairs), (p1, pm, p3), (c1, cm, c3)


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(argv[0]), load(argv[1])
    regressed = False
    print(f"{'workload':22} {'metric':12} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'wins':>7}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_fail = sum(r["failed"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            label, wins, n, pq, cq = verdict(
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                metric["bound"], metric["better"] == "lower", c_fail > p_fail)
            regressed |= label == "regression"
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{workload:22} {name:12} {fmt(pq):34} {fmt(cq):34} "
                  f"{wins:>3}/{n:<3}  {label}")
        print(f"{workload:22} {'failed':12} {p_fail:<34} {c_fail:<34}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
