"""Compare two sets of E22 runs against the bounds in ``BENCHMARK.json``.

    python benchmarks/e22_pipeline/compare.py A.json B.json

``A`` is the base (parent commit), ``B`` the candidate; both are files that
``run.py --json`` appended runs to.  One row per (workload, end-to-end
metric): both medians, the ratio B/A with its base, each side's own
run-to-run spread (distance between the quartiles over the median), and a
verdict:

- ``ok`` — B's median is not worse than A's by more than the metric's bound;
- ``REGRESSION`` — it is;
- ``unresolved`` — a side's own spread exceeds the bound, so the medians
  cannot settle it (unless every run of B reads better than every run of A).

Exits non-zero when any row is a regression.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, smoke runs left out."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for run in runs:
        if run["smoke"]:
            continue
        for metric, value in run["end_to_end"].items():
            values[(run["workload"], metric)].append(value)
    return values


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    base, candidate = load_runs(argv[0]), load_runs(argv[1])
    print(f"{'workload':<16} {'metric':<18} {'A median':>11} {'B median':>11} "
          f"{'B/A':>6} {'base':<16} {'spread A':>8} {'spread B':>8} {'bound':>6}  verdict")
    regressions = 0
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a = base.get((workload, metric["name"]))
            b = candidate.get((workload, metric["name"]))
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            lower_is_better = metric["better"] == "lower"
            worse_by = (med_b - med_a) / med_a if lower_is_better else (med_a - med_b) / med_a
            all_better = max(b) < min(a) if lower_is_better else min(b) > max(a)
            noisy = max(spread(a), spread(b)) > metric["bound"]
            if noisy and not all_better:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:<16} {metric['name']:<18} {med_a:>11.3f} {med_b:>11.3f} "
                  f"{med_b / med_a:>6.3f} {f'A={med_a:.4g} ' + metric['unit']:<16} "
                  f"{spread(a):>8.3f} {spread(b):>8.3f} {metric['bound']:>6.2f}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
