"""E16 — Static-analysis throughput and deploy-gate latency.

The ``repro.analysis`` verifier sits on two hot paths: CI lints the whole
tree on every push, and the deploy gate (``platform_deploy_tx``) runs the
contract family synchronously before every platform contract's deploy tx
is signed.  Both must stay cheap: this micro-benchmark reports full-tree
analysis throughput (files/s, KLoC/s) and the per-contract verification
latency over the shipped contract library.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, format_table

from repro.analysis import analyze_paths
from repro.analysis.verify import verify_contract
from repro.contracts import library

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
TREE_PATHS = (
    os.path.join(REPO_ROOT, "src", "repro"),
    os.path.join(REPO_ROOT, "examples"),
)
VERIFY_REPEATS = 25


def count_lines(paths):
    from repro.analysis.engine import iter_python_files

    total = 0
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def run_tree_analysis(paths):
    start = time.perf_counter()
    result = analyze_paths(paths)
    elapsed = time.perf_counter() - start
    lines = count_lines(paths)
    return {
        "target": "full tree" if len(paths) > 1 else os.path.basename(paths[0]),
        "files": result.files_analyzed,
        "embedded_contracts": result.contracts_analyzed,
        "findings": len(result.findings),
        "lines": lines,
        "seconds": elapsed,
        "files_per_s": result.files_analyzed / elapsed if elapsed else 0.0,
        "kloc_per_s": (lines / 1000) / elapsed if elapsed else 0.0,
    }


def run_verify_latency(repeats):
    sources = {
        name: getattr(library, name)
        for name in sorted(dir(library))
        if name.endswith("_SOURCE")
    }
    rows = []
    for name, source in sources.items():
        start = time.perf_counter()
        for __ in range(repeats):
            verify_contract(source, name=name)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "contract": name,
                "lines": len(source.splitlines()),
                "verify_ms": 1000 * elapsed / repeats,
            }
        )
    return rows


def run_experiment(fast=False):
    paths = (
        [TREE_PATHS[0]]
        if fast
        else [path for path in TREE_PATHS if os.path.exists(path)]
    )
    tree = run_tree_analysis(paths)
    verify = run_verify_latency(3 if fast else VERIFY_REPEATS)
    return tree, verify


def report(result):
    tree, verify = result
    table_a = format_table(
        "E16a: full-tree analysis throughput (repo lints + embedded audit)",
        ["files", "embedded contracts", "findings", "lines", "seconds",
         "files/s", "KLoC/s"],
        [[tree["files"], tree["embedded_contracts"], tree["findings"],
          tree["lines"], tree["seconds"], tree["files_per_s"],
          tree["kloc_per_s"]]],
    )
    table_b = format_table(
        "E16b: deploy-gate verification latency per library contract",
        ["contract", "lines", "verify (ms)"],
        [[r["contract"], r["lines"], r["verify_ms"]] for r in verify],
    )
    emit("e16_analysis", table_a + "\n\n" + table_b)
    return result


def test_e16_analysis(benchmark):
    tree, verify = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report((tree, verify))
    # The tree the gate protects must be clean, and the gate must be fast
    # enough to sit on the deploy path.
    assert tree["findings"] == 0
    assert tree["files"] > 50
    assert tree["embedded_contracts"] >= 6
    assert all(row["verify_ms"] < 500 for row in verify)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="analyze only src/repro and use fewer verify "
                             "repeats")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} "
                             "envelope to PATH")
    args = parser.parse_args(argv)
    tree, verify = report(run_experiment(fast=args.fast))
    emit_json(args.json, "e16_analysis",
              {"fast": args.fast,
               "verify_repeats": 3 if args.fast else VERIFY_REPEATS},
              {"tree": tree, "verify": verify})
    return 0


if __name__ == "__main__":
    sys.exit(main())
