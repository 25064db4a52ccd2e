"""E22 — one end-to-end benchmark of the system as it is deployed.

    python benchmarks/e22_pipeline/run.py --seed 1                 # all workloads
    python benchmarks/e22_pipeline/run.py --workload ledger_mix --seed 1 --trace
    python benchmarks/e22_pipeline/run.py --smoke --trace --json /tmp/e22.json

Boots one OS process per validator (or per site server), drives it from a
single-threaded asyncio load generator through a *paced* (open-loop) and a
*sat* (closed-loop) phase, checks correctness, and prints every metric by
name with its unit.  ``--trace`` adds the single-process layer walk
(``walk.py``) after the cluster run.  With one ``--workload`` the last line of
stdout is the result object ``BENCHMARK.json``'s contract asks for.  See
README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
OUT_DIR = os.path.join(HERE, "out")
#: Cluster boots per run; ``setup_s`` reports their median.
BOOTS = 3
SMOKE_SECONDS = 3.0
#: Queries traced by the layer walk of ``federated_query``.
WALK_QUERIES = 40


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_workload(name: str, args: argparse.Namespace, contract: Dict[str, Any]) -> Dict[str, Any]:
    import chain_bench
    import query_bench
    import walk
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    size = workload.smoke_size if args.smoke else workload.size
    boots = 1 if args.smoke else BOOTS
    stem = os.path.join(OUT_DIR, f"{name}-seed{args.seed}")
    bench = query_bench if workload.kind == "query" else chain_bench
    result = asyncio.run(
        bench.run(workload, size, args.seed, args.seconds, boots, stem + ".stderr.log")
    )
    history = result.pop("history", None)
    result.update(workload=name, seed=args.seed, seconds=args.seconds, smoke=args.smoke)
    result["end_to_end"] = {
        metric["name"]: result["end_to_end"][metric["name"]] for metric in contract["end_to_end"]
    }
    result["per_layer"] = None
    if args.trace:
        layers = dict(result["cluster"])
        span_path = stem + ".spans.jsonl"
        if not result["correct"]:
            print(f"!! {name}: correctness gate failed, layer walk skipped", flush=True)
        elif workload.kind == "query":
            queries = 10 if args.smoke else WALK_QUERIES
            layers.update(asyncio.run(walk.query_walk(size, args.seed, queries, span_path)))
        else:
            layers.update(walk.chain_walk(size, history, span_path))
        cpu_ms = result["end_to_end"]["sat_cpu_ms_per_op"]
        model_ms = layers.get("walk.model_ms_per_op", 0.0)
        layers["walk.coverage"] = model_ms / cpu_ms if cpu_ms else 0.0
        # A layer this workload never enters costs it nothing: reported as 0.
        result["per_layer"] = {
            metric["name"]: float(layers.get(metric["name"], 0.0))
            for metric in contract["per_layer"]
        }
        result["info"]["span_file"] = os.path.relpath(span_path, ROOT)
    return result


def print_result(result: Dict[str, Any], contract: Dict[str, Any]) -> None:
    info = result["info"]
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}"
          f"{'  SMOKE' if result['smoke'] else ''}")
    print(f"   inputs_sha256 {info['inputs_sha256']}")
    print(f"   ops: paced {info['paced_ops']}  sat {info['sat_ops']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for group in ("end_to_end", "per_layer"):
        values = result[group]
        if values is None:
            continue
        print(f"   -- {group}")
        for metric in contract[group]:
            print(f"   {metric['name']:<36} {values[metric['name']]:>14.4f} {metric['unit']}")
    forks = result["cluster"].get("consensus.forks", 0)
    if forks:
        print(f"!! {result['workload']}: consensus.forks = {forks} (expected 0)")
    if result["failed"] or not result["correct"]:
        print(f"!! {result['workload']}: FAILED the correctness gate "
              f"({result['failed']} of {result['attempted']} ops failed; {info})")
    sys.stdout.flush()


def append_json(path: str, results: List[Dict[str, Any]]) -> None:
    """Add these runs to ``path`` so repeated invocations build one set of runs."""
    payload: Dict[str, Any] = {"runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload["runs"].extend(results)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def main(argv: List[str] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1, help="drives every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time per workload (default {contract['run_seconds']})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run the layer walk and report the per-layer metrics")
    parser.add_argument("--json", metavar="PATH", help="append the runs to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="a few dozen ops per phase on small fixtures; numbers mean nothing")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])

    try:
        import repro  # noqa: F401
    except ImportError:
        print(f"run.py: the system under test (src/repro) is not at {ROOT}", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGHUP):
        # Turn the signal into SystemExit so finally blocks and atexit stop the children.
        signal.signal(signum, lambda number, _frame: sys.exit(128 + number))

    results = []
    for name in [args.workload] if args.workload else names:
        result = run_workload(name, args, contract)
        print_result(result, contract)
        results.append(result)
    if args.json:
        append_json(args.json, results)
    if args.workload:
        last = results[0]
        group = "per_layer" if args.trace else "end_to_end"
        units = {metric["name"]: metric["unit"] for metric in contract[group]}
        print(json.dumps({
            "correct": last["correct"],
            "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in last[group].items()
            },
        }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
