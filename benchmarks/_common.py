"""Shared helpers for the experiment benchmarks (E1–E12).

Each ``bench_eN_*.py`` file both

- runs under ``pytest benchmarks/ --benchmark-only`` (the experiment body is
  timed once via ``benchmark.pedantic``), and
- runs standalone (``python benchmarks/bench_e1_....py``) printing the
  experiment's table.

Tables are also written to ``benchmarks/results/`` so EXPERIMENTS.md can be
refreshed from actual runs; a ``--json`` run writes only its payload.

``python benchmarks/_common.py [--update]`` reruns every bench with a
committed ``baselines/<name>.json`` and fails on any metric that moved
(:func:`check_baselines`).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import select
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BASELINES_DIR = os.path.join(os.path.dirname(__file__), "baselines")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Plain-text aligned table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in rendered_rows), 1)
        if rendered_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _format_cell(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def emit(name: str, table: str) -> None:
    """Print the table and persist it under benchmarks/results/, unless the
    process was run with ``--json``: such a run writes only its payload."""
    print("\n" + table + "\n")
    if any(arg == "--json" or arg.startswith("--json=") for arg in sys.argv[1:]):
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(table + "\n")


def json_envelope(
    bench: str, params: Dict[str, Any], metrics: Dict[str, Any]
) -> Dict[str, Any]:
    """Uniform ``BENCH_*.json`` payload: {bench, params, metrics, timestamp}.

    Every benchmark that emits machine-readable output uses this schema so
    trajectory files accumulate uniformly and CI gates can read
    ``payload["metrics"]`` without per-benchmark special cases.
    """
    return {
        "bench": bench,
        "params": params,
        "metrics": metrics,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def emit_json(
    path: Optional[str],
    bench: str,
    params: Dict[str, Any],
    metrics: Dict[str, Any],
) -> Dict[str, Any]:
    """Build the envelope and, when ``path`` is set, write it to disk."""
    payload = json_envelope(bench, params, metrics)
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    return payload


def json_main(
    argv: Optional[Sequence[str]],
    doc: str,
    bench: str,
    params: Dict[str, Any],
    run: Callable[[], Dict[str, Any]],
) -> int:
    """The ``--json PATH`` command line of a benchmark with no other flag.

    ``doc`` is the script's docstring (its first line describes the CLI);
    ``run`` runs and reports the experiment and returns the metrics of
    the envelope :func:`emit_json` writes.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} "
                             "envelope to PATH")
    args = parser.parse_args(argv)
    emit_json(args.json, bench, params, run())
    return 0


def human_bytes(count: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(count) < 1024:
            return f"{count:.1f}{unit}"
        count /= 1024
    return f"{count:.1f}TB"


# -- site server process fleet ------------------------------------------------
def start_site_fleet(
    sites: Sequence[str],
    site_count: int,
    records: int,
    seed: int,
    boot_timeout_s: float = 60.0,
    src: str = SRC,
) -> Tuple[List[subprocess.Popen], Dict[str, Tuple[str, int]]]:
    """One ``repro.rpc.site_server`` process per name in ``sites``, all of
    the demo network of ``site_count`` sites, run from the source tree
    ``src`` (this checkout's by default); returns ``(procs, {site:
    (host, port)})``.

    Raises ``RuntimeError`` if a site exits or does not print ``LISTENING``
    within ``boot_timeout_s`` of the launch, after stopping every process
    it spawned.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs: List[subprocess.Popen] = []
    try:
        for site in sites:
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.rpc.site_server",
                        "--site", site,
                        "--sites", str(site_count),
                        "--records", str(records),
                        "--seed", str(seed),
                    ],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=env,
                    text=True,
                )
            )
        deadline = time.monotonic() + boot_timeout_s
        addrs = {}
        for site, proc in zip(sites, procs):
            wait_s = max(0.0, deadline - time.monotonic())
            ready, _, _ = select.select([proc.stdout], [], [], wait_s)
            line = proc.stdout.readline().strip() if ready else ""
            if not line.startswith("LISTENING"):
                raise RuntimeError(f"site server {site} failed to boot: {line!r}")
            _, host, port = line.split()
            addrs[site] = (host, int(port))
    except BaseException:
        stop_site_fleet(procs)
        raise
    return procs, addrs


def stop_site_fleet(procs: Sequence[subprocess.Popen]) -> None:
    """Close each site's stdin (it drains and exits); kill what lingers."""
    for proc in procs:
        proc.stdin.close()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# -- behaviour baselines ------------------------------------------------------
WALL_CLOCK_KEYS = frozenset({"timestamp", "wall_ms"})


def exact_part(value: Any) -> Any:
    """``value`` without its wall-clock fields (never the same twice), at any depth."""
    if isinstance(value, dict):
        return {k: exact_part(v) for k, v in value.items() if k not in WALL_CLOCK_KEYS}
    if isinstance(value, list):
        return [exact_part(v) for v in value]
    return value


def _differences(want: Any, got: Any, path: str = "") -> List[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        keys = sorted(set(want) | set(got))
        return [d for k in keys for d in _differences(want.get(k), got.get(k), f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        pairs = enumerate(zip(want, got))
        return [d for i, (w, g) in pairs for d in _differences(w, g, f"{path}[{i}]")]
    return [] if want == got else [f"{path or '.'}: baseline {want!r}, now {got!r}"]


def check_baselines(argv: Optional[Sequence[str]] = None) -> int:
    """Rerun each bench that has ``baselines/<name>.json`` (``e5`` runs
    ``bench_e5_*.py --json``) and diff its payload, wall-clock fields aside,
    against the baseline: exit 1 on any difference.  ``--update`` rewrites
    the baselines from this run instead."""
    parser = argparse.ArgumentParser(description="Diff bench payloads against baselines.")
    parser.add_argument("--update", action="store_true", help="rewrite the baselines")
    args = parser.parse_args(argv)
    names = sorted(
        os.path.basename(path)[:-5] for path in glob.glob(os.path.join(BASELINES_DIR, "*.json"))
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    failed = 0
    for name in names:
        (script,) = glob.glob(os.path.join(os.path.dirname(__file__), f"bench_{name}_*.py"))
        baseline = os.path.join(BASELINES_DIR, f"{name}.json")
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "payload.json")
            subprocess.run([sys.executable, script, "--json", out], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            with open(out) as handle:
                got = exact_part(json.load(handle))
        if args.update:
            with open(baseline, "w") as handle:
                handle.write(json.dumps(got, indent=2, sort_keys=True) + "\n")
            continue
        with open(baseline) as handle:
            differences = _differences(json.load(handle), got)
        failed += bool(differences)
        print(f"{name}: {'differs from' if differences else 'matches'} its baseline")
        print("".join(f"  {line}\n" for line in differences), end="")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check_baselines())
