"""Shared helpers for the experiment benchmarks (E1–E12).

Each ``bench_eN_*.py`` file both

- runs under ``pytest benchmarks/ --benchmark-only`` (the experiment body is
  timed once via ``benchmark.pedantic``), and
- runs standalone (``python benchmarks/bench_e1_....py``) printing the
  experiment's table.

Tables are also appended to ``benchmarks/results/`` so EXPERIMENTS.md can be
refreshed from actual runs.
"""

from __future__ import annotations

import argparse
import json
import os
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Optional, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


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
    """Print the table and persist it under benchmarks/results/."""
    print("\n" + table + "\n")
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
