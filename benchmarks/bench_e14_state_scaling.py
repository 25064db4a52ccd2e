"""E14 — state-layer scaling: journaled CoW state vs seed full-copy state.

The seed implementation deep-copied values on every get/set, snapshotted by
deep-copying the *entire* state dict, and recomputed the state root by
re-serializing everything.  All three costs grow with total state size, so
per-block work grows as the ledger grows — the opposite of what a long-lived
precision-medicine chain needs.

This benchmark sweeps total state size and measures, per size:

- tx apply latency (snapshot + writes + commit, the per-transaction path),
- snapshot + rollback cost (the failed-transaction path),
- state-root time after a fixed 20-key write set, and the time of one read,
  on a state 1, 16 and 64 forks since the base — a validator's head is
  ``state_prune_window`` = 64 rooted forks above the oldest state it keeps.

With the journaled implementation all of them should stay ~flat as the state
grows and as forks pile up (a root tracks the write-set size, a read is one
trie descent); with ``--naive`` (an inline replica of the seed semantics)
they grow with total state size.  Every measured root is cross-checked
against ``tests/chain/root_oracle.py`` (the trie rebuilt from a plain dict).
CI gates on that boolean and on ``root_flatness`` / ``read_flatness``: the
time at (largest size, depth 64) over the time at (smallest size, depth 1).
"""

from __future__ import annotations

import argparse
import copy
import os
import statistics
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "chain")
)
from _common import emit, emit_json, format_table
from root_oracle import oracle_root

from repro.chain.state import StateDB
from repro.common.hashing import hash_value

SIZES = (1_000, 10_000, 100_000)
NAIVE_SIZES = (1_000, 5_000, 20_000)  # the full-copy replica is O(state) per tx
FAST_SIZES = (1_000, 100_000)  # the flatness gate needs both ends
WRITES_PER_TX = 20
TXS_PER_SIZE = 10
ROOT_DEPTHS = (1, 16, 64)
ROOT_REPEATS = 15  # root_ms / read_us: median of this many probes per (size, depth)
READS_PER_PROBE = 200
MAX_ROOT_FLATNESS = 3.0
MAX_READ_FLATNESS = 3.0


class NaiveStateDB:
    """Inline replica of the seed state semantics (the pre-refactor baseline).

    Deep-copy on read and write, full-dict deep-copy snapshots, and a root
    recomputed from scratch by re-serializing the whole state.  Kept here —
    not in ``repro.chain`` — so the production tree carries exactly one
    state implementation.
    """

    def __init__(self, initial=None):
        self._data = dict(initial or {})
        self._snapshots = []

    def get(self, key, default=None):
        return copy.deepcopy(self._data.get(key, default))

    def set(self, key, value):
        self._data[key] = copy.deepcopy(value)

    def snapshot(self):
        self._snapshots.append(copy.deepcopy(self._data))

    def commit(self):
        self._snapshots.pop()

    def rollback(self):
        self._data = self._snapshots.pop()

    def state_root(self):
        return hash_value(self._data, allow_float=False)

    def to_dict(self):
        return copy.deepcopy(self._data)


def _base_data(size: int) -> dict:
    return {
        f"k/{i:08d}": {"v": i, "pad": "x" * 32, "tags": [i % 7, i % 11]}
        for i in range(size)
    }


def _write_keys(size: int, round_index: int) -> list:
    # Deterministic pseudo-random spread across the key space.
    stride = 7919  # prime, so keys cycle through the whole space
    return [
        f"k/{((round_index * WRITES_PER_TX + j) * stride) % size:08d}"
        for j in range(WRITES_PER_TX)
    ]


def _bump(state, keys) -> None:
    for key in keys:
        value = state.get(key)
        state.set(key, {**value, "v": value["v"] + 1})


def _read_us(state, size: int) -> float:
    """Median time of one ``get``, over keys spread across the key space."""
    keys = [f"k/{(i * 104729) % size:08d}" for i in range(READS_PER_PROBE)]
    samples = []
    for _ in range(ROOT_REPEATS):
        start = time.perf_counter()
        for key in keys:
            state.get(key)
        samples.append((time.perf_counter() - start) * 1e6 / len(keys))
    return statistics.median(samples)


def _probe_by_depth(state: StateDB, size: int) -> dict:
    """Median root time after a 20-key write set, and median read time, at
    each of ROOT_DEPTHS forks since ``state``.

    The lineage under the probe is built the way a validator builds it: one
    fork per block, 20 writes, rooted.  Each root probe is a fresh fork at
    the target depth, so repeats measure the same thing.
    """
    rows = {}
    round_index = TXS_PER_SIZE + 1
    head = state
    for depth in range(1, max(ROOT_DEPTHS) + 1):
        if depth in ROOT_DEPTHS:
            samples = []
            for _ in range(ROOT_REPEATS):
                probe = head.fork()
                _bump(probe, _write_keys(size, round_index))
                round_index += 1
                start = time.perf_counter()
                root = probe.state_root()
                samples.append((time.perf_counter() - start) * 1000)
            rows[depth] = {"root_ms": statistics.median(samples),
                           "read_us": _read_us(probe, size),
                           "root_equivalent": root == oracle_root(probe.to_dict())}
        head = head.fork()
        _bump(head, _write_keys(size, round_index))
        round_index += 1
        head.state_root()
    return rows


def _bench_one_size(size: int, naive: bool) -> dict:
    data = _base_data(size)
    state = NaiveStateDB(data) if naive else StateDB(data)
    # The first root builds the whole trie; what is measured below is the
    # steady-state cost of the roots after it.
    state.state_root()

    # Tx apply path: snapshot + writes + commit per transaction.
    start = time.perf_counter()
    for tx_index in range(TXS_PER_SIZE):
        state.snapshot()
        _bump(state, _write_keys(size, tx_index))
        state.commit()
    tx_apply_ms = (time.perf_counter() - start) * 1000 / TXS_PER_SIZE

    # Failed-tx path: snapshot + writes + rollback.
    start = time.perf_counter()
    state.snapshot()
    for key in _write_keys(size, TXS_PER_SIZE):
        state.set(key, {"v": -1, "pad": "", "tags": []})
    state.rollback()
    snapshot_rollback_ms = (time.perf_counter() - start) * 1000

    row = {
        "state_size": size,
        "impl": "naive" if naive else "journaled",
        "tx_apply_ms": tx_apply_ms,
        "snapshot_rollback_ms": snapshot_rollback_ms,
    }
    if naive:
        # Nothing to fork: one root after a bounded write set.
        _bump(state, _write_keys(size, TXS_PER_SIZE + 1))
        start = time.perf_counter()
        state.state_root()
        row["root_ms"] = {"1": (time.perf_counter() - start) * 1000}
        row["read_us"] = {"1": _read_us(state, size)}
        return row
    state.state_root()
    by_depth = _probe_by_depth(state, size)
    row["root_ms"] = {str(d): by_depth[d]["root_ms"] for d in ROOT_DEPTHS}
    row["read_us"] = {str(d): by_depth[d]["read_us"] for d in ROOT_DEPTHS}
    row["root_equivalent"] = all(by_depth[d]["root_equivalent"] for d in ROOT_DEPTHS)
    return row


def run_experiment(sizes=SIZES, naive: bool = False):
    return [_bench_one_size(size, naive) for size in sizes]


def report(rows):
    impl = rows[0]["impl"]
    table = format_table(
        f"E14: state scaling — {impl} implementation, "
        f"{WRITES_PER_TX} writes/tx",
        ["state size", "tx apply (ms)", "snapshot+rollback (ms)",
         *(f"root @ depth {depth} (ms)" for depth in rows[0]["root_ms"]),
         *(f"read @ depth {depth} (us)" for depth in rows[0]["read_us"])],
        [
            [r["state_size"], r["tx_apply_ms"], r["snapshot_rollback_ms"],
             *r["root_ms"].values(), *r["read_us"].values()]
            for r in rows
        ],
    )
    emit(f"e14_state_scaling_{impl}", table)
    return rows


def _metrics(rows):
    smallest, largest = rows[0], rows[-1]
    size_ratio = largest["state_size"] / smallest["state_size"]
    return {
        "rows": rows,
        "size_ratio": size_ratio,
        "tx_apply_growth": largest["tx_apply_ms"] / max(smallest["tx_apply_ms"], 1e-9),
        "snapshot_growth": largest["snapshot_rollback_ms"]
        / max(smallest["snapshot_rollback_ms"], 1e-9),
        # Most forks since the base on the largest state over fewest on the
        # smallest.
        "root_flatness": list(largest["root_ms"].values())[-1]
        / max(smallest["root_ms"]["1"], 1e-9),
        "read_flatness": list(largest["read_us"].values())[-1]
        / max(smallest["read_us"]["1"], 1e-9),
        "root_equivalent": all(r.get("root_equivalent", True) for r in rows),
    }


def test_e14_state_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: run_experiment(sizes=FAST_SIZES), rounds=1, iterations=1
    )
    report(rows)
    metrics = _metrics(rows)
    # Consensus-critical: the persistent trie must agree with the
    # from-scratch oracle, always.
    assert metrics["root_equivalent"]
    # Cost tracks the write set, not the state or the forks since the base:
    # (10^5 keys, depth 64) within 3x of (10^3 keys, depth 1).
    assert (rows[0]["state_size"], rows[-1]["state_size"]) == (1_000, 100_000)
    assert metrics["root_flatness"] <= MAX_ROOT_FLATNESS, metrics["root_flatness"]
    assert metrics["read_flatness"] <= MAX_READ_FLATNESS, metrics["read_flatness"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--naive", action="store_true",
                        help="measure the seed-era full-copy implementation "
                             "instead of the journaled one")
    parser.add_argument("--fast", action="store_true",
                        help="small CI-smoke workload")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} "
                             "BENCH_e14.json envelope to PATH")
    args = parser.parse_args(argv)
    sizes = FAST_SIZES if args.fast else NAIVE_SIZES if args.naive else SIZES
    rows = report(run_experiment(sizes=sizes, naive=args.naive))
    metrics = _metrics(rows)
    emit_json(args.json, "e14_state_scaling",
              {"impl": rows[0]["impl"], "sizes": list(sizes),
               "writes_per_tx": WRITES_PER_TX, "txs_per_size": TXS_PER_SIZE,
               "root_depths": list(ROOT_DEPTHS), "root_repeats": ROOT_REPEATS},
              metrics)
    if not args.naive and not metrics["root_equivalent"]:
        print("E14 FAIL: state root diverged from the oracle's", file=sys.stderr)
        return 1
    for name, limit in (("root", MAX_ROOT_FLATNESS), ("read", MAX_READ_FLATNESS)):
        if not args.naive and metrics[f"{name}_flatness"] > limit:
            print(f"E14 FAIL: {name} cost grew {metrics[f'{name}_flatness']:.2f}x "
                  f"from ({sizes[0]} keys, depth 1) to ({sizes[-1]} keys, depth "
                  f"{ROOT_DEPTHS[-1]}); limit {limit}x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
