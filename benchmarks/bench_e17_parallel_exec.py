"""E17 — Optimistic parallel block execution: speedup vs conflict rate.

Executes the same block serially and through ``repro.chain.scheduler``'s
wave-based optimistic scheduler (thread and process backends) and reports
wall-clock speedup, the parallel-commit rate, and — the part CI gates on —
bit-identical state roots and receipts on every backend and conflict
pattern:

- a *low-conflict* block (every call touches its own balance slot), where
  the scheduler should approach the core count on the process backend;
- a *100%-conflict* block (every call hits one hot slot), where
  levelization degenerates to one wave per transaction and the scheduler
  must stay within a small constant of plain serial execution.

Speedup is only asserted when the host actually has >= 2 workers (CI
runners do; the equivalence gate holds everywhere).
"""

from __future__ import annotations

import argparse
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, format_table

from repro.chain.executor import ExecutionContext
from repro.chain.scheduler import BlockScheduler
from repro.chain.state import StateDB
from repro.chain.transactions import make_call, make_deploy
from repro.common.signatures import KeyPair
from repro.contracts.runtime import ContractExecutor
from repro.parallel.executor import available_workers

# Per-user balance slots (statically disjoint across users) with a
# CPU-bound body, so parallel speculation has real work to overlap.
WORKLOAD_SOURCE = '''
def work(user, rounds):
    acc = storage_get("bal/" + user, 0)
    digest = ""
    for i in range(rounds):
        digest = sha256_hex(str(acc) + ":" + str(i))
        acc = acc + len(digest)
    storage_set("bal/" + user, acc)
    return acc
'''

CTX = ExecutionContext(block_height=2, timestamp_ms=1000, node_name="bench")
ROUNDS = 150


def build_fixture(n_txs):
    """Funded senders, deployed workload contract, low/high-conflict blocks."""
    senders = [KeyPair.generate(f"e17-{i}") for i in range(n_txs)]
    state = StateDB()
    for keypair in senders:
        state.credit(keypair.address, 1_000_000)
    deployer = KeyPair.generate("e17-deployer")
    state.credit(deployer.address, 1_000_000)
    receipt = ContractExecutor().apply(
        state, make_deploy(deployer, "work", WORKLOAD_SOURCE, nonce=0), CTX
    )
    assert receipt.success, receipt.error
    contract_id = receipt.output
    low_conflict = [
        make_call(kp, contract_id, "work",
                  {"user": f"u{i}", "rounds": ROUNDS}, nonce=0)
        for i, kp in enumerate(senders)
    ]
    full_conflict = [
        make_call(kp, contract_id, "work",
                  {"user": "hot", "rounds": ROUNDS}, nonce=0)
        for kp in senders
    ]
    return state, low_conflict, full_conflict


def run_serial(state, txs):
    executor = ContractExecutor()
    overlay = state.fork()
    start = time.perf_counter()
    receipts = [executor.apply(overlay, tx, CTX) for tx in txs]
    elapsed = time.perf_counter() - start
    root = overlay.state_root()
    return elapsed, root, receipts


def run_scheduled(scheduler, state, txs):
    before = dict(scheduler.stats)
    start = time.perf_counter()
    overlay, receipts = scheduler.execute_block(state, txs, CTX)
    elapsed = time.perf_counter() - start
    root = overlay.state_root()
    delta = {k: scheduler.stats[k] - before[k] for k in before}
    return elapsed, root, receipts, delta


def run_experiment(fast=False, backends=("thread", "process")):
    n_txs = 60 if fast else 200
    state, low_conflict, full_conflict = build_fixture(n_txs)
    workers = available_workers()

    # Warm the reference executor's compile cache, then time serial.
    run_serial(state, low_conflict[:2])
    serial_low, root_low, receipts_low = run_serial(state, low_conflict)
    serial_full, root_full, receipts_full = run_serial(state, full_conflict)

    # Gas is identical on every backend (receipts are compared below), so
    # gas/s is the block's gas over each backend's wall time.
    block_gas = sum(receipt.gas_used for receipt in receipts_low)

    rows = []
    equivalent = True
    for backend in backends:
        with BlockScheduler(ContractExecutor(), backend=backend) as scheduler:
            # Warm the worker pool and per-worker compile caches untimed.
            run_scheduled(scheduler, state, low_conflict[: workers + 1])
            low_s, low_root, low_receipts, low_stats = run_scheduled(
                scheduler, state, low_conflict
            )
            full_s, full_root, full_receipts, _ = run_scheduled(
                scheduler, state, full_conflict
            )
        roots_ok = low_root == root_low and full_root == root_full
        receipts_ok = (
            low_receipts == receipts_low and full_receipts == receipts_full
        )
        equivalent = equivalent and roots_ok and receipts_ok
        rows.append({
            "backend": backend,
            "low_conflict_s": low_s,
            "speedup": serial_low / low_s if low_s else 0.0,
            "gas_per_s": block_gas / low_s if low_s else 0.0,
            "parallel_committed": low_stats["txs_parallel_committed"],
            "waves": low_stats["waves"],
            "full_conflict_s": full_s,
            "degradation": full_s / serial_full if serial_full else 0.0,
            "roots_equal": roots_ok,
            "receipts_equal": receipts_ok,
        })
    return {
        "n_txs": n_txs,
        "workers": workers,
        "serial_low_conflict_s": serial_low,
        "serial_full_conflict_s": serial_full,
        "low_conflict_block_gas": block_gas,
        "backends": rows,
        "equivalent": equivalent,
    }


def report(result):
    table = format_table(
        f"E17: optimistic parallel block execution "
        f"({result['n_txs']} txs, {result['workers']} workers, "
        f"serial low-conflict {result['serial_low_conflict_s']:.3f}s)",
        ["backend", "low-conflict (s)", "speedup", "parallel commits",
         "waves", "100%-conflict (s)", "degradation", "bit-identical"],
        [[r["backend"], r["low_conflict_s"], r["speedup"],
          r["parallel_committed"], r["waves"], r["full_conflict_s"],
          r["degradation"], r["roots_equal"] and r["receipts_equal"]]
         for r in result["backends"]],
    )
    emit("e17_parallel_exec", table)
    return result


def check(result):
    """The invariants CI enforces (speedup only with real parallelism)."""
    assert result["equivalent"], "parallel execution diverged from serial"
    for row in result["backends"]:
        assert row["degradation"] <= 1.25, (
            f"{row['backend']}: 100%-conflict block {row['degradation']:.2f}x "
            "serial (budget 1.25x)"
        )
    if result["workers"] >= 2:
        best = max(row["speedup"] for row in result["backends"])
        floor = 2.0 if result["workers"] >= 4 else 1.3
        assert best >= floor, (
            f"best speedup {best:.2f}x below {floor}x floor "
            f"({result['workers']} workers)"
        )


def test_e17_parallel_exec(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(fast=True), rounds=1, iterations=1
    )
    report(result)
    check(result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="60-tx blocks instead of 200")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} "
                             "envelope to PATH")
    parser.add_argument("--no-gate", action="store_true",
                        help="report without asserting the CI invariants")
    args = parser.parse_args(argv)
    result = report(run_experiment(fast=args.fast))
    emit_json(args.json, "e17_parallel_exec",
              {"fast": args.fast, "rounds": ROUNDS}, result)
    if not args.no_gate:
        check(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
