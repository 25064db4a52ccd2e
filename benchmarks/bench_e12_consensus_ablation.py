"""E12 — Consensus ablation: PoW vs PoS vs PoA (paper section I survey).

Claims: PoS "resolves the wasting energy issue, but it is still a
duplicated computing mechanism"; the same holds for permissioned PoA.  The
duplication the paper attacks lives in *contract execution*, not in the
proof mechanism — so switching consensus changes energy and latency but
leaves the N-fold contract gas untouched.

Workload: the identical contract-call load (counter increments) on 4-node
networks under each engine.  Reported: commit latency, throughput, hash
energy, and the per-node gas (identical across engines and across nodes).
"""

from __future__ import annotations

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, format_table, json_main

from repro.chain.transactions import make_call, make_deploy
from repro.common.signatures import KeyPair
from repro.consensus.node import NodeConfig
from repro.consensus.pos import ProofOfStake
from repro.consensus.pow import ProofOfWork
from repro.consensus.simchain import SimChain
from repro.contracts.library import COUNTER_SOURCE

NODES = 4
CALLS = 25


def run_engine(kind: str, seed: int = 17):
    owner = KeyPair.generate("e12-owner")
    names = [f"v{i}" for i in range(NODES)]
    engine = None  # the chain's default: PoA over the names
    if kind == "pow":
        engine = ProofOfWork(difficulty_bits=13, default_hash_rate=1e3)
    elif kind == "pos":
        engine = ProofOfStake({name: 100 for name in names}, round_time_s=0.5)
    chain = SimChain(
        names, {owner.address: 10**9}, engine=engine, block_interval_s=0.5,
        config=NodeConfig(max_txs_per_block=5), seed=seed,
    )
    kernel, metrics, entry = chain.kernel, chain.metrics, chain.nodes["v0"]
    deploy = make_deploy(owner, "counter", COUNTER_SOURCE, nonce=0)
    entry.submit_tx(deploy)
    contract_id = chain.commit(deploy, names=["v0"], timeout_s=600).output
    start = kernel.now
    txs = [
        make_call(owner, contract_id, "increment", {"by": 1}, nonce=n + 1)
        for n in range(CALLS)
    ]
    for tx in txs:
        entry.submit_tx(tx)
    chain.commit(*txs, names=["v0"], timeout_s=3600)
    elapsed = kernel.now - start
    # Drain in-flight gossip so every node finishes executing every block
    # (otherwise per-node gas comparisons see a truncated simulation).
    kernel.run(until=kernel.now + 60)
    latency = metrics.histogram("tx_commit_latency_s")
    gas_per_node = metrics.scopes("gas")
    return {
        "engine": kind,
        "sim_seconds": elapsed,
        "throughput_tps": CALLS / elapsed if elapsed else 0.0,
        "mean_latency_s": latency.mean,
        "hashes": metrics.counter_total("hashes"),
        "hash_energy_j": metrics.counter_total("hashes")
        * metrics.energy_model.joules_per_hash,
        "gas_per_node": gas_per_node,
        "gas_duplicated": len(set(gas_per_node.values())) == 1,
        "total_gas": metrics.counter_total("gas"),
    }


def run_experiment():
    return [run_engine(kind) for kind in ("pow", "pos", "poa")]


def report(rows):
    table = format_table(
        f"E12: consensus ablation ({NODES} nodes, identical 25-call load)",
        ["engine", "sim time (s)", "tx/s", "mean latency (s)", "hash attempts",
         "hash energy (J)", "gas per node", "gas duplicated N-fold?"],
        [
            [r["engine"], r["sim_seconds"], r["throughput_tps"],
             r["mean_latency_s"], r["hashes"], r["hash_energy_j"],
             next(iter(r["gas_per_node"].values())), r["gas_duplicated"]]
            for r in rows
        ],
    )
    emit("e12_consensus_ablation", table)
    return rows


def test_e12_consensus_ablation(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(rows)
    by_engine = {row["engine"]: row for row in rows}
    # Only PoW burns hash energy.
    assert by_engine["pow"]["hashes"] > 0
    assert by_engine["pos"]["hashes"] == 0
    assert by_engine["poa"]["hashes"] == 0
    # But contract gas is duplicated N-fold under EVERY engine — the paper's
    # point that consensus fixes don't address smart-contract duplication.
    for row in rows:
        assert row["gas_duplicated"]
        assert len(row["gas_per_node"]) == NODES
    gas_totals = {row["engine"]: row["total_gas"] for row in rows}
    assert len(set(gas_totals.values())) == 1  # identical across engines


def main(argv=None):
    return json_main(
        argv, __doc__, "e12_consensus_ablation",
        {"nodes": NODES, "calls": CALLS},
        lambda: {"rows": report(run_experiment())},
    )


if __name__ == "__main__":
    sys.exit(main())
