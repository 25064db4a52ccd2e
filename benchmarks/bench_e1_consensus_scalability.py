"""E1 — Blockchain scalability (paper section I).

Claim: "the performance (transaction latency and throughput) cannot scale up
proportionally along with the number of nodes increasing.  On the contrary,
the performance of a single node is better than multiple nodes due to the
faster consensus."

Workload: a fixed stream of 40 transfer transactions on PoW networks of
1/2/4/8 nodes.  The *aggregate* hash rate is held constant (the same
hardware pool, more or less distributed), so block discovery time is the
same in expectation and the comparison isolates the cost of distribution:
broadcast traffic, propagation latency, and fork races.  Reported per
network size: simulated time to commit all, throughput, mean and p95 commit
latency, and broadcast messages sent.
"""

from __future__ import annotations

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, format_table, json_main

from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.consensus.node import NodeConfig
from repro.consensus.pow import ProofOfWork
from repro.consensus.simchain import SimChain

TX_COUNT = 40
NODE_COUNTS = (1, 2, 4, 8)
TOTAL_HASH_RATE = 4e3  # hashes/second across the whole network


def run_network(node_count: int, seed: int = 3):
    funder = KeyPair.generate("e1-funder")
    chain = SimChain(
        [f"n{i}" for i in range(node_count)],
        {funder.address: 10**9},
        engine=ProofOfWork(
            difficulty_bits=10, default_hash_rate=TOTAL_HASH_RATE / node_count
        ),
        config=NodeConfig(max_txs_per_block=5),
        seed=seed,
    )
    kernel, metrics, entry = chain.kernel, chain.metrics, chain.nodes["n0"]
    txs = [make_transfer(funder, "sink", 1, nonce=n) for n in range(TX_COUNT)]
    start = kernel.now
    for index, tx in enumerate(txs):
        kernel.schedule(0.2 * index, lambda t=tx: entry.submit_tx(t))
    chain.commit(*txs, names=["n0"], timeout_s=3600)
    elapsed = kernel.now - start
    latency = metrics.histogram("tx_commit_latency_s")
    return {
        "nodes": node_count,
        "sim_seconds": elapsed,
        "throughput_tps": TX_COUNT / elapsed if elapsed else 0.0,
        "mean_latency_s": latency.mean,
        "p95_latency_s": latency.percentile(0.95),
        "messages": chain.network.messages_sent,
    }


def run_experiment():
    return [run_network(count) for count in NODE_COUNTS]


def report(rows):
    table = format_table(
        "E1: PoW consensus scalability (fixed 40-tx load)",
        ["nodes", "sim time (s)", "throughput (tx/s)", "mean commit lat (s)",
         "p95 lat (s)", "msgs sent"],
        [
            [r["nodes"], r["sim_seconds"], r["throughput_tps"],
             r["mean_latency_s"], r["p95_latency_s"], r["messages"]]
            for r in rows
        ],
    )
    emit("e1_consensus_scalability", table)
    return rows


def test_e1_consensus_scalability(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(rows)
    # The paper's claim: more nodes do not increase throughput.
    single = next(r for r in rows if r["nodes"] == 1)
    eight = next(r for r in rows if r["nodes"] == 8)
    assert eight["throughput_tps"] <= single["throughput_tps"] * 1.3
    # Broadcast traffic explodes with the node count.
    assert eight["messages"] > 10 * single["messages"]


def main(argv=None):
    return json_main(
        argv, __doc__, "e1_consensus_scalability",
        {"tx_count": TX_COUNT, "node_counts": list(NODE_COUNTS),
         "total_hash_rate": TOTAL_HASH_RATE},
        lambda: {"rows": report(run_experiment())},
    )


if __name__ == "__main__":
    sys.exit(main())
