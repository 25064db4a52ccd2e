"""E13 — Lightning-style channels reduce ledger load, not duplication (§I).

Claim: "lightning network reduces the loading of the number of transactions
to improve the system overall performance ... but it is still a duplicated
computing mechanism."

Workload: two parties exchange K payments, (a) as on-chain transfers on a
4-node PoA network, and (b) inside a state channel that settles once.
Reported: on-chain transactions, total gas, bytes broadcast, and simulated
time — plus the observation that the *settlement* transactions are still
executed by every node (duplication survives).
"""

from __future__ import annotations

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, format_table, human_bytes, json_main

from repro.chain.channels import StateChannel
from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.consensus.node import NodeConfig
from repro.consensus.simchain import SimChain

PAYMENTS = 80
NODES = 4
ALICE = KeyPair.generate("e13-alice")
BOB = KeyPair.generate("e13-bob")


def _chain(seed: int) -> SimChain:
    """The 4-node PoA chain both approaches run on; it funds both parties."""
    return SimChain(
        [f"v{i}" for i in range(NODES)],
        {ALICE.address: 10**9, BOB.address: 10**9},
        block_interval_s=0.5,
        config=NodeConfig(max_txs_per_block=10),
        seed=seed,
    )


def run_onchain(seed: int = 29):
    chain = _chain(seed)
    kernel, metrics = chain.kernel, chain.metrics
    txs = [make_transfer(ALICE, BOB.address, 1, nonce=n) for n in range(PAYMENTS)]
    for tx in txs:
        chain.nodes["v0"].submit_tx(tx)
    chain.commit(*txs, names=["v0"], timeout_s=3600)
    elapsed = kernel.now
    kernel.run(until=kernel.now + 30)
    return {
        "approach": "on-chain transfers",
        "onchain_txs": PAYMENTS,
        "total_gas": metrics.counter_total("gas"),
        "bytes": metrics.counter_total("bytes_transferred"),
        "sim_seconds": elapsed,
    }


def run_channel(seed: int = 29):
    chain = _chain(seed)
    kernel, metrics = chain.kernel, chain.metrics
    # Open: one funding transfer into an escrow address (modelled as a
    # transfer); updates happen entirely off chain; close: one settlement.
    open_tx = make_transfer(ALICE, "channel-escrow", 1000, nonce=0)
    chain.nodes["v0"].submit_tx(open_tx)
    chain.commit(open_tx, names=["v0"], timeout_s=600)
    channel = StateChannel("e13-chan", ALICE, BOB, deposit_a=1000, deposit_b=0)
    for __ in range(PAYMENTS):
        channel.propose_update(ALICE, 1)
    record = channel.close_cooperative()
    close_tx = make_transfer(ALICE, BOB.address, 0, nonce=1)  # settlement marker
    chain.nodes["v0"].submit_tx(close_tx)
    chain.commit(close_tx, names=["v0"], timeout_s=600)
    elapsed = kernel.now
    kernel.run(until=kernel.now + 30)
    per_node_gas = metrics.scopes("gas")
    return {
        "approach": "state channel",
        "onchain_txs": 2,
        "total_gas": metrics.counter_total("gas"),
        "bytes": metrics.counter_total("bytes_transferred"),
        "sim_seconds": elapsed,
        "offchain_updates": channel.updates_exchanged,
        "settlement_duplicated": len(set(per_node_gas.values())) == 1,
        "final_bob_balance": record.final_balances[BOB.address],
    }


def run_experiment():
    return [run_onchain(), run_channel()]


def report(rows):
    table = format_table(
        f"E13: {PAYMENTS} payments — on-chain vs state channel ({NODES}-node PoA)",
        ["approach", "on-chain txs", "total gas (all nodes)", "bytes broadcast",
         "sim time (s)"],
        [
            [r["approach"], r["onchain_txs"], r["total_gas"],
             human_bytes(r["bytes"]), r["sim_seconds"]]
            for r in rows
        ],
    )
    emit("e13_state_channels", table)
    return rows


def test_e13_state_channels(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(rows)
    onchain, channel = rows
    # The Lightning claim: txs collapse to open+close, gas and bytes shrink.
    assert channel["onchain_txs"] == 2
    assert channel["total_gas"] < onchain["total_gas"] / 5
    assert channel["bytes"] < onchain["bytes"] / 3
    assert channel["offchain_updates"] == PAYMENTS
    assert channel["final_bob_balance"] == PAYMENTS
    # The paper's counterpoint: what DOES reach the chain is still executed
    # identically by every node.
    assert channel["settlement_duplicated"]


def main(argv=None):
    return json_main(
        argv, __doc__, "e13_state_channels",
        {"payments": PAYMENTS, "nodes": NODES},
        lambda: {"rows": report(run_experiment())},
    )


if __name__ == "__main__":
    sys.exit(main())
