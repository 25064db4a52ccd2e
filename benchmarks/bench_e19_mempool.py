"""E19 — Fee-market mempool under oversubscription: priority and fairness.

Drives PoA networks whose offered transaction load exceeds mempool
capacity by 10x and 100x and measures what the priority fee market
delivers end-to-end (admission -> gossip -> block building -> commit):

- **priority**: inclusion rate and commit latency split by fee band —
  high bidders must clear strictly faster than low bidders, with latency
  measured from sim submission time to the committing block's header
  timestamp (discrete-event time, never wall clock);
- **bounded depth**: no node's pool may ever exceed its configured
  capacity, however hard it is oversubscribed;
- **fairness**: one spamming key flooding cheap transactions must not
  crowd out a modest paying sender once the per-account token bucket is
  on — and the no-limiter control shows the crowding the limiter
  prevents.

The networks are discrete-event simulations with seeded kernels, so
every number here is deterministic and CI can gate on ordering
relations, not just smoke.
"""

from __future__ import annotations

import argparse
import random
import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, format_table

from repro.chain.mempool import MempoolConfig
from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.consensus.node import NodeConfig
from repro.consensus.simchain import SimChain

NODES = 3
BLOCK_INTERVAL_S = 0.5
SEED = 19


def build_chain(mempool_config, max_txs_per_block, funded, seed=SEED):
    chain = SimChain(
        [f"n{i}" for i in range(NODES)],
        {keypair.address: 10**9 for keypair in funded},
        block_interval_s=BLOCK_INTERVAL_S,
        config=NodeConfig(
            max_txs_per_block=max_txs_per_block, mempool=mempool_config
        ),
        seed=seed,
    )
    return chain.kernel, chain.metrics, chain.nodes


def commit_times(entry):
    """tx_id -> commit time (s, sim clock) from canonical block headers."""
    times = {}
    for block in entry.store.canonical_chain():
        for tx in block.transactions:
            times[tx.tx_id] = block.header.timestamp_ms / 1000.0
    return times


def median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else None


# -- priority under oversubscription ----------------------------------------

def run_priority(oversub, total_txs):
    """Offered load = ``oversub`` x pool capacity, fees uniform in 1..100."""
    capacity = max(6, total_txs // oversub)
    per_block = 20
    inject_window_s = 10.0
    rng = random.Random(SEED + oversub)
    senders = [KeyPair.generate(f"e19-{oversub}-{i}") for i in range(total_txs)]
    config = MempoolConfig(max_size=capacity)
    kernel, metrics, nodes = build_chain(config, per_block, senders)
    entry = nodes["n0"]

    fees = [rng.randint(1, 100) for _ in range(total_txs)]
    txs = [
        make_transfer(
            keypair, "sink", 1, nonce=0,
            max_fee_per_gas=fee, priority_fee_per_gas=fee,
        )
        for keypair, fee in zip(senders, fees)
    ]
    submit_at = {}
    for index, tx in enumerate(txs):
        at = 1.0 + inject_window_s * index / total_txs
        submit_at[tx.tx_id] = at
        kernel.schedule(at, lambda t=tx: entry.submit_tx(t), label="e19:submit")
    kernel.run(until=1.0 + inject_window_s + 40.0)

    committed = commit_times(entry)
    bands = {"low(p0-25)": (1, 25), "mid(p25-75)": (26, 75), "high(p75-100)": (76, 100)}
    rows = {}
    for band, (lo, hi) in bands.items():
        members = [tx for tx, fee in zip(txs, fees) if lo <= fee <= hi]
        latencies = [
            committed[tx.tx_id] - submit_at[tx.tx_id]
            for tx in members
            if tx.tx_id in committed
        ]
        rows[band] = {
            "offered": len(members),
            "included": len(latencies),
            "inclusion_rate": len(latencies) / len(members) if members else 0.0,
            "median_latency_s": median(latencies),
        }
    max_depth = max(node.mempool.max_depth_seen for node in nodes.values())
    return {
        "oversub": oversub,
        "total_txs": total_txs,
        "capacity": capacity,
        "txs_per_block": per_block,
        "bands": rows,
        "max_depth_seen": max_depth,
        "included_total": len(committed),
        "evicted": metrics.counter_total("mempool_evicted_capacity"),
        "shed_or_full": metrics.counter_total("mempool_rejected_pool_full"),
    }


# -- fairness under spam ------------------------------------------------------

def run_fairness(limiter, spam_txs, payer_txs):
    """One key floods fee-3 spam; a payer sends fee-3 txs at 1/s."""
    config = MempoolConfig(
        max_size=30,
        rate_limit_rate=1.0 if limiter else None,
        rate_limit_burst=4,
    )
    spammer = KeyPair.generate("e19-spammer")
    payer = KeyPair.generate("e19-payer")
    kernel, metrics, nodes = build_chain(config, 5, [spammer, payer])
    entry = nodes["n0"]

    spam_rate = 20.0  # tx/s, 2x the network's drain rate
    spam = [
        make_transfer(spammer, "sink", 1, nonce=n,
                      max_fee_per_gas=3, priority_fee_per_gas=3)
        for n in range(spam_txs)
    ]
    for index, tx in enumerate(spam):
        kernel.schedule(
            1.0 + index / spam_rate, lambda t=tx: entry.submit_tx(t),
            label="e19:spam",
        )
    paid = [
        make_transfer(payer, "sink", 1, nonce=n,
                      max_fee_per_gas=3, priority_fee_per_gas=3)
        for n in range(payer_txs)
    ]
    for index, tx in enumerate(paid):
        kernel.schedule(
            2.0 + float(index), lambda t=tx: entry.submit_tx(t),
            label="e19:payer",
        )
    kernel.run(until=2.0 + payer_txs + 40.0)

    committed = commit_times(entry)
    payer_included = sum(1 for tx in paid if tx.tx_id in committed)
    spam_included = sum(1 for tx in spam if tx.tx_id in committed)
    return {
        "limiter": limiter,
        "spam_offered": spam_txs,
        "spam_included": spam_included,
        "payer_offered": payer_txs,
        "payer_included": payer_included,
        "payer_inclusion_rate": payer_included / payer_txs,
        "rate_limited": metrics.counter_total("mempool_rejected_rate_limited"),
        "max_depth_seen": max(n.mempool.max_depth_seen for n in nodes.values()),
    }


def run_experiment(fast=False):
    priority = [
        run_priority(10, 600 if fast else 1500),
        run_priority(100, 800 if fast else 2000),
    ]
    spam_txs, payer_txs = (180, 10) if fast else (400, 15)
    fairness = {
        "with_limiter": run_fairness(True, spam_txs, payer_txs),
        "without_limiter": run_fairness(False, spam_txs, payer_txs),
    }
    return {"priority": priority, "fairness": fairness}


def report(result):
    rows = []
    for run in result["priority"]:
        for band, stats in run["bands"].items():
            rows.append([
                f"{run['oversub']}x", run["capacity"], band, stats["offered"],
                stats["included"], stats["inclusion_rate"],
                stats["median_latency_s"]
                if stats["median_latency_s"] is not None else "-",
            ])
    table = format_table(
        "E19: priority under oversubscription "
        f"({NODES}-node PoA, {BLOCK_INTERVAL_S}s blocks)",
        ["oversub", "pool cap", "fee band", "offered", "included",
         "inclusion", "median latency (s)"],
        rows,
    )
    fair_rows = [
        [label, run["spam_offered"], run["spam_included"],
         run["payer_offered"], run["payer_included"],
         run["payer_inclusion_rate"], run["rate_limited"],
         run["max_depth_seen"]]
        for label, run in result["fairness"].items()
    ]
    fair_table = format_table(
        "E19: fairness under spam (same fee, spammer at 2x drain rate)",
        ["scenario", "spam offered", "spam included", "payer offered",
         "payer included", "payer inclusion", "rate-limited", "max depth"],
        fair_rows,
    )
    emit("e19_mempool", table + "\n\n" + fair_table)
    return result


def check(result):
    """The invariants CI enforces."""
    for run in result["priority"]:
        assert run["max_depth_seen"] <= run["capacity"], (
            f"pool depth {run['max_depth_seen']} exceeded capacity "
            f"{run['capacity']} at {run['oversub']}x"
        )
        bands = run["bands"]
        high, low = bands["high(p75-100)"], bands["low(p0-25)"]
        assert high["inclusion_rate"] >= low["inclusion_rate"], (
            f"{run['oversub']}x: high-fee inclusion below low-fee"
        )
        if run["oversub"] == 10:
            # The headline property: money talks — strictly lower latency
            # for the top band (an empty low band counts as infinite).
            high_lat = high["median_latency_s"]
            low_lat = low["median_latency_s"]
            assert high_lat is not None and high["inclusion_rate"] >= 0.9
            assert low_lat is None or high_lat < low_lat, (
                f"high-fee median {high_lat}s not below low-fee {low_lat}s"
            )
    with_l = result["fairness"]["with_limiter"]
    without = result["fairness"]["without_limiter"]
    assert with_l["payer_inclusion_rate"] >= 0.9, (
        f"payer crowded out despite limiter: {with_l['payer_inclusion_rate']}"
    )
    assert with_l["rate_limited"] > 0
    assert with_l["payer_inclusion_rate"] > without["payer_inclusion_rate"], (
        "limiter did not improve payer inclusion over the control"
    )
    for run in (with_l, without):
        assert run["max_depth_seen"] <= 30


def test_e19_mempool(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(fast=True), rounds=1, iterations=1
    )
    report(result)
    check(result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="smaller offered loads")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} "
                             "envelope to PATH")
    parser.add_argument("--no-gate", action="store_true",
                        help="report without asserting the CI invariants")
    args = parser.parse_args(argv)
    result = report(run_experiment(fast=args.fast))
    emit_json(args.json, "e19_mempool",
              {"fast": args.fast, "nodes": NODES,
               "block_interval_s": BLOCK_INTERVAL_S},
              result)
    if not args.no_gate:
        check(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
