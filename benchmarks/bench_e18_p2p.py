"""E18 — p2p dissemination: propagation latency, dedup, and cold sync.

Three measurements over ``repro.p2p``'s gossip (the creator of a tx or
block pushes its body to ``fanout`` peers and names them; relays announce
the id and a peer that lacks the body fetches it once) and headers-first
sync:

- *Propagation matrix* (sim): time for a transaction submitted at one
  node to reach every mempool, across network size x gossip fanout,
  plus the pushes sent and the duplicate-delivery ratio (bodies received
  more than once per node — the zero-flood property says this stays at
  exactly zero).
- *Cold sync* (sim): time for a fresh node joining mid-chain to reach
  the network head via locator-based header windows, vs chain length.
- *TCP acceptance* (real sockets): a 5-node validator network over the
  framed JSON-RPC transport, plus a fresh joiner that must converge to
  the same head id and bit-identical state root with zero duplicate
  bodies.  CI gates on ``equivalent`` and ``zero_flood``.
"""

from __future__ import annotations

import argparse
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, format_table

from repro.chain.transactions import make_transfer
from repro.common.clock import WallClock
from repro.common.signatures import KeyPair
from repro.consensus.node import NodeConfig
from repro.consensus.simchain import SimChain
from repro.p2p.config import P2PConfig

BASE_PORT = 9481
PROBE_INTERVAL_S = 0.01


def percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


ALICE = KeyPair.generate("alice")


def sim_world(n_nodes, fanout, seed=18):
    """A PoA chain of ``n_nodes`` (the first 3 validate) gossiping via p2p.

    The validators form a full mesh; every other node bootstraps from
    them, and the rest of the mesh is discovery.
    """
    validators = [f"n{i}" for i in range(min(3, n_nodes))]
    config = NodeConfig(
        max_txs_per_block=3, p2p=P2PConfig(fanout=fanout, ping_interval_s=2.0)
    )
    world = SimChain(
        validators, {ALICE.address: 10**9}, block_interval_s=0.5,
        config=config, seed=seed,
    )
    for i in range(len(validators), n_nodes):
        world.add_node(f"n{i}", validators)
    world.kernel.run(until=3.0)  # let the mesh form
    return world


def measure_propagation(n_nodes, fanout, n_txs):
    """Per-node first-arrival latency of gossiped txs, plus dedup ratios."""
    world = sim_world(n_nodes, fanout)
    latencies = []
    for n in range(n_txs):
        tx = make_transfer(ALICE, "sink", 1, nonce=n)
        start = world.kernel.now
        arrivals = {}

        def has_tx(node):
            return tx.tx_id in node.mempool or node.receipt(tx.tx_id)

        def probe():
            for name, node in world.nodes.items():
                if name not in arrivals and has_tx(node):
                    arrivals[name] = world.kernel.now - start
            if len(arrivals) < len(world.nodes):
                world.kernel.schedule(PROBE_INTERVAL_S, probe, label="probe")

        world.nodes["n0"].submit_tx(tx)
        probe()
        world.kernel.run(
            until=start + 60.0,
            stop_when=lambda: len(arrivals) == len(world.nodes),
        )
        latencies.extend(v for k, v in arrivals.items() if k != "n0")
    world.kernel.run(until=world.kernel.now + 5.0)  # drain block gossip
    fetches = world.metrics.counter_total("p2p_fetches")
    duplicates = world.metrics.counter_total("p2p_duplicate_bodies")
    return {
        "nodes": n_nodes,
        "fanout": fanout,
        "txs": n_txs,
        "p50_s": percentile(latencies, 0.50),
        "p95_s": percentile(latencies, 0.95),
        "max_s": max(latencies) if latencies else 0.0,
        "pushes": world.metrics.counter_total("p2p_push_sent"),
        "fetches": fetches,
        "duplicate_bodies": duplicates,
        "dup_ratio": duplicates / fetches if fetches else 0.0,
        "announce_dedup": world.metrics.counter_total("p2p_announce_duplicate"),
    }


def measure_cold_sync(n_txs):
    """Sim time for a fresh joiner to sync a chain of ~n_txs/3 blocks."""
    world = sim_world(3, fanout=2)
    txs = [make_transfer(ALICE, "sink", 1, nonce=n) for n in range(n_txs)]
    for tx in txs:
        world.nodes["n0"].submit_tx(tx)
    world.commit(txs[-1], timeout_s=600.0)
    head = world.nodes["n0"].head
    joiner = world.add_node(
        "joiner", ["n0", "n1"], NodeConfig(p2p=P2PConfig(fanout=2, ping_interval_s=1.0))
    )
    start = world.kernel.now
    world.kernel.run(
        until=start + 600.0,
        stop_when=lambda: joiner.head.block_id == world.nodes["n0"].head.block_id,
    )
    return {
        "chain_blocks": head.height,
        "sync_s": world.kernel.now - start,
        "sync_rounds": world.metrics.counter("p2p_sync_rounds", scope="joiner"),
        "sync_blocks": world.metrics.counter("p2p_sync_blocks", scope="joiner"),
        "duplicate_bodies": world.metrics.counter(
            "p2p_duplicate_bodies", scope="joiner"
        ),
        "root_equal": joiner.state.state_root()
        == world.nodes["n0"].state.state_root(),
    }


def run_tcp_acceptance(n_validators=5, n_txs=8):
    """The ISSUE's acceptance scenario over real sockets, measured."""
    from repro.p2p.host import P2PHost, build_world
    from repro.p2p.wire import tx_to_wire
    from repro.rpc.client import ConnectionPool
    from repro.rpc.runtime import EventLoopThread

    names = [f"v{i}" for i in range(n_validators)]
    world = build_world(names, {"alice": 10**9}, block_interval_s=0.2)
    clock = WallClock()
    addrs = [f"127.0.0.1:{BASE_PORT + i}" for i in range(n_validators)]
    loop = EventLoopThread(name="bench-e18-client")

    def call(addr, method, params=None):
        host, port = addr.rsplit(":", 1)

        async def go():
            pool = ConnectionPool(host, int(port), request_timeout_s=5.0)
            try:
                return await pool.call(method, params or {}, timeout_s=5.0)
            finally:
                await pool.close()

        return loop.run(go(), timeout_s=10.0)

    def wait_for(predicate, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.2)
        return predicate()

    def make_host(name, port, seeds, seed):
        genesis, state, engine = world
        return P2PHost(
            name=name,
            listen_addr=f"127.0.0.1:{port}",
            genesis=genesis,
            genesis_state=state,
            consensus=engine,
            node_config=NodeConfig(max_txs_per_block=2),
            p2p_config=P2PConfig(
                seeds=seeds, fanout=2, ping_interval_s=0.5, request_timeout_s=3.0
            ),
            seed=seed,
            time_source=clock.now,
        )

    hosts = [
        make_host(name, BASE_PORT + i, [a for j, a in enumerate(addrs) if j != i], i)
        for i, name in enumerate(names)
    ]
    joiner = None
    try:
        for host in hosts:
            host.start()
        assert wait_for(
            lambda: all(call(a, "ctl.status")["peers"] for a in addrs)
        ), "validators never interconnected"
        for n in range(n_txs):
            tx = make_transfer(ALICE, "sink", 1, nonce=n)
            call(addrs[0], "ctl.submit_tx", {"tx": tx_to_wire(tx)})
        assert wait_for(
            lambda: all(call(a, "ctl.status")["mempool"] == 0 for a in addrs)
            and len({call(a, "ctl.status")["head_id"] for a in addrs}) == 1
        ), "validators did not converge"
        head = call(addrs[0], "ctl.status")

        joiner_addr = f"127.0.0.1:{BASE_PORT + n_validators}"
        joiner = make_host("joiner", BASE_PORT + n_validators, [addrs[0]], 99)
        start = time.monotonic()
        joiner.start()

        def joined():
            status = call(joiner_addr, "ctl.status")
            tip = call(addrs[0], "ctl.status")
            return (
                status["head_id"] == tip["head_id"]
                and status["state_root"] == tip["state_root"]
            )

        synced = wait_for(joined)
        cold_sync_s = time.monotonic() - start
        statuses = [call(a, "ctl.status") for a in addrs + [joiner_addr]]
        counters = [call(a, "ctl.counters") for a in addrs + [joiner_addr]]
        return {
            "validators": n_validators,
            "chain_height": head["height"],
            "cold_sync_s": cold_sync_s,
            "equivalent": synced
            and len({s["head_id"] for s in statuses}) == 1
            and len({s["state_root"] for s in statuses}) == 1,
            "zero_flood": all(c["p2p_duplicate_bodies"] == 0 for c in counters),
            "pushes": sum(c["p2p_push_sent"] for c in counters),
            "sync_blocks": counters[-1]["p2p_sync_blocks"],
        }
    finally:
        if joiner is not None:
            joiner.stop()
        for host in hosts:
            host.stop()
        loop.close()


def run_experiment(fast=False):
    if fast:
        matrix = [(6, 2), (6, 4), (12, 2)]
        prop_txs, sync_lengths, tcp_txs = 4, [6, 12], 6
    else:
        matrix = [(6, 2), (6, 4), (12, 2), (12, 4), (24, 2), (24, 4)]
        prop_txs, sync_lengths, tcp_txs = 8, [9, 24, 48], 12
    propagation = [measure_propagation(n, f, prop_txs) for n, f in matrix]
    cold_sync = [measure_cold_sync(n) for n in sync_lengths]
    tcp = run_tcp_acceptance(n_txs=tcp_txs)
    return {"propagation": propagation, "cold_sync": cold_sync, "tcp": tcp}


def report(result):
    emit(
        "e18_p2p_propagation",
        format_table(
            "E18a: gossip propagation (sim; tx arrival latency across nodes)",
            ["nodes", "fanout", "p50 (s)", "p95 (s)", "max (s)",
             "pushes", "fetches", "dup bodies", "dup ratio"],
            [[r["nodes"], r["fanout"], r["p50_s"], r["p95_s"], r["max_s"],
              r["pushes"], r["fetches"], r["duplicate_bodies"], r["dup_ratio"]]
             for r in result["propagation"]],
        ),
    )
    emit(
        "e18_p2p_cold_sync",
        format_table(
            "E18b: headers-first cold sync (sim)",
            ["chain blocks", "sync (s)", "rounds", "blocks fetched",
             "dup bodies", "root equal"],
            [[r["chain_blocks"], r["sync_s"], r["sync_rounds"],
              r["sync_blocks"], r["duplicate_bodies"], r["root_equal"]]
             for r in result["cold_sync"]],
        ),
    )
    tcp = result["tcp"]
    emit(
        "e18_p2p_tcp",
        format_table(
            "E18c: TCP acceptance (5 validators + fresh joiner, real sockets)",
            ["validators", "chain height", "cold sync (s)", "sync blocks",
             "pushes", "equivalent", "zero flood"],
            [[tcp["validators"], tcp["chain_height"], tcp["cold_sync_s"],
              tcp["sync_blocks"], tcp["pushes"], tcp["equivalent"],
              tcp["zero_flood"]]],
        ),
    )
    return result


def check(result):
    """The invariants CI enforces."""
    for row in result["propagation"]:
        assert row["duplicate_bodies"] == 0, (
            f"{row['nodes']}x{row['fanout']}: {row['duplicate_bodies']} "
            "duplicate body deliveries (zero-flood property violated)"
        )
        assert row["pushes"] > 0, f"{row['nodes']}x{row['fanout']}: no body was pushed"
    for row in result["cold_sync"]:
        assert row["root_equal"], f"cold sync diverged at {row['chain_blocks']}"
        assert row["duplicate_bodies"] == 0, row
    assert result["tcp"]["equivalent"], (
        "TCP joiner did not converge to the network head/state root"
    )
    assert result["tcp"]["zero_flood"], (
        "duplicate block bodies delivered over TCP"
    )


def test_e18_p2p(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(fast=True), rounds=1, iterations=1
    )
    report(result)
    check(result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="smaller matrix and shorter chains")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} "
                             "envelope to PATH")
    parser.add_argument("--no-gate", action="store_true",
                        help="report without asserting the CI invariants")
    args = parser.parse_args(argv)
    result = report(run_experiment(fast=args.fast))
    emit_json(args.json, "e18_p2p", {"fast": args.fast}, result)
    if not args.no_gate:
        check(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
