"""Gossip: announce-by-hash semantics, dedup, and the zero-flood property."""

from __future__ import annotations

import pytest

from repro.chain.blocks import make_genesis
from repro.chain.state import StateDB
from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.consensus.node import make_network_nodes
from repro.consensus.poa import ProofOfAuthority
from repro.consensus.pos import ProofOfStake
from repro.p2p.gossip import SeenCache
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network


def test_seen_cache_is_a_bounded_lru():
    cache = SeenCache(3)
    assert cache.add("a") and cache.add("b") and cache.add("c")
    assert not cache.add("a")  # duplicate, refreshed
    cache.add("d")  # evicts b (a was refreshed)
    assert "a" in cache and "b" not in cache
    assert len(cache) == 3


def test_tx_gossip_propagates_via_fetch_on_miss(p2p_world):
    world = p2p_world
    tx = make_transfer(world.alice, "sink", 1, nonce=0)
    world.nodes["n0"].submit_tx(tx)
    world.kernel.run(
        until=world.kernel.now + 30,
        stop_when=lambda: all(tx.tx_id in n.mempool or n.receipt(tx.tx_id)
                              for n in world.nodes.values()),
    )
    assert all(
        tx.tx_id in node.mempool or node.receipt(tx.tx_id)
        for node in world.nodes.values()
    )
    assert world.metrics.counter_total("p2p_announce_sent") > 0
    assert world.metrics.counter_total("p2p_fetches") > 0


def test_block_propagation_never_duplicates_bodies(p2p_world):
    world = p2p_world
    txs = [make_transfer(world.alice, "sink", 1, nonce=n) for n in range(9)]
    for tx in txs:
        world.nodes["n0"].submit_tx(tx)
    world.commit(txs[-1])
    assert world.converged()
    assert world.nodes["n0"].head.height >= 3
    # The zero-flood property: every node received each block body at most
    # once; redundant announcements were deduplicated by id.
    assert world.metrics.counter_total("p2p_duplicate_bodies") == 0
    assert world.metrics.counter_total("p2p_announce_duplicate") > 0


def test_bodies_are_never_flooded_full_size(p2p_world):
    """Announcements are id-sized; bodies move only via explicit fetch."""
    world = p2p_world
    tx = make_transfer(world.alice, "sink", 1, nonce=0)
    world.nodes["n0"].submit_tx(tx)
    world.commit(tx)
    fetches = world.metrics.counter_total("p2p_fetches")
    served = world.metrics.counter_total("p2p_bodies_served")
    assert fetches > 0
    assert served <= fetches  # one body per fetch, never pushed unrequested


@pytest.mark.parametrize("consensus", ["poa", "pos"])
def test_tx_submitted_before_first_handshake_reaches_every_pool(alice, consensus):
    """Regression (liveness): ``announce`` samples *connected* peers, so a
    tx submitted before the first ``p2p.hello`` completed was offered to
    nobody and never again; under PoS (no backup proposer) it then never
    committed.  The on-connect inventory offers it once the link is up."""
    kernel = Kernel(seed=5)
    metrics = MetricsRegistry()
    network = Network(kernel, metrics)
    state = StateDB()
    state.credit(alice.address, 10**9)
    genesis = make_genesis(state.state_root())
    names = [f"n{i}" for i in range(4)]
    if consensus == "poa":
        keypairs = {name: KeyPair.generate(name) for name in names}
        engine = ProofOfAuthority(names, keypairs, block_interval_s=1.0)
        proposer = engine.proposer_at(1)
    else:
        engine = ProofOfStake({name: 100 for name in names}, round_time_s=1.0)
        proposer = engine.winner_at(genesis, 1)
    nodes = make_network_nodes(
        kernel, network, names, genesis, state, lambda: engine, metrics=metrics
    )
    for node in nodes.values():
        node.start()
    entry = next(nodes[name] for name in names if name != proposer)
    tx = make_transfer(alice, "sink", 1, nonce=0)
    assert entry.submit_tx(tx)  # t = 0: no handshake has completed yet
    assert metrics.counter_total("p2p_announce_sent") == 0
    kernel.run(until=0.5)  # hello + announce + get_data + body, < one interval
    assert all(
        tx.tx_id in node.mempool or node.receipt(tx.tx_id)
        for node in nodes.values()
    )
    kernel.run(
        until=60.0,
        stop_when=lambda: all(n.receipt(tx.tx_id) for n in nodes.values()),
    )
    assert all(node.receipt(tx.tx_id) for node in nodes.values())
