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
from repro.p2p.config import P2PConfig
from repro.p2p.gossip import KIND_BLOCK, Gossip, SeenCache
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


class _StubTransport:
    local_addr = "me"

    def __init__(self):
        self.requests = []

    def request(self, addr, method, params, **_callbacks):
        self.requests.append((addr, method, params["ids"]))


class _StubPeers:
    def note_alive(self, addr):
        pass


def test_announces_during_a_sync_cannot_grow_the_fetch_bookkeeping():
    """A peer announcing block ids while sync runs is deferred, not fetched —
    at most ``seen_cache_size`` of them, oldest dropped first — and the retry
    sources of a deferred id that sync then delivered go when sync ends."""
    cap, have, syncing = 8, set(), [True]
    metrics, transport = MetricsRegistry(), _StubTransport()
    gossip = Gossip(
        transport,
        _StubPeers(),
        P2PConfig(seen_cache_size=cap),
        has_item=lambda kind, item_id: item_id in have,
        get_item=lambda kind, item_id: None,
        deliver_tx=lambda tx: None,
        deliver_block=lambda block: None,
        sync_active=lambda: syncing[0],
        metrics=metrics,
    )
    ids = [f"block-{n}" for n in range(3 * cap)]
    for item_id in ids:
        for _ in range(3):  # a peer may repeat itself
            gossip.handle_announce({"from": "peer", "kind": KIND_BLOCK, "ids": [item_id]})
    assert list(gossip._deferred) == [(KIND_BLOCK, item_id) for item_id in ids[-cap:]]
    assert gossip._sources == {item_id: ["peer"] for item_id in ids[-cap:]}
    assert metrics.counter_total("p2p_fetch_deferred_dropped") == 2 * cap
    assert transport.requests == []

    have.update(ids[-cap:-1])  # sync delivered all but the newest
    syncing[0] = False
    gossip.resume_after_sync()
    assert transport.requests == [("peer", "p2p.get_data", [ids[-1]])]
    assert not gossip._deferred
    assert gossip._sources == {ids[-1]: []}  # the one in flight; gone on reply
    gossip._on_bodies(KIND_BLOCK, ids[-1], {"bodies": []})
    assert gossip._sources == {} and gossip._in_flight == {}


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
