"""Gossip: announce-by-hash semantics, dedup, and the zero-flood property."""

from __future__ import annotations

import math

import pytest

from repro.chain.blocks import build_block, make_genesis
from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.consensus.pos import ProofOfStake
from repro.consensus.simchain import SimChain
from repro.p2p.config import P2PConfig
from repro.p2p.gossip import KIND_BLOCK, KIND_TX, Gossip, SeenCache
from repro.p2p.transport import PeerUnreachable, SimTransport
from repro.p2p.wire import compact_block_to_wire, tx_to_wire
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import LinkSpec

from tests.p2p.conftest import P2PWorld


def test_seen_cache_is_a_bounded_lru():
    cache = SeenCache(3)
    assert cache.add("a") and cache.add("b") and cache.add("c")
    assert not cache.add("a")  # duplicate, refreshed
    cache.add("d")  # evicts b (a was refreshed)
    assert "a" in cache and "b" not in cache
    assert len(cache) == 3


def test_seen_cache_keeps_each_ids_holders_and_forgets_them_with_it():
    cache = SeenCache(2)
    assert cache.add("a", "p1")
    assert not cache.add("a", "p2") and not cache.add("a", "p1") and not cache.add("a")
    assert cache.holders("a") == ("p1", "p2")
    cache.add("b")
    cache.add("c")  # evicts a, holders and all
    assert cache.holders("a") == () and cache.holders("b") == ()


class _StubTransport:
    local_addr = "me"

    def __init__(self):
        self.requests = []
        self.notifications = []

    def request(self, addr, method, params, **_callbacks):
        self.requests.append((addr, method, params["ids"]))

    def notify(self, peers, method, params):
        self.notifications.extend((addr, method, params["ids"]) for addr in peers)


class _StubPeers:
    connected = ["p1", "p2", "p3"]
    peers = dict.fromkeys(connected)  # the PeerManager's table

    def note_alive(self, addr):
        pass

    def sample(self, count, exclude=()):
        return [addr for addr in self.connected if addr not in exclude][:count]


def _stub_gossip(transport, **overrides):
    settings = dict(
        has_item=lambda kind, item_id: False,
        get_item=lambda kind, item_id: None,
        deliver_tx=lambda tx: None,
        deliver_block=lambda block: None,
    )
    settings.update(overrides)
    return Gossip(transport, _StubPeers(), P2PConfig(fanout=4), **settings)


def test_announce_skips_peers_that_announced_or_fetched_the_id():
    """An announce is a notification, and goes only to peers not known to
    hold the id: p1 announced it to us, p2 fetched it from us."""
    transport = _StubTransport()
    gossip = _stub_gossip(transport, get_item=lambda kind, item_id: "body")
    gossip.handle_announce({"from": "p1", "kind": KIND_BLOCK, "ids": ["x"]})
    gossip.handle_get_data({"from": "p2", "kind": KIND_TX, "ids": ["x"]})
    assert gossip.announce(KIND_TX, "x") == 1
    assert transport.notifications == [("p3", "p2p.announce", ["x"])]
    assert gossip.announce(KIND_TX, "fresh") == 3


def test_a_compact_block_that_misses_the_pool_is_fetched_whole_from_its_source():
    """``get_data`` serves a block as its header and tx ids; the receiver
    rebuilds it from its pool, and on a miss asks the same peer for the whole
    block once — the missing tx counting as in flight meanwhile."""
    sender = KeyPair.generate("compact-sender")
    txs = [make_transfer(sender, "sink", 1, nonce=n) for n in range(3)]
    block = build_block(make_genesis(b"\0" * 32), txs, b"\1" * 32, "p1", 1000)
    server = _stub_gossip(_StubTransport(), get_item=lambda kind, item_id: block)
    reply = server.handle_get_data({"from": "me", "kind": KIND_BLOCK, "ids": [block.block_id]})
    (compact,) = reply["bodies"]
    assert compact["tx_ids"] == [tx.tx_id for tx in txs] and "transactions" not in compact

    pool = {tx.tx_id: tx for tx in txs}
    delivered, transport = [], _StubTransport()
    gossip = _stub_gossip(
        transport,
        get_item=lambda kind, item_id: pool.get(item_id),
        deliver_block=delivered.append,
    )
    gossip.handle_announce({"from": "p1", "kind": KIND_BLOCK, "ids": [block.block_id]})
    gossip._on_bodies(KIND_BLOCK, block.block_id, {"bodies": [compact]})
    assert [b.block_id for b in delivered] == [block.block_id]
    assert delivered[0].transactions == txs

    del pool[txs[1].tx_id]
    gossip = _stub_gossip(transport, get_item=lambda kind, item_id: pool.get(item_id))
    gossip.handle_announce({"from": "p1", "kind": KIND_BLOCK, "ids": [block.block_id]})
    gossip._on_bodies(KIND_BLOCK, block.block_id, {"bodies": [compact]})
    assert transport.requests[-1] == ("p1", "chain.get_blocks", [block.block_id])
    gossip.handle_announce({"from": "p2", "kind": KIND_TX, "ids": [txs[1].tx_id]})
    assert transport.requests[-1][1] == "chain.get_blocks"  # no fetch of the rider
    assert gossip._sources[txs[1].tx_id] == ["p2"]


def _push(kind, item_id, bodies, to=("p2", "p3"), sender="p1"):
    return {"from": sender, "kind": kind, "id": item_id, "bodies": list(bodies), "to": list(to)}


def test_a_push_is_delivered_once_and_its_named_peers_are_not_announced_to():
    """The sender and the named peers become holders — the receiver's own
    address is not in its peer table and is skipped — so the relay has
    nobody left to announce to."""
    tx = make_transfer(KeyPair.generate("push-sender"), "sink", 1, nonce=0)
    delivered, transport = [], _StubTransport()
    gossip = _stub_gossip(transport, deliver_tx=delivered.append)
    gossip.handle_push(_push(KIND_TX, tx.tx_id, [tx_to_wire(tx)], to=["me", "p2", "p3"]))
    assert [item.tx_id for item in delivered] == [tx.tx_id]
    assert gossip.seen.holders(tx.tx_id) == ("p1", "p2", "p3")
    assert gossip.announce(KIND_TX, tx.tx_id) == 0 and transport.notifications == []


def test_a_pushed_block_that_misses_the_pool_is_fetched_whole_from_its_pusher():
    sender = KeyPair.generate("push-sender")
    txs = [make_transfer(sender, "sink", 1, nonce=n) for n in range(3)]
    block = build_block(make_genesis(b"\0" * 32), txs, b"\1" * 32, "p1", 1000)
    pool = {tx.tx_id: tx for tx in txs[:2]}
    delivered, transport = [], _StubTransport()
    gossip = _stub_gossip(
        transport, get_item=lambda kind, item_id: pool.get(item_id), deliver_block=delivered.append
    )
    gossip.handle_push(_push(KIND_BLOCK, block.block_id, [compact_block_to_wire(block)]))
    assert delivered == []
    assert transport.requests == [("p1", "chain.get_blocks", [block.block_id])]


def _malformed_pushes():
    sender = KeyPair.generate("push-sender")
    tx, other = (make_transfer(sender, "sink", 1, nonce=n) for n in range(2))
    block = build_block(make_genesis(b"\0" * 32), [tx], b"\1" * 32, "p1", 1000)
    sibling = build_block(make_genesis(b"\0" * 32), [tx], b"\2" * 32, "p1", 1000)
    wire = tx_to_wire(tx)
    return {
        "no body": _push(KIND_TX, tx.tx_id, []),
        "two bodies": _push(KIND_TX, tx.tx_id, [wire, wire]),
        "bodies not a list": dict(_push(KIND_TX, tx.tx_id, []), bodies=wire),
        "tx body is another tx": _push(KIND_TX, tx.tx_id, [tx_to_wire(other)]),
        "tx body undecodable": _push(KIND_TX, tx.tx_id, [{"sender": 1}]),
        "tx nonce not finite": _push(KIND_TX, tx.tx_id, [dict(wire, nonce=math.inf)]),
        "float in the tx payload": _push(
            KIND_TX, tx.tx_id, [dict(wire, payload=dict(wire["payload"], amount=1.5))]
        ),
        "header is another block": _push(
            KIND_BLOCK, block.block_id, [compact_block_to_wire(sibling)]
        ),
        "unknown kind": _push("receipt", tx.tx_id, [wire]),
        "id not a string": _push(KIND_TX, 7, [wire]),
        "named peers not a list": dict(_push(KIND_TX, tx.tx_id, [wire]), to="p2"),
    }


MALFORMED_PUSHES = _malformed_pushes()


@pytest.mark.parametrize("shape", sorted(MALFORMED_PUSHES))
def test_a_malformed_push_is_counted_and_delivers_nothing(shape):
    params = MALFORMED_PUSHES[shape]
    metrics, delivered = MetricsRegistry(), []
    gossip = Gossip(
        _StubTransport(),
        _StubPeers(),
        P2PConfig(),
        has_item=lambda kind, item_id: False,
        get_item=lambda kind, item_id: None,
        deliver_tx=delivered.append,
        deliver_block=delivered.append,
        metrics=metrics,
    )
    gossip.handle_push(params)
    assert metrics.counter_total("p2p_invalid_bodies") == 1
    assert delivered == [] and len(gossip.seen) == 0 and gossip._in_flight == {}


def test_a_pushed_tx_with_an_infinite_nonce_or_a_float_counts_as_invalid(p2p_world):
    """Over the sim transport, into a running node: a push whose body has
    ``Infinity`` for its nonce or a float in its payload counts one invalid
    body each, and nothing is pooled."""
    tx = make_transfer(p2p_world.alice, "sink", 1, nonce=0)
    wire = tx_to_wire(tx)
    pusher = SimTransport(p2p_world.network, "pusher")
    for body in (dict(wire, nonce=math.inf), dict(wire, payload=dict(wire["payload"], amount=1.5))):
        pusher.notify(["n1"], "p2p.push", _push(KIND_TX, tx.tx_id, [body], to=[], sender="pusher"))
    p2p_world.kernel.run(until=p2p_world.kernel.now + 1.0)
    assert p2p_world.metrics.counter("p2p_invalid_bodies", scope="n1") == 2
    assert all(len(node.mempool) == 0 for node in p2p_world.nodes.values())


def test_an_unsolicited_push_cannot_grow_a_seen_cache_entry():
    """Named peers count as holders only if the peer table tracks them, and
    at most ``max_peers`` of them: strangers are never recorded."""
    tx = make_transfer(KeyPair.generate("push-sender"), "sink", 1, nonce=0)
    gossip = Gossip(
        _StubTransport(),
        _StubPeers(),
        P2PConfig(max_peers=1),
        has_item=lambda kind, item_id: True,
        get_item=lambda kind, item_id: None,
        deliver_tx=lambda tx: None,
        deliver_block=lambda block: None,
    )
    strangers = [f"stranger-{n}" for n in range(500)]
    for _ in range(3):
        gossip.handle_push(
            _push(KIND_TX, tx.tx_id, [tx_to_wire(tx)], to=strangers + ["p2", "p3"])
        )
    assert gossip.seen.holders(tx.tx_id) == ("p1", "p2")


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


def test_tx_gossip_propagates_via_fetch_on_miss(alice):
    """With fanout 1 of 3 peers the origin pushes a new tx to one peer, naming
    it; beyond that first hop, relays announce the id and a peer that lacks
    the body fetches it once."""
    world = P2PWorld(alice, n_validators=4, fanout=1)
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
    assert world.metrics.counter("p2p_push_sent", scope="n0") == 1
    assert world.metrics.counter_total("p2p_announce_sent") > 0
    assert world.metrics.counter_total("p2p_fetches") > 0
    assert world.metrics.counter_total("p2p_duplicate_bodies") == 0


def test_block_propagation_never_duplicates_bodies(p2p_world):
    """On a full mesh every body reaches every node in its creator's push,
    which names all its recipients: nothing is re-announced or fetched, and
    no node receives a body twice."""
    world = p2p_world
    txs = [make_transfer(world.alice, "sink", 1, nonce=n) for n in range(9)]
    for tx in txs:
        world.nodes["n0"].submit_tx(tx)
    world.commit(txs[-1])
    assert world.converged()
    assert world.nodes["n0"].head.height >= 3
    assert world.metrics.counter_total("p2p_duplicate_bodies") == 0
    assert world.metrics.counter_total("p2p_announce_sent") == 0
    assert world.metrics.counter_total("p2p_fetches") == 0


def test_bodies_are_never_flooded_full_size(p2p_world):
    """A body is sent unasked only by its creator, once to each peer: one tx
    and the block that commits it reach each of the two followers once."""
    world = p2p_world
    tx = make_transfer(world.alice, "sink", 1, nonce=0)
    world.nodes["n0"].submit_tx(tx)
    world.commit(tx)
    world.kernel.run(until=world.kernel.now + 1.0)  # the block's last push lands
    assert world.nodes["n0"].head.height == 1
    assert world.metrics.counter_total("p2p_push_sent") == 2 * 2
    assert world.metrics.counter_total("p2p_push_recv") == 2 * 2
    assert world.metrics.counter_total("p2p_bodies_served") == 0


def test_a_fetch_its_only_source_refuses_is_retried(alice):
    """n0 relays a tx it did not create, so it announces the id; it refuses
    the first ``get_data`` it is sent, as an overloaded server does.  n1 has
    no other source, so it asks n0 again after a short backoff rather than
    leaving the tx out of its pool.  (The tx's nonce is one ahead, so no block
    can bring it instead.)"""
    world = P2PWorld(alice, n_validators=2)
    transport = world.nodes["n0"].p2p.transport
    dispatch, refused = transport.dispatch, []

    def refusing(sender, method, params):
        if method == "p2p.get_data" and not refused:
            refused.append(sender)
            raise PeerUnreachable("overloaded")
        return dispatch(sender, method, params)

    transport.dispatch = refusing
    tx = make_transfer(alice, "sink", 1, nonce=1)
    world.nodes["n0"].receive_tx(tx)
    world.kernel.run(until=world.kernel.now + 2.0)
    assert refused == ["n1"]
    assert all(tx.tx_id in node.mempool for node in world.nodes.values())
    assert world.metrics.counter("p2p_fetch_retries", scope="n1") == 1


def test_a_lost_push_is_repaired_by_the_block_that_commits_the_tx(alice):
    """n0's push of a new tx to n1 is dropped.  n2 holds it but does not
    announce it to n1, which the push named; n1 receives the tx inside the
    block that commits it (a pool miss, then one ``chain.get_blocks``), and
    no node receives any body twice."""
    world = P2PWorld(alice)
    send, dropped = world.network.send, []

    def lossy_send(sender, recipient, kind, payload, size_bytes=256):
        if (
            (sender, recipient) == ("n0", "n1")
            and payload.get("method") == "p2p.push"
            and payload["params"]["kind"] == KIND_TX
            and not dropped
        ):
            dropped.append(payload["params"]["id"])
            return None
        return send(sender, recipient, kind, payload, size_bytes)

    world.network.send = lossy_send
    tx = make_transfer(alice, "sink", 1, nonce=0)
    assert world.nodes["n0"].submit_tx(tx)
    world.kernel.run(until=world.kernel.now + 0.2)
    assert dropped == [tx.tx_id] and tx.tx_id not in world.nodes["n1"].mempool
    world.commit(tx)
    assert all(node.receipt(tx.tx_id).success for node in world.nodes.values())
    assert world.converged()
    assert world.metrics.counter("p2p_compact_misses", scope="n1") == 1
    assert world.metrics.counter_total("p2p_announce_sent") == 0
    assert world.metrics.counter_total("p2p_duplicate_bodies") == 0


@pytest.mark.parametrize("consensus", ["poa", "pos"])
def test_tx_submitted_before_first_handshake_reaches_every_pool(alice, consensus):
    """Regression (liveness): ``announce`` samples *connected* peers, so a
    tx submitted before the first ``p2p.hello`` completed was offered to
    nobody and never again; under PoS (no backup proposer) it then never
    committed.  The on-connect inventory offers it once the link is up."""
    names = [f"n{i}" for i in range(4)]
    engine = None  # the chain's default: PoA over the names
    if consensus == "pos":
        engine = ProofOfStake({name: 100 for name in names}, round_time_s=1.0)
    chain = SimChain(names, {alice.address: 10**9}, engine=engine, seed=5)
    kernel, metrics, nodes = chain.kernel, chain.metrics, chain.nodes
    if consensus == "poa":
        proposer = chain.engine.proposer_at(1)
    else:
        proposer = chain.engine.winner_at(chain.genesis, 1)
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


def test_a_relay_announce_names_the_holders_so_a_slow_push_target_is_not_fed_twice(alice):
    """n0's push of a new tx to its second named target is slow.  The first
    target relays it to the peers the push did not name, and their relay
    must skip the slow target too: the announce they got names the peers
    known to hold the id.  Without that, the slow target fetched the tx
    from a second-hop relay before the push landed, and got one body twice."""
    world = P2PWorld(alice, n_validators=5)
    send, slowed = world.network.send, []

    def slow_second_push(sender, recipient, kind, payload, size_bytes=256):
        if sender == "n0" and payload.get("method") == "p2p.push" and not slowed:
            slowed.append(payload["params"]["to"][-1])
            world.network.set_link("n0", slowed[0], LinkSpec(latency_s=0.5))
        return send(sender, recipient, kind, payload, size_bytes)

    world.network.send = slow_second_push
    tx = make_transfer(alice, "sink", 1, nonce=0)
    assert world.nodes["n0"].submit_tx(tx)
    world.commit(tx)
    assert slowed and world.metrics.counter_total("p2p_announce_sent") > 0
    assert world.metrics.counter_total("p2p_duplicate_bodies") == 0
