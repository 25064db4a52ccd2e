"""Headers-first sync: locators, cold joins, crash/rejoin, partition heal."""

from __future__ import annotations

from repro.chain.transactions import make_transfer
from repro.p2p.sync import build_locator


def test_locator_is_dense_then_exponential():
    ids = [f"b{i}" for i in range(100)]
    locator = build_locator(ids)
    assert locator[0] == "b99"  # newest first
    assert locator[:8] == [f"b{99 - i}" for i in range(8)]  # dense head
    assert locator[-1] == "b0"  # genesis always anchors
    assert len(locator) <= 24
    # Gaps grow monotonically after the dense prefix.
    positions = [int(x[1:]) for x in locator]
    gaps = [a - b for a, b in zip(positions, positions[1:])]
    assert gaps[:7] == [1] * 7
    assert all(b >= a for a, b in zip(gaps[7:-1], gaps[8:-1]))


def test_locator_short_chain_is_complete():
    assert build_locator(["g"]) == ["g"]
    assert build_locator(["g", "a", "b"]) == ["b", "a", "g"]
    assert build_locator([]) == []


def _grow_chain(world, count, start_nonce=0, names=None):
    txs = [
        make_transfer(world.alice, "sink", 1, nonce=start_nonce + n)
        for n in range(count)
    ]
    for tx in txs:
        world.nodes["n0"].submit_tx(tx)
    world.commit(txs[-1], names=names)
    return txs


def test_fresh_node_cold_syncs_to_network_head(p2p_world):
    world = p2p_world
    _grow_chain(world, 15)
    head_before = world.nodes["n0"].head
    assert head_before.height >= 5
    joiner = world.add_observer("joiner", seeds=["n0"])
    world.kernel.run(
        until=world.kernel.now + 120,
        stop_when=lambda: joiner.head.height >= world.nodes["n0"].head.height,
    )
    assert joiner.head.block_id == world.nodes["n0"].head.block_id
    assert (
        joiner.state.state_root() == world.nodes["n0"].state.state_root()
    )  # bit-identical state
    assert world.metrics.counter("p2p_sync_completed", scope="joiner") >= 1
    assert world.metrics.counter("p2p_sync_blocks", scope="joiner") >= 5
    # Cold sync must not double-deliver bodies through gossip.
    assert world.metrics.counter("p2p_duplicate_bodies", scope="joiner") == 0


def test_sync_spans_multiple_header_windows(alice):
    from tests.p2p.conftest import P2PWorld

    world = P2PWorld(alice, sync_headers_window=4, sync_batch_size=2)
    _grow_chain(world, 24)
    assert world.nodes["n0"].head.height >= 8  # > 2 windows of 4
    joiner = world.add_observer(
        "joiner", seeds=["n0"], sync_headers_window=4, sync_batch_size=2
    )
    world.kernel.run(
        until=world.kernel.now + 180,
        stop_when=lambda: joiner.head.height >= world.nodes["n0"].head.height,
    )
    assert joiner.head.block_id == world.nodes["n0"].head.block_id
    assert world.metrics.counter("p2p_sync_rounds", scope="joiner") >= 2


def test_crashed_node_rejoins_and_converges(p2p_world):
    """Satellite: kill a node mid-run, restart it, assert full convergence."""
    world = p2p_world
    _grow_chain(world, 6)
    world.crash("n2")
    _grow_chain(world, 6, start_nonce=6, names=["n0", "n1"])
    assert world.nodes["n0"].head.height >= 4
    # Restart n2 from genesis (fresh store, fresh state) under the same name.
    reborn = world.add_observer("n2", seeds=["n0", "n1"])
    world.kernel.run(
        until=world.kernel.now + 180,
        stop_when=lambda: reborn.head.block_id
        == world.nodes["n0"].head.block_id,
    )
    assert reborn.head.block_id == world.nodes["n0"].head.block_id
    assert reborn.state.state_root() == world.nodes["n0"].state.state_root()


def test_partition_heals_to_single_head(p2p_world):
    world = p2p_world
    world.network.partition({"n0", "n1"}, {"n2"})
    _grow_chain(world, 6, names=["n0", "n1"])
    assert world.nodes["n0"].head.height > world.nodes["n2"].head.height
    world.network.heal()
    # Anti-entropy pings advertise the head; n2 must headers-first sync.
    world.kernel.run(
        until=world.kernel.now + 120,
        stop_when=lambda: world.converged(),
    )
    assert world.converged()
    assert world.nodes["n2"].head.height == world.nodes["n0"].head.height


def test_sync_source_dying_mid_sync_does_not_spin(p2p_world):
    """Regression: an aborted sync retries at once against the best
    connected peer; a crashed source fails fast and stayed "connected"
    until the next ping, so the retry spun forever at one sim instant.
    A failed sync request now counts toward the peer's eviction."""
    world = p2p_world
    _grow_chain(world, 9)
    # n2 sorts last, so it stays the "best" peer among equal heads.
    joiner = world.add_observer("joiner", seeds=["n2"])
    world.kernel.run(until=world.kernel.now + 0.05)  # hello done, headers in flight
    assert joiner.p2p.sync.active
    world.crash("n2")
    world.kernel.run(
        until=world.kernel.now + 60,
        max_events=200_000,
        stop_when=lambda: joiner.head.block_id == world.nodes["n0"].head.block_id,
    )
    assert joiner.head.block_id == world.nodes["n0"].head.block_id
    assert world.metrics.counter("p2p_sync_aborted", scope="joiner") >= 1
    assert world.metrics.counter("p2p_peers_evicted", scope="joiner") >= 1
