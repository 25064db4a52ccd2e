"""Block back-fill: a node that missed history catches up via headers-first sync."""

import pytest

from repro.chain.transactions import make_transfer
from repro.consensus.node import NodeConfig
from repro.consensus.simchain import SimChain


@pytest.fixture()
def world(alice):
    return SimChain(
        ["n0", "n1", "n2"],
        {alice.address: 10**9},
        block_interval_s=0.5,
        config=NodeConfig(max_txs_per_block=3),
        seed=31,
    )


def test_partitioned_node_backfills_after_heal(world, alice):
    kernel, network, nodes = world.kernel, world.network, world.nodes
    network.partition({"n0", "n1"}, {"n2"})
    txs = [make_transfer(alice, "sink", 1, nonce=n) for n in range(6)]
    for tx in txs:
        nodes["n0"].submit_tx(tx)
    world.commit(txs[-1], names=["n0", "n1"])
    behind = nodes["n2"].head.height
    ahead = nodes["n0"].head.height
    assert ahead > behind
    network.heal()
    # New activity after the heal triggers gossip; n2 receives a block with
    # an unknown parent and headers-first sync fills the whole gap.
    catch_up = make_transfer(alice, "sink", 1, nonce=6)
    nodes["n0"].submit_tx(catch_up)
    world.commit(catch_up)
    kernel.run(until=kernel.now + 30)
    assert nodes["n2"].head.height == nodes["n0"].head.height
    assert nodes["n2"].state.state_root() == nodes["n0"].state.state_root()
    # Every pre-heal tx is now visible on the previously-isolated node.
    for tx in txs:
        assert nodes["n2"].receipt(tx.tx_id) is not None


def test_backfill_depth_greater_than_one(world, alice):
    kernel, network, nodes = world.kernel, world.network, world.nodes
    network.partition({"n0", "n1"}, {"n2"})
    txs = [make_transfer(alice, "sink", 1, nonce=n) for n in range(12)]
    for tx in txs:
        nodes["n0"].submit_tx(tx)
    world.commit(txs[-1], names=["n0", "n1"], timeout_s=600.0)
    assert nodes["n0"].head.height - nodes["n2"].head.height >= 3
    network.heal()
    catch_up = make_transfer(alice, "sink", 1, nonce=12)
    nodes["n0"].submit_tx(catch_up)
    world.commit(catch_up, timeout_s=600.0)
    kernel.run(until=kernel.now + 30)
    assert nodes["n2"].state.state_root() == nodes["n0"].state.state_root()
