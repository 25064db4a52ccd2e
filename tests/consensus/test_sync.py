"""Block back-fill: a node that missed history catches up via headers-first sync."""

import pytest

from repro.chain.blocks import make_genesis
from repro.chain.state import StateDB
from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.consensus.node import NodeConfig, make_network_nodes
from repro.consensus.poa import ProofOfAuthority
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network


@pytest.fixture()
def world(alice):
    kernel = Kernel(seed=31)
    metrics = MetricsRegistry()
    network = Network(kernel, metrics)
    state = StateDB()
    state.credit(alice.address, 10**9)
    genesis = make_genesis(state.state_root())
    names = ["n0", "n1", "n2"]
    keypairs = {name: KeyPair.generate(name) for name in names}
    engine = ProofOfAuthority(names, keypairs, block_interval_s=0.5)
    nodes = make_network_nodes(
        kernel, network, names, genesis, state, lambda: engine,
        metrics=metrics, config=NodeConfig(max_txs_per_block=3),
    )
    for node in nodes.values():
        node.start()
    return kernel, network, nodes


def _commit(kernel, nodes, tx, names=None, timeout=120.0):
    wanted = names or list(nodes)
    kernel.run(
        until=kernel.now + timeout,
        stop_when=lambda: all(nodes[name].receipt(tx.tx_id) for name in wanted),
    )


def test_partitioned_node_backfills_after_heal(world, alice):
    kernel, network, nodes = world
    network.partition({"n0", "n1"}, {"n2"})
    txs = [make_transfer(alice, "sink", 1, nonce=n) for n in range(6)]
    for tx in txs:
        nodes["n0"].submit_tx(tx)
    _commit(kernel, nodes, txs[-1], names=["n0", "n1"], timeout=300.0)
    behind = nodes["n2"].head.height
    ahead = nodes["n0"].head.height
    assert ahead > behind
    network.heal()
    # New activity after the heal triggers gossip; n2 receives a block with
    # an unknown parent and headers-first sync fills the whole gap.
    catch_up = make_transfer(alice, "sink", 1, nonce=6)
    nodes["n0"].submit_tx(catch_up)
    _commit(kernel, nodes, catch_up, timeout=300.0)
    kernel.run(until=kernel.now + 30)
    assert nodes["n2"].head.height == nodes["n0"].head.height
    assert nodes["n2"].state.state_root() == nodes["n0"].state.state_root()
    # Every pre-heal tx is now visible on the previously-isolated node.
    for tx in txs:
        assert nodes["n2"].receipt(tx.tx_id) is not None


def test_backfill_depth_greater_than_one(world, alice):
    kernel, network, nodes = world
    network.partition({"n0", "n1"}, {"n2"})
    txs = [make_transfer(alice, "sink", 1, nonce=n) for n in range(12)]
    for tx in txs:
        nodes["n0"].submit_tx(tx)
    _commit(kernel, nodes, txs[-1], names=["n0", "n1"], timeout=600.0)
    assert nodes["n0"].head.height - nodes["n2"].head.height >= 3
    network.heal()
    catch_up = make_transfer(alice, "sink", 1, nonce=12)
    nodes["n0"].submit_tx(catch_up)
    _commit(kernel, nodes, catch_up, timeout=600.0)
    kernel.run(until=kernel.now + 30)
    assert nodes["n2"].state.state_root() == nodes["n0"].state.state_root()
