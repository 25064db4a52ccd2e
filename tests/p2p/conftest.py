"""Shared builders for p2p tests: a PoA network speaking gossip over the sim."""

from __future__ import annotations

import pytest

from repro.chain.blocks import make_genesis
from repro.chain.state import StateDB
from repro.common.signatures import KeyPair
from repro.consensus.node import BlockchainNode, NodeConfig, make_network_nodes
from repro.consensus.poa import ProofOfAuthority
from repro.p2p.config import P2PConfig
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network


def node_config(max_txs_per_block=200, mine_empty=False, **overrides) -> NodeConfig:
    """Node settings with the small-mesh p2p tunables the suite runs on."""
    settings = dict(fanout=2, ping_interval_s=2.0, request_timeout_s=3.0)
    settings.update(overrides)
    return NodeConfig(
        max_txs_per_block=max_txs_per_block,
        mine_empty=mine_empty,
        p2p=P2PConfig(**settings),
    )


class P2PWorld:
    """A PoA validator network where dissemination runs through repro.p2p."""

    def __init__(
        self, alice, n_validators: int = 3, seed: int = 31, mine_empty=False, **p2p_overrides
    ):
        self.kernel = Kernel(seed=seed)
        self.metrics = MetricsRegistry()
        self.network = Network(self.kernel, self.metrics)
        self.alice = alice
        self.genesis_state = StateDB()
        self.genesis_state.credit(alice.address, 10**9)
        self.genesis = make_genesis(self.genesis_state.state_root())
        self.names = [f"n{i}" for i in range(n_validators)]
        keypairs = {name: KeyPair.generate(name) for name in self.names}
        self.engine = ProofOfAuthority(self.names, keypairs, block_interval_s=0.5)
        self.nodes = make_network_nodes(
            self.kernel,
            self.network,
            self.names,
            self.genesis,
            self.genesis_state,
            lambda: self.engine,
            metrics=self.metrics,
            config=node_config(max_txs_per_block=3, mine_empty=mine_empty, **p2p_overrides),
        )
        for node in self.nodes.values():
            node.start()
        self.kernel.run(until=2.0)  # let handshakes settle

    def add_observer(self, name: str, seeds, **p2p_overrides) -> BlockchainNode:
        """A fresh non-validator node joining the running network."""
        node = make_network_nodes(
            self.kernel,
            self.network,
            [name],
            self.genesis,
            self.genesis_state,
            lambda: self.engine,
            metrics=self.metrics,
            config=node_config(**p2p_overrides),
            seeds=seeds,
        )[name]
        self.nodes[name] = node
        node.start()
        return node

    def crash(self, name: str) -> None:
        """Kill a node mid-run: it stops scheduling and leaves the network."""
        self.nodes[name].stop()
        del self.nodes[name]

    def commit(self, tx, names=None, timeout: float = 300.0) -> None:
        wanted = names or list(self.nodes)
        self.kernel.run(
            until=self.kernel.now + timeout,
            stop_when=lambda: all(
                self.nodes[name].receipt(tx.tx_id) for name in wanted
            ),
        )

    def converged(self, names=None) -> bool:
        wanted = names or list(self.nodes)
        heads = {self.nodes[name].head.block_id for name in wanted}
        roots = {self.nodes[name].state.state_root() for name in wanted}
        return len(heads) == 1 and len(roots) == 1


@pytest.fixture()
def p2p_world(alice):
    return P2PWorld(alice)
