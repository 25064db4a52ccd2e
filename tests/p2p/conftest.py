"""Shared builders for p2p tests: a PoA network speaking gossip over the sim."""

from __future__ import annotations

import pytest

from repro.consensus.node import BlockchainNode, NodeConfig
from repro.consensus.simchain import SimChain
from repro.p2p.config import P2PConfig


def node_config(max_txs_per_block=200, mine_empty=False, **overrides) -> NodeConfig:
    """Node settings with the small-mesh p2p tunables the suite runs on."""
    settings = dict(fanout=2, ping_interval_s=2.0, request_timeout_s=3.0)
    settings.update(overrides)
    return NodeConfig(
        max_txs_per_block=max_txs_per_block,
        mine_empty=mine_empty,
        p2p=P2PConfig(**settings),
    )


class P2PWorld(SimChain):
    """A PoA validator network where dissemination runs through repro.p2p."""

    def __init__(
        self, alice, n_validators: int = 3, seed: int = 31, mine_empty=False, **p2p_overrides
    ):
        super().__init__(
            [f"n{i}" for i in range(n_validators)],
            {alice.address: 10**9},
            block_interval_s=0.5,
            config=node_config(max_txs_per_block=3, mine_empty=mine_empty, **p2p_overrides),
            seed=seed,
        )
        self.alice = alice
        self.kernel.run(until=2.0)  # let handshakes settle

    def add_observer(self, name: str, seeds, **p2p_overrides) -> BlockchainNode:
        """A fresh non-validator node joining the running network."""
        return self.add_node(name, seeds, node_config(**p2p_overrides))

    def crash(self, name: str) -> None:
        """Kill a node mid-run: it stops scheduling and leaves the network."""
        self.nodes[name].stop()
        del self.nodes[name]

    def converged(self, names=None) -> bool:
        wanted = names or list(self.nodes)
        heads = {self.nodes[name].head.block_id for name in wanted}
        roots = {self.nodes[name].state.state_root() for name in wanted}
        return len(heads) == 1 and len(roots) == 1


@pytest.fixture()
def p2p_world(alice):
    return P2PWorld(alice)
