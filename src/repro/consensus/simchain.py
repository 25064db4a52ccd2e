"""One simulated chain: a seeded kernel, a sim network, a funded genesis and its nodes.

The platform, the paper's on-chain baselines, the benchmarks and the test
worlds are configurations of :class:`SimChain`: names, balances, engine and
:class:`NodeConfig`.  The assembly happens in one order, so a seed gives one run.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.chain.blocks import funded_genesis
from repro.chain.executor import Receipt
from repro.chain.transactions import Transaction
from repro.common.errors import ChainError
from repro.common.signatures import KeyPair
from repro.consensus.base import ConsensusEngine
from repro.consensus.node import BlockchainNode, NodeConfig, make_network_nodes
from repro.consensus.poa import ProofOfAuthority
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import LinkSpec, Network


class SimChain:
    """Started nodes ``names`` on one sim network, as a full mesh.

    ``balances`` (address -> amount) funds the genesis.  ``engine`` defaults
    to proof of authority over ``names``, each validator keyed by
    ``KeyPair.generate(name)`` and sealing every ``block_interval_s``.
    """

    def __init__(
        self,
        names: Sequence[str],
        balances: Mapping[str, int],
        *,
        engine: Optional[ConsensusEngine] = None,
        block_interval_s: float = 1.0,
        config: Optional[NodeConfig] = None,
        seed: int = 0,
        link: Optional[LinkSpec] = None,
    ):
        names = list(names)
        self.kernel = Kernel(seed=seed)
        self.metrics = MetricsRegistry()
        self.network = Network(self.kernel, self.metrics, default_link=link)
        self.genesis, self.genesis_state = funded_genesis(balances)
        if engine is None:
            keypairs = {name: KeyPair.generate(name) for name in names}
            engine = ProofOfAuthority(names, keypairs, block_interval_s=block_interval_s)
        self.engine = engine
        self.config = config
        self.nodes: Dict[str, BlockchainNode] = {}
        self._join(names, None, config)

    def add_node(
        self, name: str, seeds: List[str], config: Optional[NodeConfig] = None
    ) -> BlockchainNode:
        """Start an observer or joiner ``name`` that bootstraps from ``seeds``;
        ``config`` defaults to the chain's."""
        self._join([name], seeds, config or self.config)
        return self.nodes[name]

    def _join(self, names, seeds, config) -> None:
        nodes = make_network_nodes(
            self.kernel,
            self.network,
            names,
            self.genesis,
            self.genesis_state,
            lambda: self.engine,
            metrics=self.metrics,
            config=config,
            seeds=seeds,
        )
        self.nodes.update(nodes)
        self._start(nodes.values())

    def _start(self, nodes) -> None:
        for node in nodes:
            node.start()

    def commit(
        self, *txs: Transaction, names: Optional[List[str]] = None, timeout_s: float = 300.0
    ) -> Receipt:
        """Run until every node in ``names`` (default: all) holds a receipt for
        each submitted tx; return the first one's receipt for the last tx.

        Raises :class:`ChainError` if ``timeout_s`` of sim time pass first.
        """
        wanted = [self.nodes[name] for name in (names or list(self.nodes))]

        def committed() -> bool:
            return all(node.receipt(tx.tx_id) is not None for node in wanted for tx in txs)

        self.kernel.run(until=self.kernel.now + timeout_s, stop_when=committed)
        if not committed():
            raise ChainError(f"tx {txs[-1].tx_id[:12]} not committed within {timeout_s}s")
        return wanted[0].receipt(txs[-1].tx_id)

    def settle(self, timeout_s: float = 600.0) -> None:
        """Run until every node shares one head and no tx is pooled, or for
        ``timeout_s``.

        A tx's receipt lands on its proposer before the followers fetch and
        re-execute the block: counters read then miss their share.
        """
        nodes = list(self.nodes.values())

        def settled() -> bool:
            heads = {node.head.block_id for node in nodes}
            return len(heads) == 1 and not any(len(node.mempool) for node in nodes)

        self.kernel.run(until=self.kernel.now + timeout_s, stop_when=settled)
