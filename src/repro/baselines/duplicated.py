"""The duplicated-computing baseline vs the transformed architecture (E3).

Baseline: a compute-heavy analytic (a fixed-point logistic training step)
runs *inside* the smart contract, so every consensus node re-executes it —
N nodes burn N times one node's gas.  Transformed: the on-chain contract is
only the policy/coordination point; one site runs the analytic off chain
and posts the result hash.  Both paths produce the same kind of model
update; the reports make the waste factor directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.chain.blocks import make_genesis
from repro.chain.state import StateDB
from repro.chain.transactions import make_call, make_deploy
from repro.common.errors import ChainError
from repro.common.signatures import KeyPair
from repro.consensus.node import NodeConfig, make_network_nodes
from repro.consensus.poa import ProofOfAuthority
from repro.contracts.library import COMPUTE_CONTRACT_SOURCE
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network


@dataclass
class ComputeReport:
    """Cost of producing one model update under one architecture."""

    architecture: str
    node_count: int
    total_gas: float
    gas_per_node: Dict[str, float]
    offchain_flops: float
    sim_seconds: float
    energy_joules: float


def _fixed_point(values: List[List[float]], scale: int = 1000) -> List[List[int]]:
    """Encode a float matrix as scaled integers for the on-chain VM."""
    return [[int(round(value * scale)) for value in row] for row in values]


def run_onchain_training(
    features: List[List[float]],
    labels: List[int],
    node_count: int = 4,
    steps: int = 3,
    seed: int = 0,
) -> ComputeReport:
    """Execute the training analytic as an on-chain contract on N nodes."""
    kernel = Kernel(seed=seed)
    metrics = MetricsRegistry()
    network = Network(kernel, metrics)
    owner = KeyPair.generate("onchain-owner")
    state = StateDB()
    state.credit(owner.address, 10**9)
    genesis = make_genesis(state.state_root())
    names = [f"miner-{index}" for index in range(node_count)]
    keypairs = {name: KeyPair.generate(name) for name in names}
    engine = ProofOfAuthority(names, keypairs, block_interval_s=1.0)
    nodes = make_network_nodes(
        kernel,
        network,
        names,
        genesis,
        state,
        lambda: engine,
        metrics=metrics,
        # Keep the full-state finality window wider than the run so the
        # baseline's per-block gas accounting never loses a fork state.
        config=NodeConfig(max_txs_per_block=10, state_prune_window=64),
    )
    for node in nodes.values():
        node.start()
    entry = nodes[names[0]]
    deploy = make_deploy(
        owner, "onchain-trainer", COMPUTE_CONTRACT_SOURCE, nonce=0, gas_limit=10**9
    )
    entry.submit_tx(deploy)
    _run_until(kernel, nodes, deploy.tx_id)
    receipt = entry.receipt(deploy.tx_id)
    if not receipt or not receipt.success:
        raise ChainError(f"deploy failed: {receipt.error if receipt else 'timeout'}")
    contract_id = receipt.output
    fixed_features = _fixed_point(features)
    int_labels = [int(label) for label in labels]
    weights = [0] * len(features[0])
    start = kernel.now
    for step in range(steps):
        tx = make_call(
            owner,
            contract_id,
            "train_step",
            {
                "features": fixed_features,
                "labels": int_labels,
                "weights": weights,
                "lr_milli": 100,
            },
            nonce=step + 1,
            gas_limit=10**9,
        )
        entry.submit_tx(tx)
        _run_until(kernel, nodes, tx.tx_id)
        receipt = entry.receipt(tx.tx_id)
        if not receipt or not receipt.success:
            raise ChainError(
                f"train_step failed: {receipt.error if receipt else 'timeout'}"
            )
        weights = receipt.output
    return ComputeReport(
        architecture="on-chain (duplicated)",
        node_count=node_count,
        total_gas=metrics.counter_total("gas"),
        gas_per_node=metrics.scopes("gas"),
        offchain_flops=0.0,
        sim_seconds=kernel.now - start,
        energy_joules=metrics.total_energy_joules(),
    )


def run_transformed_training(
    records: List[Dict[str, Any]],
    node_count: int = 4,
    steps: int = 3,
    seed: int = 0,
    outcome: str = "stroke",
) -> ComputeReport:
    """Execute the same kind of training through the transformed platform.

    One site trains off chain; the chain carries only the task request and
    the result hash (light-weight policy contracts).
    """
    from repro.common.signatures import KeyPair as KP
    from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
    from repro.core.queryservice import GlobalQueryService
    from repro.query.vector import QueryVector

    platform = MedicalBlockchainNetwork(
        PlatformConfig(
            site_count=node_count, consensus="poa", include_fda=False, seed=seed
        )
    )
    site = platform.site_names[0]
    platform.register_dataset(site, "train-data", records)
    researcher = KP.generate("transformed-researcher")
    platform.grant_access(site, "train-data", researcher.address, "research")
    service = GlobalQueryService(platform, researcher)
    _settle(platform)
    baseline_gas = platform.metrics.counter_total("gas")
    baseline_flops = platform.metrics.counter_total("flops")
    start = platform.kernel.now
    vector = QueryVector(
        intent="train", outcome=outcome, model="logistic", rounds=steps
    )
    service.execute(vector)
    _settle(platform)
    return ComputeReport(
        architecture="transformed (off-chain)",
        node_count=node_count,
        total_gas=platform.metrics.counter_total("gas") - baseline_gas,
        gas_per_node=platform.metrics.scopes("gas"),
        offchain_flops=platform.metrics.counter_total("flops") - baseline_flops,
        sim_seconds=platform.kernel.now - start,
        energy_joules=platform.metrics.total_energy_joules(),
    )


def _settle(platform, timeout: float = 600.0) -> None:
    """Run until every node shares one head and no tx is pooled.

    ``execute`` returns as soon as the entry node holds the result, while
    followers are still fetching and re-executing the last blocks; a gas
    sample taken then misses their share of the duplicated work.
    """
    nodes = list(platform.nodes.values())

    def settled() -> bool:
        return len({node.head.block_id for node in nodes}) == 1 and not any(
            len(node.mempool) for node in nodes
        )

    platform.kernel.run(until=platform.kernel.now + timeout, stop_when=settled)


def _run_until(kernel: Kernel, nodes: Dict[str, Any], tx_id: str, timeout: float = 600.0) -> None:
    deadline = kernel.now + timeout

    def committed() -> bool:
        return all(node.receipt(tx_id) is not None for node in nodes.values())

    kernel.run(until=deadline, stop_when=committed)
