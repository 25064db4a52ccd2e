"""One hospital site (Figures 1-3), assembled in one place.

Every site holds its local data (a :class:`HospitalDataStore`), the standard
analytics tools behind a :class:`TaskRunner`, and a :class:`ChunkStore` for
erasure-coded share custody.  A site bound to a chain node also runs, beside
them, the data oracle (Figure 3's standard-format endpoints), the monitor
node on the node's event stream, the off-chain control code and the HIE
exchange.  :func:`assemble_site` builds both kinds: the platform binds each
site to its SimChain node, and a ``site_server`` process builds a data-only
site, which loads no chain code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.analytics.tools import standard_registry
from repro.common.signatures import KeyPair
from repro.da.store import ChunkStore
from repro.datamgmt.store import HospitalDataStore
from repro.offchain.anchoring import verify_dataset
from repro.offchain.tasks import TaskRunner

if TYPE_CHECKING:
    from repro.consensus.node import BlockchainNode
    from repro.contracts.deploy import PlatformContracts
    from repro.offchain.control import ControlNode
    from repro.offchain.oracle import DataOracle, MonitorNode
    from repro.sharing.exchange import ExchangeService
    from repro.sim.metrics import MetricsRegistry


@dataclass
class Site:
    """Everything belonging to one hospital; the chain-bound parts are
    ``None`` at a data-only site."""

    name: str
    keypair: KeyPair
    store: HospitalDataStore
    runner: TaskRunner
    chunks: ChunkStore
    node: Optional[BlockchainNode] = None
    oracle: Optional[DataOracle] = None
    monitor: Optional[MonitorNode] = None
    control: Optional[ControlNode] = None
    exchange: Optional[ExchangeService] = None


def assemble_site(
    name: str,
    store: HospitalDataStore,
    *,
    node: Optional[BlockchainNode] = None,
    contracts: Optional[PlatformContracts] = None,
    params_resolver: Optional[Callable[[str], Dict[str, Any]]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Site:
    """The site ``name`` over ``store``; bound to ``node`` when it and the
    platform's ``contracts`` are both given (one without the other is an error)."""
    if (node is None) != (contracts is None):
        raise ValueError("a chain-bound site needs both node and contracts")
    site = Site(
        name=name,
        keypair=KeyPair.generate(name),
        store=store,
        runner=TaskRunner(name, standard_registry()),
        chunks=ChunkStore(name),
    )
    if node is None:
        return site
    # Imported here: a data-only site loads no chain code.
    from repro.offchain.control import ControlNode
    from repro.offchain.oracle import DataOracle, MonitorNode
    from repro.sharing.audit import AuditLog
    from repro.sharing.exchange import ExchangeService

    # The calls a smart contract (through the monitor) or a peer site may
    # make against this site's external world: dataset inventory, record
    # counts and an anchored-integrity check.
    oracle = DataOracle(f"{name}-oracle")
    oracle.register_endpoint("list_datasets", lambda req: {"dataset_ids": store.dataset_ids()})
    oracle.register_endpoint(
        "record_count", lambda req: {"count": store.record_count(req["dataset_id"])}
    )

    def verify(req: Dict[str, Any]) -> Dict[str, Any]:
        dataset_id = req["dataset_id"]
        entry = node.call_view(
            contracts.data_contract_id, "get_dataset", {"dataset_id": dataset_id}
        )
        if entry is None:
            return {"dataset_id": dataset_id, "registered": False, "intact": False}
        intact = verify_dataset(store.get_records(dataset_id), entry["merkle_root"])
        return {"dataset_id": dataset_id, "registered": True, "intact": intact}

    oracle.register_endpoint("verify_dataset", verify)
    site.node, site.oracle = node, oracle
    site.monitor = MonitorNode(f"{name}-monitor", node, oracle)
    site.control = ControlNode(
        site=name,
        keypair=site.keypair,
        node=node,
        monitor=site.monitor,
        contracts=contracts,
        host=store,
        runner=site.runner,
        params_resolver=params_resolver,
    )
    site.exchange = ExchangeService(
        site=name,
        node=node,
        data_contract_id=contracts.data_contract_id,
        host=store,
        audit=AuditLog(name=f"{name}-audit"),
        metrics=metrics,
    )
    return site
