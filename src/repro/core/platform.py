"""The medical blockchain platform (Figures 1, 2, 4 assembled).

:class:`MedicalBlockchainNetwork` builds the paper's full architecture in
one object:

- a blockchain node per hospital site (plus optional FDA trusted node) over
  the simulated network, running PoA by default (a hospital consortium) or
  PoW/PoS for the consensus experiments;
- the four platform contracts (data / analytics / clinical-trial /
  patient-consent) deployed once at boot;
- per site: a legacy-format hospital data store, the standard analytics
  tool registry, a monitor node (event bridge), an off-chain control node,
  and an HIE exchange service;
- an off-chain content-addressed *parameter depot* so heavy task inputs
  (e.g. model weights) never enter the ledger — only their hash does,
  keeping the on-chain contracts light-weight as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chain.transactions import Transaction, make_call
from repro.common.errors import ChainError, MedchainError
from repro.common.hashing import hash_value_hex
from repro.common.signatures import KeyPair
from repro.consensus.base import ConsensusEngine
from repro.consensus.node import BlockchainNode, NodeConfig
from repro.consensus.pos import ProofOfStake
from repro.consensus.pow import ProofOfWork
from repro.consensus.simchain import SimChain
from repro.contracts.library import (
    ANALYTICS_SOURCE,
    BLOB_REGISTRY_SOURCE,
    CLINICAL_TRIAL_SOURCE,
    DATA_REGISTRY_SOURCE,
    PATIENT_CONSENT_SOURCE,
)
from repro.contracts.registry import ContractRegistry
from repro.da.store import ChunkStore
from repro.datamgmt.store import HospitalDataStore
from repro.datamgmt.virtual import DatasetRef
from repro.offchain.anchoring import DatasetAnchor
from repro.offchain.control import ControlNode, NonceTracker, PlatformContracts
from repro.offchain.oracle import DataOracle, MonitorNode
from repro.offchain.tasks import TaskRunner
from repro.analytics.tools import standard_registry
from repro.sharing.audit import AuditLog
from repro.sharing.exchange import ExchangeService, TrustedThirdParty
from repro.sim.network import LinkSpec

FDA_NODE_NAME = "fda"
# Genesis balance of the deployer and of every node's key.
FUNDING = 1_000_000_000


@dataclass
class PlatformConfig:
    """Configuration of a platform instance."""

    site_count: int = 4
    consensus: str = "poa"  # "poa" | "pow" | "pos"
    block_interval_s: float = 1.0
    include_fda: bool = True
    seed: int = 0
    link: LinkSpec = field(default_factory=LinkSpec)
    max_txs_per_block: int = 200
    # Finality window for per-block state retention (see NodeConfig); long
    # platform runs keep state memory bounded by chain width, not length.
    state_prune_window: int = 64


@dataclass
class Site:
    """Everything belonging to one hospital."""

    name: str
    keypair: KeyPair
    node: BlockchainNode
    store: HospitalDataStore
    monitor: MonitorNode
    control: ControlNode
    exchange: ExchangeService
    chunks: ChunkStore  # erasure-coded share custody (repro.da)


class ParamsDepot:
    """Off-chain content-addressed store for heavy task parameters.

    Tasks reference parameters by hash on chain; the depot resolves the
    hash off chain.  Mirrors the paper's insistence that the smart contract
    stays a light-weight policy control point.
    """

    def __init__(self) -> None:
        self._blobs: Dict[str, Dict[str, Any]] = {}

    def put(self, params: Dict[str, Any]) -> str:
        ref = hash_value_hex(params)[:32]
        self._blobs[ref] = dict(params)
        return ref

    def get(self, ref: str) -> Dict[str, Any]:
        if ref not in self._blobs:
            raise MedchainError(f"unknown params ref {ref[:12]}")
        return dict(self._blobs[ref])

    def __contains__(self, ref: str) -> bool:
        return ref in self._blobs


class MedicalBlockchainNetwork:
    """Boots and operates the whole platform."""

    def __init__(self, config: Optional[PlatformConfig] = None):
        self.config = config or PlatformConfig()
        self.depot = ParamsDepot()
        self.deployer = KeyPair.generate("platform-deployer")
        self._deployer_nonces = NonceTracker()
        self.site_names = [
            f"hospital-{index}" for index in range(self.config.site_count)
        ]
        self.node_names = list(self.site_names) + (
            [FDA_NODE_NAME] if self.config.include_fda else []
        )
        self.keypairs = {name: KeyPair.generate(name) for name in self.node_names}
        self.contracts: Optional[PlatformContracts] = None
        self.contract_registry: Optional[ContractRegistry] = None
        self.sites: Dict[str, Site] = {}
        self.fda: Optional[TrustedThirdParty] = None
        self._boot()

    # -- boot sequence -----------------------------------------------------
    def _boot(self) -> None:
        funded = [self.deployer, *self.keypairs.values()]
        self.chain = SimChain(
            self.node_names,
            {keypair.address: FUNDING for keypair in funded},
            engine=self._consensus_engine(),
            block_interval_s=self.config.block_interval_s,
            config=NodeConfig(
                max_txs_per_block=self.config.max_txs_per_block,
                state_prune_window=self.config.state_prune_window,
            ),
            seed=self.config.seed,
            link=self.config.link,
        )
        self.kernel, self.metrics = self.chain.kernel, self.chain.metrics
        self.network, self.nodes = self.chain.network, self.chain.nodes
        self.contracts = self._deploy_platform_contracts()
        for name in self.site_names:
            self.sites[name] = self._build_site(name)
        if self.config.include_fda:
            self.fda = TrustedThirdParty(
                FDA_NODE_NAME, self.keypairs[FDA_NODE_NAME], self.metrics
            )
        self.register_standard_tools()

    def _consensus_engine(self) -> Optional[ConsensusEngine]:
        """The engine for ``config.consensus``; ``None`` is the chain's
        default, PoA over the node names keyed like ``self.keypairs``."""
        kind = self.config.consensus
        if kind == "poa":
            return None
        if kind == "pow":
            return ProofOfWork(difficulty_bits=10, default_hash_rate=1e5)
        if kind == "pos":
            stakes = {name: 100 + 10 * index for index, name in enumerate(self.node_names)}
            return ProofOfStake(stakes=stakes, round_time_s=self.config.block_interval_s)
        raise MedchainError(f"unknown consensus kind {kind!r}")

    def _deploy_platform_contracts(self) -> PlatformContracts:
        sources = {
            "data-registry": DATA_REGISTRY_SOURCE,
            "analytics": ANALYTICS_SOURCE,
            "clinical-trial": CLINICAL_TRIAL_SOURCE,
            "patient-consent": PATIENT_CONSENT_SOURCE,
            "blob-registry": BLOB_REGISTRY_SOURCE,
        }
        ids: Dict[str, str] = {}
        entry_node = self.nodes[self.node_names[0]]
        # Platform contracts go through the verifying registry, PHI taint
        # pass included: a nondeterministic or unbounded contract, or one
        # that provably leaks patient data into chain state, aborts the boot
        # with a ContractVerificationError instead of reaching the chain
        # (and the shipped library dogfoods the static analyzer at boot).
        registry = ContractRegistry(
            node=entry_node,
            deployer=self.deployer,
            timestamp_source=lambda: int(self.kernel.now * 1000),
            verify_by_default=True,
        )
        for name, source in sources.items():
            tx = registry.deploy(name, source)
            receipt = self.chain.commit(tx, timeout_s=600)
            if not receipt.success:
                raise ChainError(f"failed to deploy {name}: {receipt.error}")
            ids[name] = receipt.output
        self.contract_registry = registry
        return PlatformContracts(
            data_contract_id=ids["data-registry"],
            analytics_contract_id=ids["analytics"],
            trial_contract_id=ids["clinical-trial"],
            consent_contract_id=ids["patient-consent"],
            blob_contract_id=ids["blob-registry"],
        )

    def _build_site(self, name: str) -> Site:
        node = self.nodes[name]
        keypair = self.keypairs[name]
        store = HospitalDataStore(name)
        oracle = self._build_site_oracle(name, node, store)
        monitor = MonitorNode(f"{name}-monitor", node, oracle)
        runner = TaskRunner(name, standard_registry())
        control = ControlNode(
            site=name,
            keypair=keypair,
            node=node,
            monitor=monitor,
            contracts=self.contracts,
            host=store,
            runner=runner,
            params_resolver=self.depot.get,
        )
        exchange = ExchangeService(
            site=name,
            node=node,
            data_contract_id=self.contracts.data_contract_id,
            host=store,
            audit=AuditLog(name=f"{name}-audit"),
            metrics=self.metrics,
        )
        return Site(
            name=name,
            keypair=keypair,
            node=node,
            store=store,
            monitor=monitor,
            control=control,
            exchange=exchange,
            chunks=ChunkStore(name),
        )

    def _build_site_oracle(
        self, name: str, node: BlockchainNode, store: HospitalDataStore
    ) -> DataOracle:
        """Standard RPC bridge endpoints (Figure 3's 'standard format').

        These are the calls a smart contract (through the monitor) or a
        peer site may make against this site's external world: dataset
        inventory, record counts, and an anchored-integrity check.
        """
        oracle = DataOracle(f"{name}-oracle")
        oracle.register_endpoint(
            "list_datasets", lambda req: {"dataset_ids": store.dataset_ids()}
        )
        oracle.register_endpoint(
            "record_count",
            lambda req: {"count": store.record_count(req["dataset_id"])},
        )

        def verify(req: Dict[str, Any]) -> Dict[str, Any]:
            dataset_id = req["dataset_id"]
            entry = node.call_view(
                self.contracts.data_contract_id,
                "get_dataset",
                {"dataset_id": dataset_id},
            )
            if entry is None:
                return {"dataset_id": dataset_id, "registered": False, "intact": False}
            from repro.offchain.anchoring import verify_dataset

            intact = verify_dataset(store.get_records(dataset_id), entry["merkle_root"])
            return {"dataset_id": dataset_id, "registered": True, "intact": intact}

        oracle.register_endpoint("verify_dataset", verify)
        return oracle

    # -- chain helpers -----------------------------------------------------
    def run(self, duration_s: float) -> None:
        """Advance the simulation by ``duration_s`` seconds."""
        self.kernel.run(until=self.kernel.now + duration_s)

    def submit_as(self, signer_name: str, contract_id: str, method: str, args: Dict[str, Any]) -> Transaction:
        """Sign a contract call with a named node's key and submit it."""
        site = self.sites.get(signer_name)
        if site is not None:
            return site.control.submit_signed_call(contract_id, method, args)
        keypair = self.keypairs[signer_name]
        node = self.nodes[signer_name]
        nonce = self._deployer_nonces.next_nonce(
            keypair.address, node.state.nonce(keypair.address)
        )
        tx = make_call(
            keypair,
            contract_id,
            method,
            args,
            nonce=nonce,
            timestamp_ms=int(self.kernel.now * 1000),
        )
        node.submit_tx(tx)
        return tx

    # -- platform operations ------------------------------------------------
    def register_dataset(
        self,
        site_name: str,
        dataset_id: str,
        canonical_records: List[Dict[str, Any]],
        fmt: str = "canonical",
        wait: bool = True,
    ) -> DatasetAnchor:
        """Host a dataset at a site and anchor it on chain (Figure 3)."""
        site = self.sites[site_name]
        site.store.add_canonical(
            dataset_id, canonical_records, fmt=fmt, owner=site.keypair.address
        )
        anchor = site.store.anchor(dataset_id)
        tx = site.control.submit_signed_call(
            self.contracts.data_contract_id,
            "register_dataset",
            {
                "dataset_id": dataset_id,
                "site": site_name,
                "schema": "patient-canonical-v1",
                "record_count": anchor.record_count,
                "merkle_root": anchor.root_hex,
            },
        )
        if wait:
            receipt = self.chain.commit(tx)
            if not receipt.success:
                raise ChainError(f"dataset registration failed: {receipt.error}")
        return anchor

    def grant_access(
        self,
        owner_site: str,
        dataset_id: str,
        grantee_address: str,
        purpose: str,
        expires_ms: int = -1,
        wait: bool = True,
    ) -> Transaction:
        """Owner grants fine-grained access on chain."""
        site = self.sites[owner_site]
        tx = site.control.submit_signed_call(
            self.contracts.data_contract_id,
            "grant_access",
            {
                "dataset_id": dataset_id,
                "grantee": grantee_address,
                "purpose": purpose,
                "expires_ms": expires_ms,
            },
        )
        if wait:
            receipt = self.chain.commit(tx)
            if not receipt.success:
                raise ChainError(f"grant failed: {receipt.error}")
        return tx

    def set_patient_consent(
        self,
        site_name: str,
        patient_pseudo_id: str,
        scope: str,
        allow: bool,
        wait: bool = True,
    ) -> Transaction:
        """Record a patient's consent decision on chain (via their hospital's
        patient portal, i.e. signed by the hosting site)."""
        site = self.sites[site_name]
        tx = site.control.submit_signed_call(
            self.contracts.consent_contract_id,
            "set_consent",
            {
                "patient_pseudo_id": patient_pseudo_id,
                "scope": scope,
                "allow": allow,
            },
        )
        if wait:
            receipt = self.chain.commit(tx)
            if not receipt.success:
                raise ChainError(f"consent update failed: {receipt.error}")
        return tx

    def catalog(self) -> List[DatasetRef]:
        """Every registered dataset, read from the on-chain registry."""
        node = self.nodes[self.node_names[0]]
        entries = node.call_view(self.contracts.data_contract_id, "list_datasets")
        return [
            DatasetRef(
                site=entry["site"],
                dataset_id=entry["dataset_id"],
                record_count=entry["record_count"],
                schema=entry["schema"],
            )
            for entry in entries or []
            if not entry.get("revoked")
        ]

    def register_standard_tools(self, wait: bool = True) -> None:
        """Register the standard tool suite in the analytics contract."""
        entry_site = self.sites[self.site_names[0]]
        last_tx = None
        for tool_id in entry_site.control.runner.registry.tool_ids():
            spec = entry_site.control.runner.registry.get(tool_id)
            last_tx = entry_site.control.submit_signed_call(
                self.contracts.analytics_contract_id,
                "register_tool",
                {
                    "tool_id": tool_id,
                    "code_hash": spec.code_hash(),
                    "description": spec.description,
                },
            )
        if wait and last_tx is not None:
            self.chain.commit(last_tx)

    # -- erasure-coded blob custody (repro.da) ------------------------------
    def da_clients(self) -> Dict[str, Any]:
        """In-process DA clients over every site's chunk store."""
        from repro.da.clients import LocalSiteClient

        return {
            name: LocalSiteClient(site.chunks) for name, site in self.sites.items()
        }

    def disperse_blob(
        self,
        owner_site: str,
        blob: bytes,
        *,
        k: int,
        n: Optional[int] = None,
        chunk_size: int = 64 * 1024,
        wait: bool = True,
    ) -> Any:
        """Erasure-code ``blob`` across the sites and anchor it on chain.

        The paper's E5/E7 story extended to payloads: bytes stay off chain
        at the custodial sites, the chain holds only the Merkle root and
        coding geometry (the ``blob-registry`` contract).  Returns the
        :class:`repro.da.dispersal.DispersalReceipt`.
        """
        from repro.da.dispersal import Disperser

        clients = self.da_clients()
        receipt = Disperser(list(clients.values())).disperse(
            blob, k=k, n=n, chunk_size=chunk_size
        )
        manifest = receipt.manifest
        site = self.sites[owner_site]
        tx = site.control.submit_signed_call(
            self.contracts.blob_contract_id,
            "register_blob",
            {
                "blob_id": manifest.blob_id,
                "merkle_root": manifest.root_hex,
                "size": manifest.size,
                "chunk_size": manifest.chunk_size,
                "k": manifest.k,
                "n": manifest.n,
                "stripes": manifest.stripes,
                "placement": list(manifest.placement),
            },
        )
        if wait:
            chain_receipt = self.chain.commit(tx)
            if not chain_receipt.success:
                raise ChainError(f"blob registration failed: {chain_receipt.error}")
        return receipt

    def retrieve_blob(self, blob_id: str) -> bytes:
        """Reconstruct a registered blob from any k live share columns."""
        from repro.da.dispersal import Retriever
        from repro.da.manifest import BlobManifest

        entry = self.blob_entry(blob_id)
        manifest = BlobManifest.from_wire(
            {**entry, "root": entry["merkle_root"]}
        )
        return Retriever(self.da_clients()).retrieve(manifest)

    def blob_entry(self, blob_id: str) -> Dict[str, Any]:
        """One blob's on-chain commitment entry."""
        node = self.nodes[self.node_names[0]]
        entry = node.call_view(
            self.contracts.blob_contract_id, "get_blob", {"blob_id": blob_id}
        )
        if entry is None:
            raise ChainError(f"blob {blob_id[:12]} is not registered on chain")
        return entry

    def blob_catalog(self) -> List[Dict[str, Any]]:
        """Every registered blob commitment, read from the chain."""
        node = self.nodes[self.node_names[0]]
        entries = node.call_view(self.contracts.blob_contract_id, "list_blobs")
        return [entry for entry in entries or [] if not entry.get("revoked")]

    def audit_blob(
        self,
        auditor_site: str,
        blob_id: str,
        samples: int = 64,
        seed: Optional[int] = None,
        wait: bool = True,
    ) -> Any:
        """Run a sampling audit and post its outcome on chain."""
        from repro.da.manifest import BlobManifest
        from repro.da.sampling import Sampler

        entry = self.blob_entry(blob_id)
        manifest = BlobManifest.from_wire({**entry, "root": entry["merkle_root"]})
        report = Sampler(
            self.da_clients(), seed=self.config.seed if seed is None else seed
        ).audit(manifest, samples=samples)
        site = self.sites[auditor_site]
        tx = site.control.submit_signed_call(
            self.contracts.blob_contract_id,
            "report_audit",
            {
                "blob_id": blob_id,
                "samples": report.samples,
                "verified": report.verified,
                "flagged_sites": report.flagged_sites,
            },
        )
        if wait:
            chain_receipt = self.chain.commit(tx)
            if not chain_receipt.success:
                raise ChainError(f"audit report failed: {chain_receipt.error}")
        return report

    def repair_blob(
        self, reporter_site: str, blob_id: str, wait: bool = True
    ) -> Any:
        """Reconstruct and re-disperse a blob's missing shares, log on chain."""
        from repro.da.dispersal import Repairer
        from repro.da.manifest import BlobManifest

        entry = self.blob_entry(blob_id)
        manifest = BlobManifest.from_wire({**entry, "root": entry["merkle_root"]})
        report = Repairer(self.da_clients()).repair(manifest)
        if report.missing_before:
            site = self.sites[reporter_site]
            tx = site.control.submit_signed_call(
                self.contracts.blob_contract_id,
                "report_repair",
                {"blob_id": blob_id, "restored": report.restored},
            )
            if wait:
                chain_receipt = self.chain.commit(tx)
                if not chain_receipt.success:
                    raise ChainError(
                        f"repair report failed: {chain_receipt.error}"
                    )
        return report

    def total_energy_joules(self) -> float:
        return self.metrics.total_energy_joules()
