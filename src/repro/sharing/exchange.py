"""Health Information Exchange (HIE) over the medical blockchain.

Figure 2's exchange path: when analytics genuinely need records to move —
real-world-evidence review, or compute too expensive for a small site — data
is exchanged (a) only under an on-chain access grant, (b) encrypted so only
the requester can read it, (c) with every step in the hash-chained audit
log, and (d) optionally via a trusted third-party node (e.g. the FDA) that
carries the heavy compute.

This replaces the "secure e-mail" status quo the paper criticizes: the
delivered payload is structured canonical data that feeds directly into the
analytics stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.common.errors import AccessDeniedError, IntegrityError, OracleError
from repro.common.hashing import hash_value_hex
from repro.common.signatures import KeyPair
from repro.consensus.node import BlockchainNode
from repro.offchain.anchoring import verify_dataset
from repro.sharing.audit import AuditLog
from repro.sharing.encryption import Envelope, encrypt_for
from repro.sim.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.datamgmt.store import HospitalDataStore


@dataclass
class ExchangeReceipt:
    """Record of one completed exchange."""

    request_id: str
    dataset_id: str
    requester: str
    site: str
    record_count: int
    payload_bytes: int
    payload_hash: str
    envelope: Envelope


class ExchangeService:
    """Per-site HIE endpoint, bound to the site's chain node and data host.

    The grant check runs against the *on-chain* data contract — the exchange
    cannot be more permissive than the ledger says.
    """

    def __init__(
        self,
        site: str,
        node: BlockchainNode,
        data_contract_id: str,
        host: HospitalDataStore,
        audit: Optional[AuditLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        verify_integrity: bool = True,
    ):
        self.site = site
        self.node = node
        self.data_contract_id = data_contract_id
        self.host = host
        self.audit = audit or AuditLog(name=f"{site}-audit")
        self.metrics = metrics or MetricsRegistry()
        self.verify_integrity = verify_integrity
        self._request_counter = 0

    def request_records(
        self,
        requester: KeyPair,
        dataset_id: str,
        purpose: str,
        fields: Optional[Sequence[str]] = None,
    ) -> ExchangeReceipt:
        """Release a dataset to an authorized requester, encrypted.

        ``fields`` optionally projects each record down to a schema subset
        (the paper's "returned data format will be based on users' requested
        schema").
        """
        self._request_counter += 1
        request_id = f"{self.site}-xchg-{self._request_counter:06d}"
        now_ms = int(self.node.now * 1000)
        self.audit.append(
            actor=requester.address,
            action="request",
            resource=dataset_id,
            detail={"purpose": purpose, "request_id": request_id},
            timestamp_ms=now_ms,
        )
        allowed = self.node.call_view(
            self.data_contract_id,
            "check_access",
            {
                "dataset_id": dataset_id,
                "grantee": requester.address,
                "purpose": purpose,
                "now_ms": now_ms,
            },
        )
        if not allowed:
            self.audit.append(
                actor=self.site,
                action="deny",
                resource=dataset_id,
                detail={"requester": requester.address, "request_id": request_id},
                timestamp_ms=now_ms,
            )
            raise AccessDeniedError(
                f"{requester.address[:12]} has no grant on {dataset_id} for {purpose!r}"
            )
        if not self.host.has_dataset(dataset_id):
            raise OracleError(f"dataset {dataset_id!r} is not hosted at {self.site}")
        records = self.host.get_records(dataset_id)
        if self.verify_integrity:
            entry = self.node.call_view(
                self.data_contract_id, "get_dataset", {"dataset_id": dataset_id}
            )
            if entry is None or not verify_dataset(records, entry["merkle_root"]):
                self.audit.append(
                    actor=self.site,
                    action="integrity-failure",
                    resource=dataset_id,
                    detail={"request_id": request_id},
                    timestamp_ms=now_ms,
                )
                raise IntegrityError(
                    f"dataset {dataset_id} failed its anchor check before exchange"
                )
        if fields:
            records = [
                {key: record[key] for key in fields if key in record}
                for record in records
            ]
        payload = {"dataset_id": dataset_id, "records": records}
        envelope = encrypt_for(requester.public, payload)
        payload_bytes = envelope.size_bytes
        self.metrics.add_bytes(payload_bytes, scope=self.site)
        self.audit.append(
            actor=self.site,
            action="release",
            resource=dataset_id,
            detail={
                "requester": requester.address,
                "request_id": request_id,
                "records": len(records),
                "payload_hash": hash_value_hex({"n": len(records)}),
            },
            timestamp_ms=now_ms,
        )
        return ExchangeReceipt(
            request_id=request_id,
            dataset_id=dataset_id,
            requester=requester.address,
            site=self.site,
            record_count=len(records),
            payload_bytes=payload_bytes,
            payload_hash=hash_value_hex({"n": len(records)}),
            envelope=envelope,
        )


class TrustedThirdParty:
    """A government-grade node (the FDA of Figure 2).

    Aggregates exchanges from many sites for analyses that genuinely need
    pooled data, keeping the full audit trail; also the place where "too
    expensive for every site" compute would run.
    """

    def __init__(self, name: str, keypair: KeyPair, metrics: Optional[MetricsRegistry] = None):
        self.name = name
        self.keypair = keypair
        self.metrics = metrics or MetricsRegistry()
        self.audit = AuditLog(name=f"{name}-audit")
        self.received: List[ExchangeReceipt] = []

    def collect(
        self,
        exchanges: Sequence[ExchangeService],
        dataset_ids: Dict[str, str],
        purpose: str,
    ) -> List[ExchangeReceipt]:
        """Pull one dataset per site (``{site: dataset_id}``) under grants."""
        receipts = []
        for exchange in exchanges:
            dataset_id = dataset_ids.get(exchange.site)
            if dataset_id is None:
                continue
            receipt = exchange.request_records(self.keypair, dataset_id, purpose)
            self.metrics.add_bytes(receipt.payload_bytes, scope=self.name)
            self.audit.append(
                actor=self.name,
                action="collect",
                resource=dataset_id,
                detail={"site": exchange.site, "records": receipt.record_count},
            )
            self.received.append(receipt)
            receipts.append(receipt)
        return receipts

    def decrypt_all(self) -> List[Dict[str, Any]]:
        """Open every collected envelope; returns the pooled records."""
        from repro.sharing.encryption import decrypt

        pooled: List[Dict[str, Any]] = []
        for receipt in self.received:
            payload = decrypt(self.keypair.private, receipt.envelope)
            pooled.extend(payload["records"])
        return pooled
