"""Method surface a site server exposes (Figures 3-5 over a real wire).

``build_site_registry`` binds one hospital site's components — local data
store, analytics tool runner, blockchain node, data oracle — to the JSON-RPC
method names the gateway and external clients call:

- ``health`` / ``rpc.methods`` / ``rpc.echo`` — liveness, discovery, and a
  payload-size probe for load benchmarks;
- ``site.catalog`` — the datasets this site hosts (feeds decomposition),
  tagged with a short content hash of the listing (``version``);
- ``site.run_task`` — run a registered analytics tool over local records
  ("move compute to the data" as a served endpoint);
- ``site.query`` — execute one decomposed sub-query and return the partial
  result plus its content hash; a caller that names the ``catalog_version``
  it planned against is refused with ``STALE_CATALOG`` (carrying the fresh
  listing) once the site's listing has changed;
- ``oracle.fetch`` — the paper's data-oracle bridge, served;
- ``chain.get_block`` / ``node.submit_tx`` — read blocks and submit signed
  transactions to this site's blockchain node;
- ``da.put_chunk`` / ``da.get_chunk`` / ``da.sample`` — erasure-coded share
  custody and availability audits over this site's chunk store
  (:mod:`repro.da`).

Handlers return plain jsonable dicts and raise domain errors; the server
maps those to typed JSON-RPC error objects.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ChainError
from repro.common.hashing import hash_value_hex
from repro.common.serialize import to_jsonable
from repro.query.vector import QueryVector
from repro.rpc.errors import (
    InvalidParamsError,
    OverloadedError,
    RateLimitedError,
    StaleCatalogError,
    StaleNonceError,
    TxUnderpricedError,
)
from repro.rpc.server import MethodRegistry

_VECTOR_FIELDS = {field.name for field in dataclasses.fields(QueryVector)}


def vector_from_wire(vector: Dict[str, Any]) -> QueryVector:
    """Rebuild a validated :class:`QueryVector` from its wire dict."""
    if not isinstance(vector, dict):
        raise InvalidParamsError("vector must be an object")
    unknown = set(vector) - _VECTOR_FIELDS
    if unknown:
        raise InvalidParamsError(f"unknown vector fields: {sorted(unknown)}")
    if "intent" not in vector:
        raise InvalidParamsError("vector requires an intent")
    built = QueryVector(**vector)
    built.validate()
    return built


def vector_to_wire(vector: QueryVector) -> Dict[str, Any]:
    return to_jsonable(vector)


def admission_to_wire(admission: Any, tx_id: str) -> Dict[str, Any]:
    """Map a mempool :class:`AdmissionResult` onto the RPC error band.

    Accepted/replaced/duplicate outcomes return a result object (duplicate
    is a no-op success: the tx is already pooled, resubmitting changed
    nothing).  Every refusal raises the matching typed error so clients
    branch on stable integer codes, with machine-usable hints — the fee
    floor for underpriced, the outbid price for a full pool — in ``data``.
    """
    from repro.chain.mempool import (
        DUPLICATE,
        POOL_FULL,
        RATE_LIMITED,
        STALE_NONCE,
        UNDERPRICED,
    )

    if admission:
        wire: Dict[str, Any] = {
            "accepted": True,
            "status": admission.code,
            "tx_id": tx_id,
        }
        if admission.replaced_tx_id:
            wire["replaced_tx_id"] = admission.replaced_tx_id
        return wire
    if admission.code == DUPLICATE:
        return {"accepted": False, "status": DUPLICATE, "tx_id": tx_id}
    data: Dict[str, Any] = {"tx_id": tx_id}
    if admission.reason:
        data["reason"] = admission.reason
    if admission.fee_floor is not None:
        data["fee_floor"] = admission.fee_floor
    if admission.code == UNDERPRICED:
        raise TxUnderpricedError(admission.reason, data=data)
    if admission.code == POOL_FULL:
        raise OverloadedError(
            admission.reason or "mempool full; raise fee or retry", data=data
        )
    if admission.code == RATE_LIMITED:
        raise RateLimitedError(admission.reason, data=data)
    if admission.code == STALE_NONCE:
        raise StaleNonceError(admission.reason, data=data)
    raise OverloadedError(admission.reason or admission.code, data=data)


@dataclass
class SiteService:
    """The components of one site that the method surface binds to.

    Duck-typed: ``store`` needs ``dataset_ids``/``get_records`` (and
    optionally ``record_count``/``catalog_version``), ``runner`` a
    :class:`TaskRunner`, ``node``/``oracle`` may be ``None`` for data-only
    deployments.
    """

    name: str
    store: Any
    runner: Any
    node: Any = None
    oracle: Any = None
    chunks: Any = None  # repro.da.store.ChunkStore for the da.* surface
    schema: str = "patient-canonical-v1"

    @classmethod
    def from_site(cls, site: Any) -> "SiteService":
        """Adapter from :class:`repro.core.platform.Site`."""
        return cls(
            name=site.name,
            store=site.store,
            runner=site.control.runner,
            node=site.node,
            oracle=site.monitor.oracle,
            chunks=getattr(site, "chunks", None),
        )

    # -- local helpers -----------------------------------------------------
    def _records_for(self, dataset_ids: Optional[Sequence[str]]) -> List[Dict[str, Any]]:
        ids = list(dataset_ids) if dataset_ids else self.store.dataset_ids()
        records: List[Dict[str, Any]] = []
        for dataset_id in sorted(ids):
            records.extend(self.store.get_records(dataset_id))
        return records

    def _record_count(self, dataset_id: str) -> int:
        counter = getattr(self.store, "record_count", None)
        if counter is not None:
            return int(counter(dataset_id))
        return len(self.store.get_records(dataset_id))

    def _datasets(self) -> List[Dict[str, Any]]:
        return [
            {
                "site": self.name,
                "dataset_id": dataset_id,
                "record_count": self._record_count(dataset_id),
                "schema": self.schema,
            }
            for dataset_id in self.store.dataset_ids()
        ]

    def catalog_version(self) -> str:
        """What a gateway's cached listing must still hash to on this site."""
        versioned = getattr(self.store, "catalog_version", None)
        if versioned is not None:
            return versioned()
        return hash_value_hex(self._datasets())[:16]

    def catalog(self) -> Dict[str, Any]:
        """The ``site.catalog`` reply (also the payload of ``STALE_CATALOG``)."""
        # Version first: a dataset added in between makes the listing newer
        # than its tag, which the next query corrects; the other order would
        # tag an old listing as current.
        version = self.catalog_version()
        return {"site": self.name, "datasets": self._datasets(), "version": version}


def build_site_registry(
    service: SiteService,
    *,
    task_timeout_s: Optional[float] = None,
) -> MethodRegistry:
    """The full method registry for one site server."""
    registry = MethodRegistry()

    def health() -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "status": "ok",
            "site": service.name,
            "datasets": service.store.dataset_ids(),
        }
        if service.node is not None:
            info["height"] = service.node.head.height
        return info

    def rpc_methods() -> Dict[str, Any]:
        return {"methods": registry.names()}

    def rpc_echo(payload: Any = None) -> Dict[str, Any]:
        return {"payload": payload}

    def site_catalog() -> Dict[str, Any]:
        return service.catalog()

    def site_run_task(
        task_id: str,
        tool_id: str,
        dataset_ids: Optional[List[str]] = None,
        params: Optional[Dict[str, Any]] = None,
        purpose: str = "research",
    ) -> Dict[str, Any]:
        records = service._records_for(dataset_ids)
        result = service.runner.run(task_id, tool_id, records, dict(params or {}))
        return {
            "task_id": result.task_id,
            "tool_id": result.tool_id,
            "site": result.site,
            "result": result.result,
            "result_hash": result.result_hash,
            "records_used": result.records_used,
            "flops": result.flops,
            "purpose": purpose,
        }

    def site_query(
        vector: Dict[str, Any],
        dataset_ids: Optional[List[str]] = None,
        task_id: str = "",
        catalog_version: Optional[str] = None,
    ) -> Dict[str, Any]:
        if catalog_version is not None and catalog_version != service.catalog_version():
            raise StaleCatalogError(data=service.catalog())
        built = vector_from_wire(vector)
        outcome = site_run_task(
            task_id=task_id or f"{built.query_id}-{service.name}",
            tool_id=built.tool_id(),
            dataset_ids=dataset_ids,
            params=built.tool_params(),
            purpose=built.purpose,
        )
        outcome["query_id"] = built.query_id
        return outcome

    def oracle_fetch(
        endpoint: str, request: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        if service.oracle is None:
            raise InvalidParamsError(f"site {service.name!r} serves no oracle")
        return service.oracle.call(endpoint, request)

    def chain_get_block(
        block_id: Optional[str] = None, height: Optional[int] = None
    ) -> Dict[str, Any]:
        if service.node is None:
            raise InvalidParamsError(f"site {service.name!r} serves no chain node")
        if (block_id is None) == (height is None):
            raise InvalidParamsError("pass exactly one of block_id / height")
        if block_id is not None:
            block = service.node.store.get(block_id)  # raises ChainError
        else:
            block = service.node.store.block_at_height(int(height))
            if block is None:
                raise ChainError(f"no canonical block at height {height}")
        wire = to_jsonable(block)
        wire["block_id"] = block.block_id
        return wire

    def chain_get_headers(
        locator: Optional[List[str]] = None, limit: int = 256, **_extra: Any
    ) -> Dict[str, Any]:
        if service.node is None:
            raise InvalidParamsError(f"site {service.name!r} serves no chain node")
        from repro.p2p.wire import header_to_wire

        blocks = service.node.store.headers_after(
            [b for b in (locator or []) if isinstance(b, str)], limit=limit
        )
        return {"headers": [header_to_wire(b.header, b.block_id) for b in blocks]}

    def chain_get_blocks(
        ids: Optional[List[str]] = None, **_extra: Any
    ) -> Dict[str, Any]:
        if service.node is None:
            raise InvalidParamsError(f"site {service.name!r} serves no chain node")
        from repro.p2p.wire import block_to_wire

        store = service.node.store
        bodies = [
            block_to_wire(store.get(block_id))
            for block_id in (ids or [])[:256]
            if isinstance(block_id, str) and block_id in store
        ]
        return {"blocks": bodies}

    def _chunk_store() -> Any:
        if service.chunks is None:
            raise InvalidParamsError(f"site {service.name!r} serves no chunk store")
        return service.chunks

    def da_put_chunk(
        blob_id: str, root: str, index: int, data: str, proof: Dict[str, Any]
    ) -> Dict[str, Any]:
        from repro.common.errors import IntegrityError
        from repro.da.manifest import proof_from_wire

        store = _chunk_store()
        try:
            payload = bytes.fromhex(data)
        except ValueError as exc:
            raise InvalidParamsError(f"chunk data must be hex: {exc}") from exc
        try:
            stored = store.put_chunk(
                blob_id, root, int(index), payload, proof_from_wire(proof)
            )
        except IntegrityError as exc:
            # A proof/digest mismatch is a malformed request, not a server
            # fault: the disperser shipped bytes it cannot commit to.
            raise InvalidParamsError(str(exc)) from exc
        return {"stored": stored, "site": service.name, "index": int(index)}

    def da_get_chunk(blob_id: str, index: int) -> Dict[str, Any]:
        from repro.da.manifest import proof_to_wire

        chunk = _chunk_store().get_chunk(blob_id, int(index))  # raises -> DA code
        return {
            "blob_id": blob_id,
            "index": chunk.index,
            "data": chunk.data.hex(),
            "proof": proof_to_wire(chunk.proof),
        }

    def da_sample(blob_id: str, indices: List[int]) -> Dict[str, Any]:
        from repro.da.manifest import proof_to_wire

        if not isinstance(indices, list):
            raise InvalidParamsError("indices must be a list of leaf indices")
        results = _chunk_store().sample(blob_id, [int(i) for i in indices])
        return {
            "blob_id": blob_id,
            "site": service.name,
            "chunks": [
                None
                if chunk is None
                else {
                    "index": chunk.index,
                    "data": chunk.data.hex(),
                    "proof": proof_to_wire(chunk.proof),
                }
                for chunk in results
            ],
        }

    def node_submit_tx(tx: Dict[str, Any]) -> Dict[str, Any]:
        if service.node is None:
            raise InvalidParamsError(f"site {service.name!r} serves no chain node")
        from repro.p2p.wire import tx_from_wire

        transaction = tx_from_wire(tx)  # raises ValidationError -> INVALID_TX
        transaction.validate()
        admission = service.node.submit_tx(transaction)
        return admission_to_wire(admission, transaction.tx_id)

    def mempool_status() -> Dict[str, Any]:
        if service.node is None:
            raise InvalidParamsError(f"site {service.name!r} serves no chain node")
        return service.node.mempool.status()

    registry.register("health", health, idempotent=True, timeout_s=5.0)
    registry.register("rpc.methods", rpc_methods, idempotent=True, timeout_s=5.0)
    registry.register("rpc.echo", rpc_echo, idempotent=True)
    registry.register("site.catalog", site_catalog, idempotent=True)
    registry.register(
        "site.run_task", site_run_task, idempotent=True, timeout_s=task_timeout_s
    )
    registry.register(
        "site.query", site_query, idempotent=True, timeout_s=task_timeout_s
    )
    registry.register("oracle.fetch", oracle_fetch, idempotent=True)
    registry.register("chain.get_block", chain_get_block, idempotent=True)
    registry.register("chain.get_headers", chain_get_headers, idempotent=True)
    registry.register("chain.get_blocks", chain_get_blocks, idempotent=True)
    registry.register("mempool.status", mempool_status, idempotent=True)
    # Verify-on-ingest makes da.put_chunk naturally idempotent: re-putting
    # an already-held chunk is a no-op answered from the store.
    registry.register("da.put_chunk", da_put_chunk, idempotent=True)
    registry.register("da.get_chunk", da_get_chunk, idempotent=True)
    registry.register("da.sample", da_sample, idempotent=True)
    # Submitting the same *signed* tx twice is deduplicated by the mempool,
    # but a client-side retry could still race a nonce bump — keep it
    # non-idempotent so the pool never auto-retries it.
    registry.register("node.submit_tx", node_submit_tx)
    return registry
