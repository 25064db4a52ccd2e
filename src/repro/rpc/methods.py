"""Method surface a site server exposes (Figures 3-5 over a real wire).

``build_site_registry`` serves one :class:`~repro.offchain.site.Site`, as
:func:`~repro.offchain.site.assemble_site` built it — local data store,
analytics tool runner, chunk store and, at a chain-bound site, data oracle —
under the JSON-RPC method names the gateway and external clients call:

- ``health`` / ``rpc.methods`` / ``rpc.echo`` — liveness, discovery, and a
  payload-size probe for load benchmarks;
- ``site.catalog`` — the datasets this site hosts (feeds decomposition),
  tagged with a short content hash of the listing (``version``);
- ``site.run_task`` — run a registered analytics tool over local records
  ("move compute to the data" as a served endpoint);
- ``site.query`` — execute one decomposed sub-query and return the partial
  result plus its content hash, in ``site.run_task``'s outcome shape; a
  caller that names the ``catalog_version`` it planned against is refused
  with ``STALE_CATALOG`` (carrying the fresh listing) once the site's
  listing has changed.  An aggregate (a column scan) is answered on the
  server's event loop, a model fit in a worker thread;
- ``oracle.fetch`` — the paper's data-oracle bridge, served (a platform
  site has one; a data-only site, such as a ``site_server`` process's,
  answers INVALID_PARAMS);
- ``da.put_chunk`` / ``da.get_chunk`` / ``da.sample`` — erasure-coded share
  custody and availability audits over this site's chunk store
  (:mod:`repro.da`).

Handlers return plain jsonable dicts and raise domain errors; the server
maps those to typed JSON-RPC error objects.  A site that is also a chain
node gets the node's methods from :class:`repro.p2p.host.P2PHost`, on the
same registry; no site handler touches the node.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.common.errors import LearningError
from repro.common.serialize import to_jsonable
from repro.query.vector import QueryVector
from repro.rpc.codec import Encoded, splice
from repro.rpc.errors import InvalidParamsError, StaleCatalogError
from repro.rpc.server import MethodRegistry

if TYPE_CHECKING:
    from repro.datamgmt.columns import Table
    from repro.offchain.site import Site

_VECTOR_FIELDS = {field.name for field in dataclasses.fields(QueryVector)}

#: The tools ``site.query`` runs on the server's event loop.  They scan the
#: store's cached columns (~0.1 ms for the five E22 shapes at 1000 records),
#: which costs less than the hop to a worker thread and back; and in a worker,
#: each numpy call hands the GIL to whichever thread waits for it, so a
#: query's CPU would grow with the number of queries that overlap it.
#: Model fits (``local_train``, ``evaluate_model``, ``cluster``) run in a
#: worker thread, so they do not stall the loop.
LOOP_TOOLS = frozenset(
    {"count", "prevalence", "numeric_summary", "histogram", "describe", "compare_groups"}
)


def vector_from_wire(vector: Dict[str, Any]) -> QueryVector:
    """Rebuild a validated :class:`QueryVector` from its wire dict."""
    if not isinstance(vector, dict):
        raise InvalidParamsError("vector must be an object")
    unknown = set(vector) - _VECTOR_FIELDS
    if unknown:
        raise InvalidParamsError(f"unknown vector fields: {sorted(unknown)}")
    if "intent" not in vector:
        raise InvalidParamsError("vector requires an intent")
    for name in ("target_field", "group_field"):  # split into column paths
        if not isinstance(vector.get(name, ""), str):
            raise InvalidParamsError(f"vector {name} must be a dotted path string")
    built = QueryVector(**vector)
    built.validate()
    return built


def vector_to_wire(vector: QueryVector) -> Dict[str, Any]:
    return to_jsonable(vector)


def query_tool_params(vector: QueryVector, params: Any = None) -> Dict[str, Any]:
    """A ``site.query``'s tool params: the vector's, with ``params`` (an
    object: a round's ``global_params`` and ``seed``) merged over them."""
    if params is not None and not isinstance(params, dict):
        raise InvalidParamsError("site.query: params must be an object")
    tool_params = vector.tool_params()
    if params:
        tool_params.update(params)
    return tool_params


def build_site_registry(
    site: Site,
    *,
    task_timeout_s: Optional[float] = None,
    registry: Optional[MethodRegistry] = None,
) -> MethodRegistry:
    """The method registry serving ``site`` (``registry``'s, if given)."""
    registry = registry if registry is not None else MethodRegistry()
    store = site.store

    def records_for(dataset_ids: Optional[List[str]]) -> Table:
        """The named datasets' records as the store's cached table: each
        dataset once, in id order (every dataset if none is named)."""
        if dataset_ids is not None and not (
            isinstance(dataset_ids, list) and all(isinstance(i, str) for i in dataset_ids)
        ):
            raise InvalidParamsError("dataset_ids must be a list of strings")
        return store.table(sorted(set(dataset_ids or ())) or store.dataset_ids())

    def catalog() -> Dict[str, Any]:
        """The ``site.catalog`` reply (also the payload of ``STALE_CATALOG``)."""
        # Version first: a dataset added in between makes the listing newer
        # than its tag, which the next query corrects; the other order would
        # tag an old listing as current.
        version = store.catalog_version()
        datasets = [
            {
                "site": site.name,
                "dataset_id": dataset_id,
                "record_count": store.record_count(dataset_id),
                "schema": "patient-canonical-v1",
            }
            for dataset_id in store.dataset_ids()
        ]
        return {"site": site.name, "datasets": datasets, "version": version}

    async def health() -> Dict[str, Any]:
        return {"status": "ok", "site": site.name, "datasets": store.dataset_ids()}

    async def rpc_methods() -> Dict[str, Any]:
        return {"methods": registry.names()}

    async def rpc_echo(payload: Any = None) -> Dict[str, Any]:
        return {"payload": payload}

    def site_run_task(
        task_id: str,
        tool_id: str,
        dataset_ids: Optional[List[str]] = None,
        params: Optional[Dict[str, Any]] = None,
        purpose: str = "research",
    ) -> Encoded:
        records = records_for(dataset_ids)
        try:
            result = site.runner.run(task_id, tool_id, records, dict(params or {}))
        except LearningError as exc:
            # A model a tool cannot build from these params (an outcome no
            # record holds, global_params of the wrong shape): the request's fault.
            raise InvalidParamsError(str(exc)) from exc
        outcome = {
            "task_id": result.task_id,
            "tool_id": result.tool_id,
            "site": result.site,
            "result_hash": result.result_hash,
            "records_used": result.records_used,
            "flops": result.flops,
            "purpose": purpose,
        }
        # The result goes into the reply as the bytes its hash was taken
        # over: the server writes them, and encodes the result no more.
        return Encoded(
            dict(outcome, result=result.result), splice(outcome, "result", result.result_bytes)
        )

    async def site_query(
        vector: Dict[str, Any],
        dataset_ids: Optional[List[str]] = None,
        task_id: str = "",
        catalog_version: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> Encoded:
        """One decomposed sub-query over this site's records.

        Answers ``site.run_task``'s outcome for the vector's tool and params
        (``params`` merged over them: a round's ``global_params`` and
        ``seed``): ``task_id``, ``tool_id``, ``site``, ``result``,
        ``result_hash``, ``records_used``, ``flops`` and ``purpose``.  A
        gateway names the query in ``task_id``; without one it is
        ``<query_id>-<site>``.
        """
        if catalog_version is not None and catalog_version != store.catalog_version():
            raise StaleCatalogError(data=catalog())
        built = vector_from_wire(vector)
        tool_id = built.tool_id()
        run = functools.partial(
            site_run_task,
            task_id=task_id or f"{built.query_id}-{site.name}",
            tool_id=tool_id,
            dataset_ids=dataset_ids,
            params=query_tool_params(built, params),
            purpose=built.purpose,
        )
        return run() if tool_id in LOOP_TOOLS else await asyncio.to_thread(run)

    def oracle_fetch(
        endpoint: str, request: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        if site.oracle is None:
            raise InvalidParamsError(f"site {site.name!r} serves no oracle")
        return site.oracle.call(endpoint, request)

    def da_put_chunk(
        blob_id: str, root: str, index: int, data: str, proof: Dict[str, Any]
    ) -> Dict[str, Any]:
        from repro.common.errors import IntegrityError
        from repro.da.manifest import proof_from_wire

        try:
            payload = bytes.fromhex(data)
        except ValueError as exc:
            raise InvalidParamsError(f"chunk data must be hex: {exc}") from exc
        try:
            stored = site.chunks.put_chunk(
                blob_id, root, int(index), payload, proof_from_wire(proof)
            )
        except IntegrityError as exc:
            # A proof/digest mismatch is a malformed request, not a server
            # fault: the disperser shipped bytes it cannot commit to.
            raise InvalidParamsError(str(exc)) from exc
        return {"stored": stored, "site": site.name, "index": int(index)}

    def da_get_chunk(blob_id: str, index: int) -> Dict[str, Any]:
        from repro.da.manifest import proof_to_wire

        chunk = site.chunks.get_chunk(blob_id, int(index))  # raises -> DA code
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
        results = site.chunks.sample(blob_id, [int(i) for i in indices])
        return {
            "blob_id": blob_id,
            "site": site.name,
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

    registry.register("health", health, idempotent=True, timeout_s=5.0)
    registry.register("rpc.methods", rpc_methods, idempotent=True, timeout_s=5.0)
    registry.register("rpc.echo", rpc_echo, idempotent=True)
    registry.register("site.catalog", catalog, idempotent=True)
    registry.register(
        "site.run_task", site_run_task, idempotent=True, timeout_s=task_timeout_s
    )
    registry.register(
        "site.query", site_query, idempotent=True, timeout_s=task_timeout_s
    )
    registry.register("oracle.fetch", oracle_fetch, idempotent=True)
    # Verify-on-ingest makes da.put_chunk naturally idempotent: re-putting
    # an already-held chunk is a no-op answered from the store.
    registry.register("da.put_chunk", da_put_chunk, idempotent=True)
    registry.register("da.get_chunk", da_get_chunk, idempotent=True)
    registry.register("da.sample", da_sample, idempotent=True)
    return registry
