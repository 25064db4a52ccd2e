"""The global query gateway: dispatch decomposed sub-queries to site servers.

Figure 5's Global Query Service decomposes a research query into per-site
work; the :class:`Gateway` is the transport boundary that carries each
sub-query to the site that must run it.  Two interchangeable transports:

- :class:`InprocGateway` — dispatches through each site's
  :class:`~repro.rpc.server.RpcServer` *dispatch path* in-process (codec
  and method layer included, sockets excluded).  Default: keeps every
  existing test and benchmark hermetic and fast.
- :class:`TcpGateway` — dispatches over pooled, pipelined framed-TCP
  connections to real site server processes (see
  :mod:`repro.rpc.site_server`).

Both share one execution algorithm (catalog -> decompose -> concurrent
``site.query`` fan-out -> compose), and both serialize through the same
canonical codec, so a query's composed result — and its content hash — is
transport-invariant.  The E15 benchmark and CI gate on exactly that.

The catalog is each site's last ``site.catalog`` reply, kept by the gateway
and validated on use: every ``site.query`` names the listing ``version`` it
was planned against, and a site whose listing has changed refuses with
``STALE_CATALOG`` carrying the fresh one, which the gateway stores before it
plans again and asks that site once more.  So the steady state is one RPC
per site per query, and no query is answered from a plan its site no longer
agrees with.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import QueryError
from repro.common.hashing import hash_value_hex
from repro.common.serialize import canonical_bytes
from repro.datamgmt.virtual import DatasetRef
from repro.obs.tracer import trace_span
from repro.query.compose import SiteTask, compose, decompose
from repro.query.vector import QueryVector
from repro.rpc import codec
from repro.rpc.client import (
    ConnectionPool,
    RetryPolicy,
    _trace_meta,
    adopt_remote_spans,
)
from repro.rpc.errors import RpcError, StaleCatalogError
from repro.rpc.methods import vector_to_wire
from repro.rpc.runtime import EventLoopThread
from repro.rpc.server import RpcServer


@dataclass
class GatewayAnswer:
    """Composed result of one gateway-dispatched query."""

    query_id: str
    result: Dict[str, Any]
    result_hash: str
    site_partials: Dict[str, Dict[str, Any]]
    failed_sites: Dict[str, str] = field(default_factory=dict)
    latency_s: float = 0.0
    bytes_on_wire: int = 0
    transport: str = "inproc"


def _is_listing(data: Any) -> bool:
    return isinstance(data, dict) and "datasets" in data and "version" in data


class Gateway:
    """Shared fan-out/compose algorithm over an abstract per-site call."""

    transport = "abstract"

    def __init__(self) -> None:
        self._runner: Optional[EventLoopThread] = None
        self._listings: Dict[str, Dict[str, Any]] = {}  # site -> site.catalog reply

    # -- transport hooks ---------------------------------------------------
    async def acall(
        self,
        site: str,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        idempotent: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Any:
        raise NotImplementedError

    def site_names(self) -> List[str]:
        raise NotImplementedError

    async def aclose(self) -> None:
        pass

    # -- query execution ---------------------------------------------------
    async def acatalog(self) -> List[DatasetRef]:
        """The catalog the next query is planned against.

        Sites with no listing yet — or an empty one, which no ``site.query``
        would ever get to correct — are asked first, all at once.
        """
        unknown = [
            site
            for site in self.site_names()
            if not self._listings.get(site, {}).get("datasets")
        ]
        if unknown:
            replies = await asyncio.gather(
                *(self.acall(site, "site.catalog") for site in unknown)
            )
            self._listings.update(zip(unknown, replies))
        return self._catalog()

    def _catalog(self) -> List[DatasetRef]:
        return [
            DatasetRef(
                site=entry["site"],
                dataset_id=entry["dataset_id"],
                record_count=entry["record_count"],
                schema=entry["schema"],
            )
            for site in self.site_names()
            for entry in self._listings[site]["datasets"]
        ]

    async def aexecute(
        self, vector: QueryVector, timeout_s: Optional[float] = None
    ) -> GatewayAnswer:
        """Decompose, dispatch concurrently, compose, hash."""
        vector.validate()
        started = perf_counter()
        query_id = vector.query_id
        wire = vector_to_wire(vector)
        with trace_span(
            "gateway.execute", transport=self.transport, intent=vector.intent
        ) as span:
            tasks = decompose(vector, await self.acatalog())
            span.set_attr("tasks", len(tasks))
            outcomes = await asyncio.gather(
                *(self._run_site_task(vector, wire, task, timeout_s) for task in tasks)
            )
            partials: Dict[str, Dict[str, Any]] = {}
            failures: Dict[str, str] = {}
            bytes_on_wire = 0
            for task, (partial, error, size) in zip(tasks, outcomes):
                bytes_on_wire += size
                if error is not None:
                    failures[task.site] = f"[{error.code}] {error.message}"
                elif partial is not None:
                    partials[task.site] = partial
            if not partials:
                raise QueryError(
                    f"query {query_id} produced no results over "
                    f"{self.transport}; failures: {failures}"
                )
            # Site order is deterministic (decompose sorts), so composition
            # and its hash are reproducible across transports and runs.
            composed = compose(
                vector, [partials[site] for site in sorted(partials)]
            )
            span.set_attr("sites", len(partials))
            span.set_attr("bytes", bytes_on_wire)
        return GatewayAnswer(
            query_id=query_id,
            result=composed,
            result_hash=hash_value_hex(composed),
            site_partials=partials,
            failed_sites=failures,
            latency_s=perf_counter() - started,
            bytes_on_wire=bytes_on_wire,
            transport=self.transport,
        )

    async def _run_site_task(
        self,
        vector: QueryVector,
        wire: Dict[str, Any],
        task: SiteTask,
        timeout_s: Optional[float],
    ) -> Tuple[Optional[Dict[str, Any]], Optional[RpcError], int]:
        """One site's share of a query: (partial, error, bytes on the wire).

        A site that refuses the plan as stale sent its fresh listing along
        (``_query_site`` stored it): plan again over it and ask that site
        once more.  A second refusal is that site's failure for this query.
        """
        partial, error, size = await self._query_site(wire, task, timeout_s)
        if isinstance(error, StaleCatalogError):
            replanned = next(
                (t for t in decompose(vector, self._catalog()) if t.site == task.site),
                None,
            )
            if replanned is None:  # the site hosts nothing any more
                return None, None, size
            partial, error, resent = await self._query_site(wire, replanned, timeout_s)
            size += resent
        return partial, error, size

    async def _query_site(
        self, wire: Dict[str, Any], task: SiteTask, timeout_s: Optional[float]
    ) -> Tuple[Optional[Dict[str, Any]], Optional[RpcError], int]:
        params = {
            "vector": wire,
            "dataset_ids": list(task.dataset_ids),
            "task_id": task.task_id,
            "catalog_version": self._listings[task.site]["version"],
        }
        down = len(canonical_bytes(params))
        try:
            outcome = await self.acall(
                task.site, "site.query", params, idempotent=True, timeout_s=timeout_s
            )
        except RpcError as exc:
            if isinstance(exc, StaleCatalogError) and _is_listing(exc.data):
                self._listings[task.site] = exc.data
            return None, exc, down
        partial = outcome["result"]
        return partial, None, down + len(canonical_bytes(partial))

    # -- sync facade -------------------------------------------------------
    def _loop_runner(self) -> EventLoopThread:
        if self._runner is None:
            self._runner = EventLoopThread(name=f"repro-rpc-{self.transport}")
        return self._runner

    def call(
        self,
        site: str,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        idempotent: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Any:
        return self._loop_runner().run(
            self.acall(site, method, params, idempotent=idempotent, timeout_s=timeout_s)
        )

    def execute(
        self, vector: QueryVector, timeout_s: Optional[float] = None
    ) -> GatewayAnswer:
        return self._loop_runner().run(self.aexecute(vector, timeout_s))

    def catalog(self) -> List[DatasetRef]:
        return self._loop_runner().run(self.acatalog())

    def close(self) -> None:
        if self._runner is not None:
            self._runner.run(self.aclose())
            self._runner.close()
            self._runner = None


class InprocGateway(Gateway):
    """Dispatch through in-process site servers (no sockets, same codec)."""

    transport = "inproc"

    def __init__(self, servers: Dict[str, RpcServer]):
        super().__init__()
        self.servers = dict(servers)

    def site_names(self) -> List[str]:
        return sorted(self.servers)

    async def acall(
        self,
        site: str,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        idempotent: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Any:
        server = self.servers.get(site)
        if server is None:
            raise QueryError(f"gateway knows no site {site!r}")
        request = codec.Request(
            method=method, params=params, request_id=1, meta=_trace_meta()
        )
        with trace_span("rpc.call", method=method, transport=self.transport) as span:
            raw = await server.dispatch_raw(
                codec.encode_payload(request.to_wire())
            )
            assert raw is not None  # request had an id, so a response exists
            response = codec.parse_response(codec.decode_payload(raw))
            if response.meta:
                span.set_attr("remote_spans", adopt_remote_spans(response.meta))
            if response.error is not None:
                raise response.error
            return response.result

    async def aclose(self) -> None:
        for server in self.servers.values():
            await server.close()


class TcpGateway(Gateway):
    """Dispatch over pooled framed-TCP connections to site server processes."""

    transport = "tcp"

    def __init__(
        self,
        addresses: Dict[str, Tuple[str, int]],
        *,
        max_connections_per_site: int = 4,
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__()
        self.addresses = dict(addresses)
        self.pools: Dict[str, ConnectionPool] = {
            site: ConnectionPool(
                host,
                port,
                max_connections=max_connections_per_site,
                connect_timeout_s=connect_timeout_s,
                request_timeout_s=request_timeout_s,
                retry=retry,
            )
            for site, (host, port) in self.addresses.items()
        }

    def site_names(self) -> List[str]:
        return sorted(self.pools)

    async def acall(
        self,
        site: str,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        idempotent: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Any:
        pool = self.pools.get(site)
        if pool is None:
            raise QueryError(f"gateway knows no site {site!r}")
        return await pool.call(
            method, params, timeout_s=timeout_s, idempotent=idempotent
        )

    async def aclose(self) -> None:
        for pool in self.pools.values():
            await pool.close()
