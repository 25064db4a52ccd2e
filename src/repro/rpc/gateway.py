"""The global query gateway: dispatch decomposed sub-queries to the sites.

Figure 5's Global Query Service decomposes a research query into per-site
work; the :class:`Gateway` is the transport boundary that carries each
sub-query to the site that must run it.  Three transports, one algorithm:

- :class:`InprocGateway` — dispatches through each site's
  :class:`~repro.rpc.server.RpcServer` *dispatch path* in-process (codec
  and method layer included, sockets excluded).
- :class:`TcpGateway` — dispatches over pooled, pipelined framed-TCP
  connections to real site server processes (see
  :mod:`repro.rpc.site_server`).
- ``repro.core.chain_gateway.ChainGateway`` — submits each sub-query as a
  ``request_task`` transaction that the site's control code answers, in the
  platform's simulated time.  It lives in ``repro.core``, so this package
  loads no chain code.

All three run :meth:`Gateway.aexecute` (catalog -> decompose -> concurrent
``site.query`` fan-out -> compose), and the partials they compose are the
same bytes, so a query's composed result — and its content hash — is
transport-invariant.  The E15 benchmark and CI gate on exactly that.  A
transport supplies a frame of requests sent without waiting
(:meth:`Gateway.send`), a call (:meth:`Gateway.acall`, with its retries),
and the clock that ``latency_s`` and the deadlines are read on
(:attr:`Gateway.now`, :meth:`Gateway.call_later`).  While another query is
in flight, a query's aggregate ``site.query`` requests wait for the end of
the event-loop turn, and every request a site gets in that turn leaves in
one frame: one wake-up of the site instead of one per request.

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
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import QueryError
from repro.common.hashing import hash_value_hex
from repro.common.serialize import canonical_bytes
from repro.datamgmt.virtual import DatasetRef
from repro.obs.tracer import trace_span
from repro.query.compose import SiteTask, compose, decompose
from repro.query.vector import QueryVector
from repro.rpc import codec
from repro.rpc.codec import EncodedParams, Outgoing
from repro.rpc.client import (
    RETRYABLE,
    ConnectionPool,
    RetryPolicy,
    _trace_meta,
    adopt_remote_spans,
    expire,
)
from repro.rpc.errors import RpcError, ShuttingDownError, StaleCatalogError
from repro.rpc.methods import LOOP_TOOLS
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


#: What a site's call may fail with and the query still go on: an error
#: answer, a lost or refused connection, a deadline.
FAILURES = (RpcError,) + RETRYABLE


def _is_listing(data: Any) -> bool:
    return isinstance(data, dict) and "datasets" in data and "version" in data


def _describe(error: BaseException) -> str:
    if isinstance(error, RpcError):
        return f"[{error.code}] {error.message}"
    return f"[{type(error).__name__}] {error}"


class Gateway:
    """Shared fan-out/compose algorithm over an abstract per-site call."""

    transport = "abstract"
    #: A query's deadline when :meth:`aexecute` is given none (None: none).
    request_timeout_s: Optional[float] = None
    #: The failures of a site's first try that :meth:`_recover` tries again.
    retryable: Tuple[type, ...] = RETRYABLE
    #: The clock of ``latency_s`` and of every deadline (see :meth:`call_later`).
    now = staticmethod(perf_counter)

    def __init__(self) -> None:
        self._runner: Optional[EventLoopThread] = None
        self._listings: Dict[str, Dict[str, Any]] = {}  # site -> site.catalog reply
        self._queries = 0  # queries between their fan-out and their last answer
        #: site -> the requests held for the end of this loop turn, with their futures
        self._held: Dict[str, List[Tuple[Outgoing, asyncio.Future]]] = {}

    # -- transport hooks ---------------------------------------------------
    async def acall(
        self,
        site: str,
        method: str,
        params: EncodedParams = None,
        *,
        idempotent: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Any:
        """Call ``method`` at ``site``; ``params`` may be their canonical bytes.

        Here: one frame through :meth:`send`, never tried again, within
        ``timeout_s`` (or :attr:`request_timeout_s`) if one is set.
        """
        with trace_span("rpc.call", method=method, transport=self.transport) as span:
            (future,) = self.send(site, [(method, params, _trace_meta())])
            deadline = self.request_timeout_s if timeout_s is None else timeout_s
            timer = None if deadline is None else self.call_later(
                deadline, expire, [future], method, deadline
            )
            try:
                response = await future
            finally:
                if timer is not None:
                    timer.cancel()
            if response.meta:
                span.set_attr("remote_spans", adopt_remote_spans(response.meta))
            if response.error is not None:
                raise response.error
            return response.result

    def call_later(self, delay: float, callback: Any, *args: Any) -> Any:
        """Run ``callback(*args)`` ``delay`` seconds from now on :attr:`now`'s
        clock; the returned handle's ``cancel()`` calls it off."""
        return asyncio.get_running_loop().call_later(delay, callback, *args)

    def send(
        self,
        site: str,
        requests: Sequence[Outgoing],
        futures: Optional[List[asyncio.Future]] = None,
    ) -> Optional[List[asyncio.Future]]:
        """Send ``requests`` to ``site`` now, as one frame; the futures of
        their :class:`~repro.rpc.codec.Response` objects, in order
        (``futures``, if given), or None when nothing can take the frame
        without waiting (:meth:`acall` can)."""
        raise NotImplementedError

    def site_names(self) -> List[str]:
        raise NotImplementedError

    async def aclose(self) -> None:
        pass

    # -- query execution ---------------------------------------------------
    async def acatalog(self) -> List[DatasetRef]:
        """The catalog the next query is planned against.

        Sites with no listing yet — or an empty one, which no ``site.query``
        would ever get to correct — are asked first, all at once.  A site
        that cannot answer has no entries, and is asked again next time.
        """
        await self._ask_listings()
        return self._catalog()

    async def _ask_listings(self) -> Dict[str, BaseException]:
        """Ask the sites :meth:`acatalog` names for their listings; the
        sites that could not answer, with their errors."""
        unknown = [
            site
            for site in self.site_names()
            if not self._listings.get(site, {}).get("datasets")
        ]
        if not unknown:
            return {}
        replies = await asyncio.gather(
            *(self.acall(site, "site.catalog") for site in unknown),
            return_exceptions=True,
        )
        errors: Dict[str, BaseException] = {}
        for site, reply in zip(unknown, replies):
            if isinstance(reply, FAILURES):
                errors[site] = reply
            elif isinstance(reply, BaseException):
                raise reply
            else:
                self._listings[site] = reply
        return errors

    def _catalog(self) -> List[DatasetRef]:
        return [
            DatasetRef(
                site=entry["site"],
                dataset_id=entry["dataset_id"],
                record_count=entry["record_count"],
                schema=entry["schema"],
            )
            for site in self.site_names()
            if site in self._listings
            for entry in self._listings[site]["datasets"]
        ]

    async def aexecute(
        self,
        vector: QueryVector,
        timeout_s: Optional[float] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> GatewayAnswer:
        """Decompose, fan out, compose, hash.

        ``params`` go to every site with its sub-query and are merged over
        the vector's tool params there (a training round's ``global_params``
        and ``seed``).

        The fan-out is this coroutine alone: it sends every site its
        ``site.query``, arms one deadline for them all and awaits the
        responses in site order, so a query that succeeds makes no task and
        no timer per site.  A query that runs alone writes its requests at
        once; while another is in flight, its aggregates are held for the
        end of the loop turn and share their sites' frames (:meth:`_hold`).
        A site whose first try fails takes the slow path,
        :meth:`_recover`; one that still fails, or one that could not list
        its datasets to plan against, is reported in ``failed_sites``, and
        only a query no site answered raises.
        """
        vector.validate()
        started = self.now()
        # Encoded once: these bytes give the query_id and are every site's
        # params' ``vector``.
        encoded = canonical_bytes(vector)
        query_id = vector.query_id_of(encoded)
        with trace_span(
            "gateway.execute", transport=self.transport, intent=vector.intent
        ) as span:
            unlisted = await self._ask_listings()
            tasks = decompose(vector, self._catalog(), query_id=query_id)
            span.set_attr("tasks", len(tasks))
            deadline = self.request_timeout_s if timeout_s is None else timeout_s
            hold = self._queries > 0
            self._queries += 1
            futures: List[asyncio.Future] = []
            timer = None
            partials: Dict[str, Dict[str, Any]] = {}
            failed: List[Tuple[SiteTask, bytes, Optional[BaseException]]] = []
            bytes_on_wire = 0
            try:
                sent = [
                    self._send_query(task, self._site_params(task, encoded, params), hold)
                    for task in tasks
                ]
                futures = [future for _, _, future in sent if future is not None]
                if futures and deadline is not None:
                    timer = self.call_later(deadline, expire, futures, "site.query", deadline)
                for task, (request, call, future) in zip(tasks, sent):
                    # Each request's params are the down share of bytes_on_wire.
                    bytes_on_wire += len(request)
                    error: Optional[BaseException] = None  # with no future: not sent
                    if future is not None:
                        try:
                            response = await future
                        except FAILURES as exc:
                            error = exc
                        else:
                            if response.meta:
                                call.set_attr(
                                    "remote_spans",
                                    adopt_remote_spans(response.meta, call.span_id),
                                )
                            error = response.error
                        call.end()
                        if error is None:
                            partial = response.result["result"]
                            partials[task.site] = partial
                            bytes_on_wire += len(canonical_bytes(partial))
                            continue
                    failed.append((task, request, error))
            finally:
                self._queries -= 1
                if timer is not None:
                    timer.cancel()
                for future in futures:
                    future.cancel()  # given up on (a cancelled query): no answer is read
            failures = {site: _describe(error) for site, error in unlisted.items()}
            if failed:
                recovered = await asyncio.gather(
                    *(
                        self._recover(
                            vector, query_id, encoded, params, task, request, error, timeout_s
                        )
                        for task, request, error in failed
                    )
                )
                for (task, _, _), (partial, error, size) in zip(failed, recovered):
                    bytes_on_wire += size
                    if error is not None:
                        failures[task.site] = _describe(error)
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
            latency_s=self.now() - started,
            bytes_on_wire=bytes_on_wire,
            transport=self.transport,
        )

    def _site_params(
        self, task: SiteTask, encoded: bytes, params: Optional[Dict[str, Any]]
    ) -> bytes:
        """The canonical bytes of ``task``'s ``site.query`` params, with the
        vector's bytes spliced in (``vector`` sorts last)."""
        head = {
            "catalog_version": self._listings[task.site]["version"],
            "dataset_ids": list(task.dataset_ids),
            "task_id": task.task_id,
        }
        if params is not None:
            head["params"] = params
        return codec.splice(head, "vector", encoded)

    def _send_query(
        self, task: SiteTask, params: bytes, hold: bool
    ) -> Tuple[bytes, Any, Optional[asyncio.Future]]:
        """Send ``task``'s ``site.query`` (``params``: its params' bytes)
        without waiting, now or, if ``hold`` and its tool runs on the site's
        loop, at the end of this turn: ``params``, its ``rpc.call`` span and
        its response future (None: not sent, and the slow path sends it)."""
        call = trace_span("rpc.call", method="site.query", transport=self.transport)
        request = ("site.query", params, _trace_meta(call.begin().span_id))
        if hold and task.tool_id in LOOP_TOOLS:
            return params, call, self._hold(task.site, request)
        try:
            futures = self.send(task.site, [request])
        except FAILURES:  # a connection lost, a frame too large: the slow path reports it
            futures = None
        return params, call, None if futures is None else futures[0]

    def _hold(self, site: str, request: Outgoing) -> asyncio.Future:
        """Hold ``request`` for the end of this loop turn, when
        :meth:`_flush` sends it in one frame with every other request held
        for ``site``; the future its response resolves.

        Only a request whose tool runs on the site's loop is held: the site
        answers a frame once every request in it is, and a model fit must
        not hold an aggregate's answer back.
        """
        loop = asyncio.get_running_loop()
        if not self._held:
            loop.call_soon(self._flush)
        future = loop.create_future()
        self._held.setdefault(site, []).append((request, future))
        return future

    def _flush(self) -> None:
        """Send each site the requests held for it, as one frame.  A frame
        that cannot be written fails its futures, and the slow path tries
        each request again."""
        held, self._held = self._held, {}
        for site, entries in held.items():
            entries = [entry for entry in entries if not entry[1].done()]  # given up on
            if not entries:
                continue
            futures = [future for _, future in entries]
            try:
                if self.send(site, [request for request, _ in entries], futures) is not None:
                    continue
                error: BaseException = ConnectionError(f"no live connection to {site}")
            except FAILURES as exc:
                error = exc
            for future in futures:
                future.set_exception(error)

    async def _recover(
        self,
        vector: QueryVector,
        query_id: str,
        encoded: bytes,
        params: Optional[Dict[str, Any]],
        task: SiteTask,
        sent: bytes,
        error: Optional[BaseException],
        timeout_s: Optional[float],
    ) -> Tuple[Optional[Dict[str, Any]], Optional[BaseException], int]:
        """The slow path of a site whose first try (params ``sent``) failed
        with ``error`` (None: it was not sent): (partial, error, bytes on
        the wire beyond the first request's params).

        A failure a fresh connection may get past (:attr:`retryable`) is
        tried again through :meth:`acall`, with its retries.  A site that
        refuses the plan as stale sends its fresh listing along: plan again
        over it and ask that site once more.  A second refusal is that site's failure for this
        query, as is any other error.
        """
        size = 0
        if error is None or isinstance(error, self.retryable):
            partial, error, size = await self._query_site(task.site, sent, timeout_s)
            if error is None:
                return partial, None, size
        if not isinstance(error, StaleCatalogError):
            return None, error, size
        if _is_listing(error.data):
            self._listings[task.site] = error.data
        replanned = next(
            (
                t
                for t in decompose(vector, self._catalog(), query_id=query_id)
                if t.site == task.site
            ),
            None,
        )
        if replanned is None:  # the site hosts nothing any more
            return None, None, size
        sent = self._site_params(replanned, encoded, params)
        partial, error, up = await self._query_site(task.site, sent, timeout_s)
        return partial, error, size + len(sent) + up

    async def _query_site(
        self, site: str, params: bytes, timeout_s: Optional[float]
    ) -> Tuple[Optional[Dict[str, Any]], Optional[BaseException], int]:
        """One ``site.query`` through :meth:`acall`: (partial, error, bytes of
        the partial)."""
        try:
            outcome = await self.acall(
                site, "site.query", params, idempotent=True, timeout_s=timeout_s
            )
        except FAILURES as exc:
            return None, exc, 0
        partial = outcome["result"]
        return partial, None, len(canonical_bytes(partial))

    # -- sync facade -------------------------------------------------------
    def _run(self, coro: Any) -> Any:
        """Run ``coro`` to its end from sync code, on this gateway's loop thread."""
        if self._runner is None:
            self._runner = EventLoopThread(name=f"repro-rpc-{self.transport}")
        return self._runner.run(coro)

    def call(
        self,
        site: str,
        method: str,
        params: EncodedParams = None,
        *,
        idempotent: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Any:
        return self._run(
            self.acall(site, method, params, idempotent=idempotent, timeout_s=timeout_s)
        )

    def execute(
        self,
        vector: QueryVector,
        timeout_s: Optional[float] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> GatewayAnswer:
        return self._run(self.aexecute(vector, timeout_s, params))

    def catalog(self) -> List[DatasetRef]:
        return self._run(self.acatalog())

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
        self._tasks: Set[asyncio.Task] = set()  # frames being served

    def site_names(self) -> List[str]:
        return sorted(self.servers)

    def send(
        self,
        site: str,
        requests: Sequence[Outgoing],
        futures: Optional[List[asyncio.Future]] = None,
    ) -> List[asyncio.Future]:
        """The frame served by the site's dispatch path, on one task that
        resolves the futures returned (unless a deadline failed them)."""
        server = self.servers.get(site)
        if server is None:
            raise QueryError(f"gateway knows no site {site!r}")
        payload = codec.requests_payload(requests, range(1, len(requests) + 1))
        if futures is None:
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in requests]
        task = asyncio.ensure_future(self._dispatch(server, payload, futures))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return futures

    @staticmethod
    async def _dispatch(server: RpcServer, payload: bytes, futures: List[asyncio.Future]) -> None:
        try:
            decoded = codec.decode_payload(await server.dispatch_raw(payload))
            outcomes: List[Any] = [
                codec.parse_response(item)
                for item in (decoded if isinstance(decoded, list) else [decoded])
            ]
        except Exception as exc:  # noqa: BLE001 - every request of the frame fails with it
            outcomes = [exc] * len(futures)
        except BaseException:  # a handler cancelled: the server is closing
            for future in futures:
                if not future.done():
                    future.set_exception(ShuttingDownError(f"{server.name} closed mid-request"))
            raise
        for future, outcome in zip(futures, outcomes):
            if future.done():
                continue  # an answer nobody waits for any more
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

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
        self.request_timeout_s = request_timeout_s
        self.pools: Dict[str, ConnectionPool] = {
            site: ConnectionPool(
                host,
                port,
                max_connections=max_connections_per_site,
                connect_timeout_s=connect_timeout_s,
                request_timeout_s=request_timeout_s,
                retry=retry,
                mark_down=True,  # a dead site fails each query at once
            )
            for site, (host, port) in self.addresses.items()
        }

    def site_names(self) -> List[str]:
        return sorted(self.pools)

    def _pool(self, site: str) -> ConnectionPool:
        pool = self.pools.get(site)
        if pool is None:
            raise QueryError(f"gateway knows no site {site!r}")
        return pool

    def send(
        self,
        site: str,
        requests: Sequence[Outgoing],
        futures: Optional[List[asyncio.Future]] = None,
    ) -> Optional[List[asyncio.Future]]:
        """The frame written on a live pooled connection; None while the
        pool has none to hand out without dialling."""
        client = self._pool(site).live()
        return None if client is None else client.send(requests, futures)

    async def acall(
        self,
        site: str,
        method: str,
        params: EncodedParams = None,
        *,
        idempotent: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Any:
        return await self._pool(site).call(
            method, params, timeout_s=timeout_s, idempotent=idempotent
        )

    async def aclose(self) -> None:
        for pool in self.pools.values():
            await pool.close()
