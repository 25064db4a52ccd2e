"""RPC client: pipelined connections, a pool, timeouts, and retries.

One :class:`RpcClient` multiplexes many concurrent calls over a single
framed TCP connection — requests carry monotonically increasing ids, and
the connection is an :class:`asyncio.Protocol` that resolves each response
future in the callback that read its frame, so callers pipeline without
waiting for each other (the wire analogue of the paper's parallel
dispatch).  :meth:`RpcClient.send` writes one frame of requests and
returns their response futures, so a caller may have many in flight from
one coroutine; a call is that write, one future and one deadline timer: no
task, lock or drain.  :class:`ConnectionPool` keeps a small set
of connections per server, reconnects lazily, and retries *idempotent*
calls with exponential backoff after connection failures or overload
rejections — never non-idempotent ones, which could double-apply.

Trace propagation: when tracing is enabled, every call opens an
``rpc.call`` span, ships its span id in the request ``meta``, and adopts
the server-side spans returned in the response ``meta`` under that span —
so one trace tree covers both sides of the wire.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import Span, current_span_id, current_tracer, trace_span
from repro.rpc import codec
from repro.rpc.codec import EncodedParams, Outgoing, Response
from repro.rpc.errors import (
    OverloadedError,
    RpcTimeoutError,
    ShuttingDownError,
)
from repro.rpc.framing import DEFAULT_MAX_FRAME_BYTES, FrameDecoder, encode_frame


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for idempotent calls."""

    attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 1.0

    def delay(self, attempt: int) -> float:
        return min(self.max_delay_s, self.base_delay_s * self.multiplier**attempt)


#: Failures that backing off and trying a fresh connection can get past.
RETRYABLE = (
    ConnectionError,
    OSError,
    asyncio.TimeoutError,
    OverloadedError,
    ShuttingDownError,
    RpcTimeoutError,
)


def _trace_meta(parent: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """Request meta asking the server to collect and return its spans, to be
    adopted under ``parent`` (the context's active span by default)."""
    if current_tracer() is None:
        return None
    meta: Dict[str, Any] = {"trace": {"collect": True}}
    parent = parent or current_span_id()
    if parent is not None:
        meta["trace"]["parent"] = parent
    return meta


def adopt_remote_spans(meta: Dict[str, Any], parent: Optional[str] = None) -> int:
    """Re-parent server-side spans from a response meta under ``parent``
    (the context's active span by default).

    Returns the number of spans adopted (0 when tracing is off or the
    response carried none).
    """
    tracer = current_tracer()
    span_dicts = (meta or {}).get("spans")
    if tracer is None or not span_dicts:
        return 0
    spans = [Span.from_dict(item) for item in span_dicts]
    tracer.adopt(spans, parent_id=parent or current_span_id())
    return len(spans)


class RpcClient(asyncio.Protocol):
    """One pipelined connection to an RPC server."""

    def __init__(self, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._decoder = FrameDecoder(max_frame_bytes)
        self._ids = itertools.count(1)
        self._pending: Dict[Any, asyncio.Future] = {}
        self._transport: Optional[asyncio.Transport] = None
        self._closed = False
        self._paused = False
        self._writers: List[asyncio.Future] = []  # senders waiting out a pause
        self._loop = asyncio.get_running_loop()
        self._lost = self._loop.create_future()

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        connect_timeout_s: float = 5.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "RpcClient":
        _, client = await asyncio.wait_for(
            asyncio.get_running_loop().create_connection(
                lambda: cls(max_frame_bytes=max_frame_bytes), host, port
            ),
            connect_timeout_s,
        )
        return client

    @property
    def closed(self) -> bool:
        return self._closed

    # -- calls -------------------------------------------------------------
    def send(
        self,
        requests: Sequence[Outgoing],
        futures: Optional[List[asyncio.Future]] = None,
    ) -> List[asyncio.Future]:
        """Write ``requests`` now, as one frame (a lone request bare, several
        as a JSON-RPC batch); the futures of their :class:`Response` objects,
        in order: ``futures``, if given, else new ones.

        Not a coroutine: a caller may write to many connections before it
        waits for any.  No deadline is armed; a lost connection fails the
        futures.  One the caller gives up on keeps its id until the late
        response, or the connection's end, clears it.  Params may be given
        as their canonical bytes, already encoded.
        """
        ids = [next(self._ids) for _ in requests]
        self._write(codec.requests_payload(requests, ids))
        if futures is None:
            futures = [self._loop.create_future() for _ in ids]
        self._pending.update(zip(ids, futures))
        return futures

    async def call(
        self,
        method: str,
        params: EncodedParams = None,
        *,
        timeout_s: Optional[float] = 30.0,
    ) -> Any:
        """One request/response; raises the typed :class:`RpcError` on error.

        ``params`` may be given as their canonical bytes, already encoded.
        """
        with trace_span("rpc.call", method=method, transport="tcp") as span:
            futures = self.send([(method, params, _trace_meta())])
            (response,) = await self._settle(futures, timeout_s, method)
            if response.meta:
                adopted = adopt_remote_spans(response.meta)
                span.set_attr("remote_spans", adopted)
            if response.error is not None:
                raise response.error
            return response.result

    async def call_batch(
        self,
        calls: Sequence[Tuple[str, EncodedParams]],
        *,
        timeout_s: Optional[float] = 30.0,
    ) -> List[Any]:
        """One wire frame carrying many requests; results in call order.

        Failed entries come back as :class:`RpcError` instances (not
        raised), so one bad call cannot discard its siblings' results.
        """
        if not calls:
            return []
        meta = _trace_meta()
        futures = self.send([(method, params, meta) for method, params in calls])
        responses = await self._settle(futures, timeout_s, None)
        results: List[Any] = []
        for response in responses:
            if response.meta:
                adopt_remote_spans(response.meta)
            results.append(response.error if response.error is not None else response.result)
        return results

    async def notify(self, method: str, params: EncodedParams = None) -> None:
        """Fire-and-forget notification (no id, no response)."""
        await self.send_frame(codec.notification_frame(method, params))

    async def send_frame(self, data: bytes) -> None:
        """Write one frame of payload bytes already encoded (by
        :mod:`repro.rpc.codec`); several connections may send the same bytes."""
        self._write(data)
        if self._paused:
            await self._writable()
            if self._closed:
                raise ConnectionError("connection lost before the frame was sent")

    async def close(self) -> None:
        """Fail the calls still waiting and close the socket (idempotent)."""
        self._hang_up(ConnectionError("client closed"))
        if self._transport is not None:
            self._transport.close()
            await self._lost

    # -- plumbing ----------------------------------------------------------
    def _write(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionError("client is closed")
        self._transport.write(encode_frame(data, self.max_frame_bytes))

    async def _settle(
        self, futures: List[asyncio.Future], timeout_s: Optional[float], method: Optional[str]
    ) -> List[Response]:
        """The responses ``futures`` (written by :meth:`send`) resolve, in
        order, under one deadline timer: armed once the frame has left the
        write buffer, cancelled when they are in (``method`` None: a batch)."""
        timer = None
        try:
            if self._paused:
                await self._writable()  # a lost connection has failed the futures
            if timeout_s is not None:
                timer = self._loop.call_later(timeout_s, expire, futures, method, timeout_s)
            if len(futures) == 1:
                return [await futures[0]]
            return await asyncio.gather(*futures)
        except BaseException:
            self._forget(futures)
            raise
        finally:
            if timer is not None:
                timer.cancel()

    def _forget(self, futures: List[asyncio.Future]) -> None:
        """Drop the ids of calls given up on (a deadline, a cancellation)."""
        for request_id in [i for i, future in self._pending.items() if future in futures]:
            del self._pending[request_id]

    async def _writable(self) -> None:
        """Wait until the transport resumes writing (or the connection is lost)."""
        waiter = asyncio.get_running_loop().create_future()
        self._writers.append(waiter)
        await waiter

    def _wake_writers(self) -> None:
        writers, self._writers = self._writers, []
        for waiter in writers:
            if not waiter.done():
                waiter.set_result(None)

    def _hang_up(self, error: BaseException) -> None:
        """Refuse further calls and fail every call still waiting with ``error``."""
        self._closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    # -- asyncio.Protocol --------------------------------------------------
    def connection_made(self, transport: Any) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        """Resolve each call whose response this read completed."""
        try:
            for frame in self._decoder.feed(data):
                payload = codec.decode_payload(frame)
                for item in payload if isinstance(payload, list) else (payload,):
                    response = codec.parse_response(item)
                    future = self._pending.pop(response.request_id, None)
                    if future is not None and not future.done():
                        future.set_result(response)
        except Exception as exc:  # an oversized frame, bad JSON, no response
            self._hang_up(exc)
            self._transport.abort()

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._wake_writers()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if exc is None:
            exc = ConnectionError(
                "connection closed by server"
                if self._decoder.at_boundary()
                else "connection closed mid-frame"
            )
        self._hang_up(exc)
        self._paused = False
        self._wake_writers()
        self._lost.set_result(None)


def expire(futures: Sequence[asyncio.Future], method: Optional[str], timeout_s: float) -> None:
    """A deadline passed: fail whichever of ``futures`` still waits (the
    responses to ``method``, or to a batch if it is None)."""
    what = "batch response" if method is None else f"response to {method!r}"
    error = RpcTimeoutError(f"no {what} within {timeout_s}s", data={"timeout_s": timeout_s})
    for future in futures:
        if not future.done():
            future.set_exception(error)


class ConnectionPool:
    """A bounded pool of pipelined connections to one server address."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_connections: int = 4,
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        mark_down: bool = False,
    ):
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.retry = retry or RetryPolicy()
        self.max_frame_bytes = max_frame_bytes
        #: Whether a failed dial fails, for ``retry.max_delay_s``, every call
        #: that would dial again (a gateway's sites), rather than none (a
        #: p2p peer, which may still be booting).
        self.mark_down = mark_down
        self._clients: List[RpcClient] = []
        self._next = 0
        self._lock: Optional[asyncio.Lock] = None
        #: Loop time until which a server that failed a dial is not dialled again.
        self._down_until = 0.0

    def _get_lock(self) -> asyncio.Lock:
        # Created lazily so the pool can be built outside a running loop.
        if self._lock is None:
            self._lock = asyncio.Lock()
        return self._lock

    def live(self) -> Optional[RpcClient]:
        """The next connection, round-robin, once the pool is full (all are
        pipelined), if it is live; else None, and :meth:`call` dials."""
        clients = self._clients
        if len(clients) == self.max_connections:
            self._next = (self._next + 1) % len(clients)
            client = clients[self._next]
            if not client.closed:
                return client
        return None

    def _down(self) -> bool:
        """Whether a dial failed less than ``retry.max_delay_s`` ago (``mark_down``)."""
        return asyncio.get_running_loop().time() < self._down_until

    async def _acquire(self) -> RpcClient:
        """A live connection: :meth:`live`'s, or one dialled to fill the pool
        or replace a dead one, the only case that takes the lock.

        With ``mark_down``, a dial that fails (refused, unreachable, timed
        out) marks the server down for ``retry.max_delay_s``: until then, a
        call that would dial fails at once instead.
        """
        client = self.live()
        if client is not None:
            return client
        async with self._get_lock():
            for client in [c for c in self._clients if c.closed]:
                self._clients.remove(client)
                await client.close()  # a dead connection may still hold its socket
            if len(self._clients) < self.max_connections:
                if self._down():
                    raise ConnectionError(
                        f"{self.host}:{self.port} is down: a dial failed within the "
                        f"last {self.retry.max_delay_s}s"
                    )
                try:
                    client = await RpcClient.connect(
                        self.host,
                        self.port,
                        connect_timeout_s=self.connect_timeout_s,
                        max_frame_bytes=self.max_frame_bytes,
                    )
                except (OSError, asyncio.TimeoutError):
                    if self.mark_down:
                        self._down_until = (
                            asyncio.get_running_loop().time() + self.retry.max_delay_s
                        )
                    raise
                self._clients.append(client)
                return client
            self._next = (self._next + 1) % len(self._clients)
            return self._clients[self._next]

    async def call(
        self,
        method: str,
        params: EncodedParams = None,
        *,
        timeout_s: Optional[float] = None,
        idempotent: bool = False,
    ) -> Any:
        """Call with automatic retry (idempotent methods only).

        Retries cover connection failures, connect/request timeouts, and
        explicit overload/shutdown rejections — the cases where backing off
        and trying a fresh connection can succeed.  Application errors
        (method not found, invalid params, domain failures) never retry, and
        neither does a call to a server marked down (``mark_down``).
        """
        timeout = self.request_timeout_s if timeout_s is None else timeout_s
        attempts = self.retry.attempts if idempotent else 1
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                await asyncio.sleep(self.retry.delay(attempt - 1))
            try:
                client = await self._acquire()
                return await client.call(method, params, timeout_s=timeout)
            except RETRYABLE as exc:
                last_error = exc
                if self._down():
                    break
        assert last_error is not None
        raise last_error

    async def send_frame(self, data: bytes) -> None:
        """One pre-encoded notification frame on a pooled connection: no
        reply, so no retry."""
        client = await self._acquire()
        await client.send_frame(data)

    async def call_batch(
        self,
        calls: Sequence[Tuple[str, EncodedParams]],
        *,
        timeout_s: Optional[float] = None,
    ) -> List[Any]:
        client = await self._acquire()
        timeout = self.request_timeout_s if timeout_s is None else timeout_s
        return await client.call_batch(calls, timeout_s=timeout)

    async def close(self) -> None:
        """Close every pooled connection (idle or not)."""
        clients, self._clients = self._clients, []
        for client in clients:
            await client.close()
