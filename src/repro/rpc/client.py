"""RPC client: pipelined connections, a pool, timeouts, and retries.

One :class:`RpcClient` multiplexes many concurrent calls over a single
framed TCP connection — requests carry monotonically increasing ids, a
background reader task resolves each response future as its frame arrives,
so callers pipeline without waiting for each other (the wire analogue of
the paper's parallel dispatch).  :class:`ConnectionPool` keeps a small set
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
from repro.rpc.codec import Request, Response
from repro.rpc.errors import (
    OverloadedError,
    RpcError,
    RpcTimeoutError,
    ShuttingDownError,
)
from repro.rpc.framing import DEFAULT_MAX_FRAME_BYTES, read_frame, write_frame


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for idempotent calls."""

    attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 1.0

    def delay(self, attempt: int) -> float:
        return min(self.max_delay_s, self.base_delay_s * self.multiplier**attempt)


def _trace_meta() -> Optional[Dict[str, Any]]:
    """Request meta asking the server to collect and return its spans."""
    if current_tracer() is None:
        return None
    meta: Dict[str, Any] = {"trace": {"collect": True}}
    parent = current_span_id()
    if parent is not None:
        meta["trace"]["parent"] = parent
    return meta


def adopt_remote_spans(meta: Dict[str, Any]) -> int:
    """Re-parent server-side spans from a response meta under the caller.

    Returns the number of spans adopted (0 when tracing is off or the
    response carried none).
    """
    tracer = current_tracer()
    span_dicts = (meta or {}).get("spans")
    if tracer is None or not span_dicts:
        return 0
    spans = [Span.from_dict(item) for item in span_dicts]
    tracer.adopt(spans, parent_id=current_span_id())
    return len(spans)


class RpcClient:
    """One pipelined connection to an RPC server."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        self._reader = reader
        self._writer = writer
        self.max_frame_bytes = max_frame_bytes
        self._ids = itertools.count(1)
        self._pending: Dict[Any, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._read_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        connect_timeout_s: float = 5.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "RpcClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), connect_timeout_s
        )
        return cls(reader, writer, max_frame_bytes=max_frame_bytes)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- calls -------------------------------------------------------------
    async def call(
        self,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        timeout_s: Optional[float] = 30.0,
    ) -> Any:
        """One request/response; raises the typed :class:`RpcError` on error."""
        with trace_span("rpc.call", method=method, transport="tcp") as span:
            response = await self._roundtrip(method, params, timeout_s)
            if response.meta:
                adopted = adopt_remote_spans(response.meta)
                span.set_attr("remote_spans", adopted)
            if response.error is not None:
                raise response.error
            return response.result

    async def _roundtrip(
        self,
        method: str,
        params: Optional[Dict[str, Any]],
        timeout_s: Optional[float],
    ) -> Response:
        request = Request(
            method=method,
            params=params,
            request_id=next(self._ids),
            meta=_trace_meta(),
        )
        future = self._register(request.request_id)
        await self._send(request.to_wire())
        try:
            return await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            self._pending.pop(request.request_id, None)
            raise RpcTimeoutError(
                f"no response to {method!r} within {timeout_s}s",
                data={"timeout_s": timeout_s},
            ) from None

    async def call_batch(
        self,
        calls: Sequence[Tuple[str, Optional[Dict[str, Any]]]],
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
        requests = [
            Request(method=method, params=params, request_id=next(self._ids), meta=meta)
            for method, params in calls
        ]
        futures = [self._register(request.request_id) for request in requests]
        await self._send([request.to_wire() for request in requests])
        try:
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout_s
            )
        except asyncio.TimeoutError:
            for request in requests:
                self._pending.pop(request.request_id, None)
            raise RpcTimeoutError(
                f"no batch response within {timeout_s}s",
                data={"timeout_s": timeout_s},
            ) from None
        results: List[Any] = []
        for response in responses:
            if response.meta:
                adopt_remote_spans(response.meta)
            results.append(response.error if response.error is not None else response.result)
        return results

    async def notify(self, method: str, params: Optional[Dict[str, Any]] = None) -> None:
        """Fire-and-forget notification (no id, no response)."""
        await self.send_frame(codec.notification_frame(method, params))

    async def send_frame(self, data: bytes) -> None:
        """Write one frame of payload bytes already encoded (by
        :mod:`repro.rpc.codec`); several connections may send the same bytes."""
        if self._closed:
            raise ConnectionError("client is closed")
        async with self._write_lock:
            await write_frame(self._writer, data, self.max_frame_bytes)

    # -- plumbing ----------------------------------------------------------
    def _register(self, request_id: Any) -> asyncio.Future:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        return future

    async def _send(self, payload: Any) -> None:
        await self.send_frame(codec.encode_payload(payload))

    async def _read_loop(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                frame = await read_frame(self._reader, self.max_frame_bytes)
                if frame is None:
                    break
                payload = codec.decode_payload(frame)
                items = payload if isinstance(payload, list) else [payload]
                for item in items:
                    response = codec.parse_response(item)
                    future = self._pending.pop(response.request_id, None)
                    if future is not None and not future.done():
                        future.set_result(response)
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        except BaseException as exc:
            error = exc
        finally:
            self._closed = True
            failure = error or ConnectionError("connection closed by server")
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(failure)
            self._pending.clear()

    async def close(self) -> None:
        """Close the socket and stop the reader task (idempotent)."""
        self._closed = True
        self._read_task.cancel()
        try:
            await self._read_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass


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
    ):
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.retry = retry or RetryPolicy()
        self.max_frame_bytes = max_frame_bytes
        self._clients: List[RpcClient] = []
        self._next = 0
        self._lock: Optional[asyncio.Lock] = None

    def _get_lock(self) -> asyncio.Lock:
        # Created lazily so the pool can be built outside a running loop.
        if self._lock is None:
            self._lock = asyncio.Lock()
        return self._lock

    async def _acquire(self) -> RpcClient:
        async with self._get_lock():
            for client in [c for c in self._clients if c.closed]:
                self._clients.remove(client)
                await client.close()  # a dead reader still holds its socket
            if len(self._clients) < self.max_connections:
                client = await RpcClient.connect(
                    self.host,
                    self.port,
                    connect_timeout_s=self.connect_timeout_s,
                    max_frame_bytes=self.max_frame_bytes,
                )
                self._clients.append(client)
                return client
            # Round-robin over healthy connections (all are pipelined).
            self._next = (self._next + 1) % len(self._clients)
            return self._clients[self._next]

    async def call(
        self,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        timeout_s: Optional[float] = None,
        idempotent: bool = False,
    ) -> Any:
        """Call with automatic retry (idempotent methods only).

        Retries cover connection failures, connect/request timeouts, and
        explicit overload/shutdown rejections — the cases where backing off
        and trying a fresh connection can succeed.  Application errors
        (method not found, invalid params, domain failures) never retry.
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
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last_error = exc
            except (OverloadedError, ShuttingDownError, RpcTimeoutError) as exc:
                last_error = exc
            except RpcError:
                raise
        assert last_error is not None
        raise last_error

    async def send_frame(self, data: bytes) -> None:
        """One pre-encoded notification frame on a pooled connection: no
        reply, so no retry."""
        client = await self._acquire()
        await client.send_frame(data)

    async def call_batch(
        self,
        calls: Sequence[Tuple[str, Optional[Dict[str, Any]]]],
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
