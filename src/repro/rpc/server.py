"""Asyncio JSON-RPC server with bounded concurrency and graceful drain.

One :class:`RpcServer` serves a :class:`MethodRegistry` over the framed TCP
transport.  Three serving disciplines distinguish it from a toy dispatcher:

- **Explicit backpressure, never unbounded queueing.**  At most
  ``max_inflight`` requests execute at once; a request arriving beyond that
  is *rejected immediately* with the ``OVERLOADED`` (-32001) error rather
  than parked on an invisible queue.  Callers see load and back off; memory
  stays bounded under any traffic.
- **Per-method timeouts.**  Every method has a deadline (its own or the
  server default); an expired handler answers ``TIMEOUT`` (-32002) so one
  stuck analytic cannot pin a connection forever.
- **Graceful, leak-free shutdown.**  ``close()`` stops accepting, lets
  in-flight requests drain up to ``drain_timeout_s``, cancels stragglers,
  and closes every connection — tests assert no lingering tasks or sockets.

Sync handlers run via ``asyncio.to_thread`` so a CPU-heavy tool run does
not stall the event loop; contextvars (ambient metrics, tracer overrides)
propagate into the worker thread.  When the request envelope carries trace
metadata, the handler executes inside an isolated span collector and the
response ships those spans back for client-side re-parenting.
"""

from __future__ import annotations

import asyncio
import inspect
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.tracer import collect_spans, trace_span
from repro.rpc import codec
from repro.rpc.codec import Request, Response
from repro.rpc.errors import (
    InvalidParamsError,
    MethodNotFoundError,
    OverloadedError,
    ParseError,
    RpcError,
    RpcTimeoutError,
    ShuttingDownError,
    to_rpc_error,
)
from repro.rpc.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameTooLargeError,
    read_frame,
    write_frame,
)
from repro.sim.metrics import MetricsRegistry

Handler = Callable[..., Any]


@dataclass
class MethodSpec:
    """One registered method and its serving policy."""

    name: str
    handler: Handler
    timeout_s: Optional[float] = None
    #: Safe to retry on a fresh connection after an ambiguous failure.
    idempotent: bool = False


class MethodRegistry:
    """Name -> handler registry; handlers take one params dict."""

    def __init__(self) -> None:
        self._methods: Dict[str, MethodSpec] = {}

    def register(
        self,
        name: str,
        handler: Handler,
        *,
        timeout_s: Optional[float] = None,
        idempotent: bool = False,
    ) -> None:
        if not name:
            raise ValueError("method name must be non-empty")
        if name in self._methods:
            raise ValueError(f"method {name!r} already registered")
        self._methods[name] = MethodSpec(
            name=name, handler=handler, timeout_s=timeout_s, idempotent=idempotent
        )

    def get(self, name: str) -> MethodSpec:
        spec = self._methods.get(name)
        if spec is None:
            raise MethodNotFoundError(f"unknown method {name!r}")
        return spec

    def names(self) -> List[str]:
        return sorted(self._methods)


def _encode_responses(responses: List[Response]) -> bytes:
    """One frame payload: a lone response to a lone request goes out bare,
    the responses to a batch as an array (even when there is only one)."""
    if len(responses) == 1 and not getattr(responses[0], "_from_batch", False):
        return codec.encode_payload(responses[0].to_wire())
    return codec.encode_payload([response.to_wire() for response in responses])


class RpcServer:
    """Serves a method registry over framed JSON-RPC."""

    def __init__(
        self,
        registry: MethodRegistry,
        *,
        name: str = "rpc",
        max_inflight: int = 64,
        default_timeout_s: float = 30.0,
        drain_timeout_s: float = 5.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.registry = registry
        self.name = name
        self.max_inflight = max_inflight
        self.default_timeout_s = default_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self.max_frame_bytes = max_frame_bytes
        self.metrics = metrics or MetricsRegistry()
        self._server: Optional[asyncio.base_events.Server] = None
        self._inflight = 0
        self._closing = False
        self._conn_tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle ---------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and accept; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(self._on_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, drain, then hard-close."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let in-flight requests finish inside the drain budget.
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=self.drain_timeout_s)
        except asyncio.TimeoutError:
            pass
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        for writer in list(self._writers):
            try:
                await writer.wait_closed()
            except Exception:
                pass
        self._writers.clear()
        self._server = None

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def connection_count(self) -> int:
        return len(self._writers)

    # -- connection handling ----------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        request_tasks: Set[asyncio.Task] = set()
        try:
            while not self._closing:
                try:
                    frame = await read_frame(reader, self.max_frame_bytes)
                except FrameTooLargeError as exc:
                    await self._send(writer, write_lock, [codec.error_response(None, exc)])
                    break
                except (ConnectionError, OSError):
                    break
                if frame is None:
                    break
                # Pipelining: each inbound frame dispatches concurrently so
                # a slow method does not head-of-line-block the connection.
                request_task = asyncio.create_task(
                    self._serve_frame(frame, writer, write_lock)
                )
                request_tasks.add(request_task)
                request_task.add_done_callback(request_tasks.discard)
        except asyncio.CancelledError:
            pass
        finally:
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, Exception):
                pass  # tearing down regardless; nothing left to cancel

    async def _serve_frame(
        self,
        frame: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        responses = await self.dispatch_frame(frame)
        if responses:
            await self._send(writer, write_lock, responses)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        responses: List[Response],
    ) -> None:
        data = _encode_responses(responses)
        try:
            async with write_lock:
                await write_frame(writer, data, self.max_frame_bytes)
        except (ConnectionError, OSError):
            pass

    # -- dispatch (shared by TCP and in-process transports) ----------------
    async def dispatch_raw(self, data: bytes) -> Optional[bytes]:
        """Decode one frame payload, dispatch, encode the response payload.

        This is the entire server minus the socket: the in-process transport
        calls it directly, so both transports share one code path and one
        serialization behaviour.  Returns ``None`` when every request in the
        frame was a notification.
        """
        responses = await self.dispatch_frame(data)
        if not responses:
            return None
        return _encode_responses(responses)

    async def dispatch_frame(self, data: bytes) -> List[Response]:
        try:
            payload = codec.decode_payload(data)
        except ParseError as exc:
            return [codec.error_response(None, exc)]
        try:
            requests, was_batch = codec.parse_batch(payload)
        except RpcError as exc:
            return [codec.error_response(None, exc)]
        results = await asyncio.gather(
            *(self._dispatch_object(obj) for obj in requests)
        )
        responses = [response for response in results if response is not None]
        if was_batch:
            for response in responses:
                response._from_batch = True  # type: ignore[attr-defined]
        return responses

    async def _dispatch_object(self, obj: Any) -> Optional[Response]:
        try:
            request = codec.parse_request(obj)
        except RpcError as exc:
            request_id = obj.get("id") if isinstance(obj, dict) else None
            return codec.error_response(request_id, exc)
        response = await self._dispatch_request(request)
        if request.is_notification:
            return None
        return response

    async def _dispatch_request(self, request: Request) -> Response:
        request_id = None if request.is_notification else request.request_id
        if self._closing:
            self._count_error(request.method, "shutting_down")
            return codec.error_response(request_id, ShuttingDownError())
        if self._inflight >= self.max_inflight:
            # Backpressure: reject now, queue never.
            self._count_error(request.method, "overloaded")
            return codec.error_response(
                request_id,
                OverloadedError(data={"inflight": self._inflight,
                                      "limit": self.max_inflight}),
            )
        self._inflight += 1
        self._idle.clear()
        started = perf_counter()
        try:
            return await self._run_handler(request, request_id)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
            elapsed = perf_counter() - started
            self.metrics.add(f"rpc_calls[{request.method}]", 1, scope=self.name)
            self.metrics.add(
                f"rpc_latency_s[{request.method}]", elapsed, scope=self.name
            )

    async def _run_handler(self, request: Request, request_id: Any) -> Response:
        try:
            spec = self.registry.get(request.method)
        except MethodNotFoundError as exc:
            self._count_error(request.method, "method_not_found")
            return codec.error_response(request_id, exc)
        params = request.params
        if params is None:
            params = {}
        if not isinstance(params, dict):
            self._count_error(request.method, "invalid_params")
            return codec.error_response(
                request_id,
                InvalidParamsError("this server takes named params (object)"),
            )
        trace_meta = (request.meta or {}).get("trace")
        timeout_s = spec.timeout_s or self.default_timeout_s
        try:
            if trace_meta:
                with collect_spans() as collector:
                    # The serve span is the root the client re-parents under;
                    # any spans the handler opens nest inside it.
                    with trace_span(
                        "rpc.serve", method=request.method, server=self.name
                    ):
                        result = await asyncio.wait_for(
                            self._invoke(spec.handler, params), timeout_s
                        )
                meta = {"spans": collector.export()} if collector.spans else {}
                return Response(request_id=request_id, result=result, meta=meta)
            result = await asyncio.wait_for(
                self._invoke(spec.handler, params), timeout_s
            )
            return Response(request_id=request_id, result=result)
        except asyncio.TimeoutError:
            self._count_error(request.method, "timeout")
            return codec.error_response(
                request_id,
                RpcTimeoutError(
                    f"method {request.method!r} exceeded {timeout_s}s",
                    data={"timeout_s": timeout_s},
                ),
            )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            error = to_rpc_error(exc)
            self._count_error(request.method, f"code_{error.code}")
            return codec.error_response(request_id, error)

    async def _invoke(self, handler: Handler, params: Dict[str, Any]) -> Any:
        if inspect.iscoroutinefunction(handler):
            return await handler(**params)
        result = await asyncio.to_thread(handler, **params)
        if inspect.isawaitable(result):
            return await result  # handler returned a coroutine from a thread
        return result

    def _count_error(self, method: str, kind: str) -> None:
        self.metrics.add(f"rpc_errors[{method}:{kind}]", 1, scope=self.name)
