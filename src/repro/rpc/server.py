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

A request is served in the callback that read its frame; only a handler
that suspends continues on a task.  Sync handlers run via
``asyncio.to_thread`` so a CPU-heavy tool run does not stall the event loop;
contextvars (tracer overrides) propagate into the worker thread.  When the
request envelope carries trace metadata, the handler executes inside an
isolated span collector and the response ships those spans back for
client-side re-parenting.
"""

from __future__ import annotations

import asyncio
import contextvars
import inspect
import types
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Coroutine, Dict, List, Optional, Set, Tuple, Union

from repro.obs.tracer import collect_spans, trace_span
from repro.rpc import codec
from repro.rpc.codec import Request, Response
from repro.rpc.errors import (
    InvalidParamsError,
    MethodNotFoundError,
    OverloadedError,
    RpcError,
    RpcTimeoutError,
    ShuttingDownError,
    to_rpc_error,
)
from repro.rpc.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    FrameTooLargeError,
    encode_frame,
)
from repro.sim.metrics import MetricsRegistry

Handler = Callable[..., Any]
Outcome = Union[Response, None, "asyncio.Task[Optional[Response]]"]


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


def _misfit(spec: MethodSpec, params: Dict[str, Any]) -> Optional[InvalidParamsError]:
    """INVALID_PARAMS naming the method, if ``params`` do not fit its
    handler's signature.  Asked only once a call has raised ``TypeError``,
    so a call that succeeds binds nothing twice."""
    try:
        inspect.signature(spec.handler).bind(**params)
    except TypeError as exc:
        return InvalidParamsError(f"{spec.name}: {exc}")
    return None


def _encode_responses(responses: List[Response], was_batch: bool) -> bytes:
    """One frame payload: a lone response to a lone request goes out bare,
    the responses to a batch as an array (even when there is only one)."""
    if len(responses) == 1 and not was_batch:
        return codec.response_payload(responses[0])
    return b"[" + b",".join(map(codec.response_payload, responses)) + b"]"


@types.coroutine
def _suspend(awaited: Any) -> Any:
    """Suspend the running task on what a coroutine stepped outside it yielded."""
    yield awaited


async def _resume(context: contextvars.Context, coro: Coroutine, awaited: Any, timeout_s: float):
    """Finish, as a task, a coroutine stepped once outside any task and
    suspended on ``awaited``.  Each step runs in ``context``; the deadline,
    armed here, wakes the task and reaches the coroutine as a TimeoutError."""
    task = asyncio.current_task()
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    timer = asyncio.get_running_loop().call_later(timeout_s, expire)
    try:
        while True:
            error: Optional[BaseException] = None
            try:
                await _suspend(awaited)
            except BaseException as exc:  # a cancellation: handed to the coroutine
                error = exc
            if expired:
                error, expired = asyncio.TimeoutError(), False
            try:
                step = coro.send if error is None else coro.throw
                awaited = context.run(step, error)
            except StopIteration as stop:
                return stop.value
    finally:
        timer.cancel()


class _Connection(asyncio.Protocol):
    """One client connection: each frame is served in the callback that read it."""

    def __init__(self, server: "RpcServer"):
        self.server = server
        self.decoder = FrameDecoder(server.max_frame_bytes)
        self.lost = asyncio.get_running_loop().create_future()
        self.owed = 0  # frames read whose answer a suspended handler still owes
        self.hung_up = False

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)
        self.lost.set_result(None)

    def pause_writing(self) -> None:
        # The peer stopped reading its answers: stop reading its requests.
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        if not self.hung_up:
            self.transport.resume_reading()

    def eof_received(self) -> bool:
        self._hang_up()
        return True  # the write half stays open for the answers still owed

    def data_received(self, data: bytes) -> None:
        try:
            frames = self.decoder.feed(data)
        except FrameTooLargeError as exc:
            self._reply([codec.error_response(None, exc)], False)
            self._hang_up()
            return
        for frame in frames:
            outcomes, was_batch = self.server._open(frame)
            tasks = [outcome for outcome in outcomes if isinstance(outcome, asyncio.Task)]
            if tasks:
                self._reply_when_done(outcomes, was_batch, tasks)
            else:
                self._reply(outcomes, was_batch)

    def _hang_up(self) -> None:
        """Read nothing more; close once every frame read is answered."""
        self.hung_up = True
        self.transport.pause_reading()
        if not self.owed:
            self.transport.close()

    def _reply_when_done(self, outcomes: List[Outcome], was_batch: bool, tasks: list) -> None:
        self.owed += 1
        remaining = len(tasks)

        def settle(_task: asyncio.Task) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining:
                return
            self.owed -= 1
            if not any(task.cancelled() for task in tasks):
                results = [o.result() if isinstance(o, asyncio.Task) else o for o in outcomes]
                self._reply(results, was_batch)
            if self.hung_up and not self.owed:
                self.transport.close()

        for task in tasks:
            task.add_done_callback(settle)

    def _reply(self, outcomes: List[Outcome], was_batch: bool) -> None:
        responses = [response for response in outcomes if response is not None]
        if responses and not self.transport.is_closing():
            payload = _encode_responses(responses, was_batch)
            self.transport.write(encode_frame(payload, self.server.max_frame_bytes))


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
        self._connections: Set[_Connection] = set()
        #: Requests whose handler suspended, on either transport: the only
        #: ones that can be in flight when nothing else runs.
        self._tasks: Set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and accept; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, drain, then hard-close."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        if self._tasks:  # let in-flight requests finish inside the drain budget
            await asyncio.wait(self._tasks, timeout=self.drain_timeout_s)
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        connections = list(self._connections)
        for connection in connections:
            connection.transport.close()
        if connections:
            await asyncio.wait([c.lost for c in connections], timeout=self.drain_timeout_s)
        for connection in list(self._connections):
            connection.transport.abort()  # a peer that never read its answers
        if self._server is not None:
            await self._server.wait_closed()
        self._server = None

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def connection_count(self) -> int:
        return len(self._connections)

    # -- dispatch (shared by TCP and in-process transports) ----------------
    async def dispatch_raw(self, data: bytes) -> Optional[bytes]:
        """Decode one frame payload, dispatch, encode the response payload.

        This is the entire server minus the socket: the in-process transport
        calls it directly, so both transports share one code path and one
        serialization behaviour.  Returns ``None`` when every request in the
        frame was a notification.
        """
        responses, was_batch = await self.dispatch_frame(data)
        return _encode_responses(responses, was_batch) if responses else None

    async def dispatch_frame(self, data: bytes) -> Tuple[List[Response], bool]:
        """The responses to one frame payload, in request order, and whether
        it was a batch; only the requests whose handler suspended are awaited."""
        outcomes, was_batch = self._open(data)
        responses = [await o if isinstance(o, asyncio.Task) else o for o in outcomes]
        return [response for response in responses if response is not None], was_batch

    def _open(self, data: bytes) -> Tuple[List[Outcome], bool]:
        """Decode one frame payload and start each request in it, in order."""
        try:
            requests, was_batch = codec.parse_batch(codec.decode_payload(data))
        except RpcError as exc:
            return [codec.error_response(None, exc)], False
        return [self._start(obj) for obj in requests], was_batch

    def _start(self, obj: Any) -> Outcome:
        """Serve one request object up to its handler's first suspension.

        Returns the response (``None`` for a notification) when the handler
        finished without waiting, else the task that finishes it.
        """
        try:
            request = codec.parse_request(obj)
        except RpcError as exc:
            request_id = obj.get("id") if isinstance(obj, dict) else None
            return codec.error_response(request_id, exc)
        if self._closing:
            return self._refuse(request, "shutting_down", ShuttingDownError())
        if self._inflight >= self.max_inflight:
            # Backpressure: reject now, queue never.
            return self._refuse(
                request,
                "overloaded",
                OverloadedError(data={"inflight": self._inflight, "limit": self.max_inflight}),
            )
        self._inflight += 1
        coro = self._answer(request, perf_counter())
        context = contextvars.copy_context()
        try:
            awaited = context.run(coro.send, None)
        except StopIteration as stop:
            return stop.value
        # It suspended, so the method exists and its handler is running.
        timeout_s = self.registry.get(request.method).timeout_s or self.default_timeout_s
        task = asyncio.get_running_loop().create_task(
            _resume(context, coro, awaited, timeout_s)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _refuse(self, request: Request, kind: str, error: RpcError) -> Optional[Response]:
        self._count_error(request.method, kind)
        if request.is_notification:
            return None
        return codec.error_response(request.request_id, error)

    async def _answer(self, request: Request, started: float) -> Optional[Response]:
        """Run the handler; its response (``None`` for a notification)."""
        try:
            response = await self._run_handler(request)
        finally:
            self._inflight -= 1
            elapsed = perf_counter() - started
            self.metrics.add(f"rpc_calls[{request.method}]", 1, scope=self.name)
            self.metrics.add(
                f"rpc_latency_s[{request.method}]", elapsed, scope=self.name
            )
        return None if request.is_notification else response

    async def _run_handler(self, request: Request) -> Response:
        request_id = None if request.is_notification else request.request_id
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
                        result = await self._invoke(spec.handler, params)
                meta = {"spans": collector.export()} if collector.spans else {}
                return Response(request_id=request_id, result=result, meta=meta)
            result = await self._invoke(spec.handler, params)
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
            error = (isinstance(exc, TypeError) and _misfit(spec, params)) or to_rpc_error(exc)
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
