"""Requests served in the callback that read them, on both transports.

A handler that finishes without waiting is answered inside the read (TCP)
or the ``dispatch_raw`` call (in-process); one that suspends continues on a
task.  These tests pin what must not change between the two paths: typed
errors, deadlines, context isolation and batch order, plus what only a
socket has: half-close and a peer that stops reading.
"""

from __future__ import annotations

import asyncio
import contextvars

import pytest

from repro.obs.tracer import Tracer, trace_span, tracer_override
from repro.rpc import codec
from repro.rpc.client import RpcClient
from repro.rpc.errors import RpcError, RpcTimeoutError, StaleCatalogError
from repro.rpc.framing import FrameDecoder, encode_frame
from repro.rpc.gateway import InprocGateway
from repro.rpc.server import MethodRegistry, RpcServer

TRANSPORTS = ["tcp", "inproc"]
_SEEN: contextvars.ContextVar = contextvars.ContextVar("seen", default=None)


def make_registry() -> MethodRegistry:
    registry = MethodRegistry()

    async def inline(value=None):
        return {"value": value}

    async def pause_then_answer(value=None):
        await asyncio.sleep(0.01)
        return {"value": value}

    async def pause_then_overrun():
        await asyncio.sleep(0)
        await asyncio.sleep(30)

    async def refuse_at_once():
        raise StaleCatalogError(data={"version": "v2"})

    async def crash_at_once():
        raise RuntimeError("kaput")

    async def mark(value):
        seen = _SEEN.get()
        _SEEN.set(value)
        return {"seen": seen}

    async def blob(size):
        return {"blob": "x" * size}

    registry.register("inline", inline)
    registry.register("pause", pause_then_answer)
    registry.register("overrun", pause_then_overrun, timeout_s=0.05)
    registry.register("refuse", refuse_at_once)
    registry.register("crash", crash_at_once)
    registry.register("mark", mark)
    registry.register("blob", blob)
    return registry


class Caller:
    """One server reached through either transport, calls as (method, params)."""

    def __init__(self, transport: str):
        self.transport = transport
        self.server = RpcServer(make_registry(), name="inline")
        self.client = None

    async def __aenter__(self):
        if self.transport == "tcp":
            host, port = await self.server.start()
            self.client = await RpcClient.connect(host, port)
        return self

    async def __aexit__(self, *exc_info):
        if self.client is not None:
            await self.client.close()
        await self.server.close()

    async def call(self, method, params=None):
        if self.client is not None:
            return await self.client.call(method, params)
        return await InprocGateway({"inline": self.server}).acall("inline", method, params)

    async def batch(self, calls):
        if self.client is not None:
            return await self.client.call_batch(calls)
        wire = [
            codec.Request(method=method, params=params, request_id=i).to_wire()
            for i, (method, params) in enumerate(calls)
        ]
        payload = codec.decode_payload(await self.server.dispatch_raw(codec.encode_payload(wire)))
        responses = [codec.parse_response(item) for item in payload]
        return [r.error if r.error is not None else r.result for r in responses]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_handler_that_suspends_then_overruns_answers_timeout(transport):
    async def scenario():
        async with Caller(transport) as caller:
            with pytest.raises(RpcTimeoutError) as err:
                await caller.call("overrun")
            assert err.value.data == {"timeout_s": 0.05}
            assert caller.server.inflight == 0
            assert await caller.call("inline", {"value": 1}) == {"value": 1}

    asyncio.run(scenario())


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_exception_in_the_eager_step_comes_back_typed(transport):
    async def scenario():
        async with Caller(transport) as caller:
            with pytest.raises(StaleCatalogError) as stale:
                await caller.call("refuse")
            assert stale.value.data == {"version": "v2"}
            with pytest.raises(RpcError) as crash:
                await caller.call("crash")
            assert crash.value.code == -32603
            assert crash.value.data == {"type": "RuntimeError"}
            counter = caller.server.metrics.counter
            assert counter("rpc_calls[crash]", scope="inline") == 1
            assert caller.server.inflight == 0

    asyncio.run(scenario())


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_contextvar_set_by_one_request_is_not_seen_by_the_next(transport):
    async def scenario():
        async with Caller(transport) as caller:
            assert await caller.call("mark", {"value": "first"}) == {"seen": None}
            assert await caller.call("mark", {"value": "second"}) == {"seen": None}
        assert _SEEN.get() is None

    asyncio.run(scenario())


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_server_spans_of_a_handler_that_suspends_come_back(transport):
    """The ``rpc.serve`` span opens in the step before the suspension and
    closes on the task: its context must be the same on both sides."""

    async def scenario():
        tracer = Tracer()
        async with Caller(transport) as caller:
            with tracer_override(tracer), trace_span("test.root"):
                assert await caller.call("pause", {"value": 1}) == {"value": 1}
        by_id = {span.span_id: span for span in tracer.spans}
        (serve,) = [span for span in tracer.spans if span.name == "rpc.serve"]
        assert by_id[serve.parent_id].name == "rpc.call"
        assert serve.end_wall_s - serve.start_wall_s >= 0.01

    asyncio.run(scenario())


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_batch_keeps_its_order_across_inline_and_suspended_handlers(transport):
    async def scenario():
        async with Caller(transport) as caller:
            results = await caller.batch(
                [
                    ("pause", {"value": "a"}),
                    ("inline", {"value": "b"}),
                    ("refuse", None),
                    ("pause", {"value": "d"}),
                ]
            )
            assert results[0] == {"value": "a"}
            assert results[1] == {"value": "b"}
            assert isinstance(results[2], StaleCatalogError)
            assert results[3] == {"value": "d"}

    asyncio.run(scenario())


def _request(method, request_id, params=None):
    wire = codec.Request(method=method, params=params, request_id=request_id).to_wire()
    return encode_frame(codec.encode_payload(wire))


async def _read_responses(reader, count):
    decoder, responses = FrameDecoder(), []
    while len(responses) < count:
        chunk = await reader.read(1 << 16)
        assert chunk, f"connection closed after {len(responses)} of {count} answers"
        for frame in decoder.feed(chunk):
            responses.append(codec.parse_response(codec.decode_payload(frame)))
    return responses


def test_a_half_closed_client_still_receives_the_answers_it_is_owed():
    async def scenario():
        server = RpcServer(make_registry())
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(_request("pause", 1, {"value": "late"}) + _request("inline", 2, {"value": 0}))
        writer.write_eof()
        responses = await _read_responses(reader, 2)
        assert [r.request_id for r in responses] == [2, 1]  # pipelined: inline first
        assert responses[1].result == {"value": "late"}
        assert await reader.read() == b""  # then the server closes
        writer.close()
        await writer.wait_closed()
        await server.close()

    asyncio.run(scenario())


def test_a_peer_that_stops_reading_stops_being_read():
    """Answers of 128 KiB to a client that reads none: the server stops
    serving once its write buffer is full, long before the 200 requests are
    answered, and answers them all, in order, once the client reads."""
    count, size = 200, 128 * 1024

    async def scenario():
        server = RpcServer(make_registry(), name="slow-peer")
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)

        def served():
            return server.metrics.counter("rpc_calls[blob]", scope="slow-peer")

        for request_id in range(count):
            writer.write(_request("blob", request_id, {"size": size}))
            await writer.drain()
            await asyncio.sleep(0)
        before = -1
        while served() != before:  # until the server stops reading
            before = served()
            await asyncio.sleep(0.05)
        assert served() < count // 2
        (connection,) = server._connections
        assert connection.transport.get_write_buffer_size() < 2 * size + (1 << 16)
        responses = await _read_responses(reader, count)
        assert [r.request_id for r in responses] == list(range(count))
        assert all(len(r.result["blob"]) == size for r in responses)
        writer.close()
        await writer.wait_closed()
        await server.close()

    asyncio.run(scenario())
