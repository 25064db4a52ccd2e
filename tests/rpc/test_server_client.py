"""Server/client behavior over real sockets: backpressure, timeouts,
pipelining, retries, batches, and leak-free graceful shutdown.

No pytest-asyncio in the image, so each test drives its own loop via
``asyncio.run`` — which doubles as the leak check: ``asyncio.run`` closes
the loop, so any lingering task or open socket surfaces immediately, and
the shutdown test asserts the absence explicitly.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.rpc.client import ConnectionPool, RetryPolicy, RpcClient
from repro.rpc.errors import (
    FrameTooLargeError,
    InvalidParamsError,
    MethodNotFoundError,
    OverloadedError,
    RpcError,
    RpcTimeoutError,
    ShuttingDownError,
)
from repro.rpc.framing import FrameDecoder, encode_frame
from repro.rpc.server import MethodRegistry, RpcServer
from repro.rpc import codec


def make_registry(gate: asyncio.Event = None) -> MethodRegistry:
    registry = MethodRegistry()
    registry.register("add", lambda a, b: {"sum": a + b}, idempotent=True)
    registry.register("echo", lambda payload=None: {"payload": payload}, idempotent=True)

    async def wait_gate():
        await gate.wait()
        return {"done": True}

    if gate is not None:
        registry.register("gate.wait", wait_gate, idempotent=True)

    async def crawl():
        await asyncio.sleep(30)

    registry.register("slow.crawl", crawl, timeout_s=0.05, idempotent=True)

    def boom():
        raise RuntimeError("kaput")

    registry.register("boom", boom, idempotent=True)
    return registry


async def serve(registry=None, **server_kwargs):
    server = RpcServer(registry or make_registry(), **server_kwargs)
    host, port = await server.start()
    return server, host, port


def test_call_and_typed_errors():
    async def scenario():
        server, host, port = await serve()
        client = await RpcClient.connect(host, port)
        assert await client.call("add", {"a": 2, "b": 3}) == {"sum": 5}
        with pytest.raises(MethodNotFoundError):
            await client.call("no.such.method")
        with pytest.raises(InvalidParamsError):
            await client.call("add", {"a": 2})  # missing b -> TypeError
        with pytest.raises(RpcError) as err:
            await client.call("boom")
        assert err.value.code == -32603  # internal, class name only
        assert err.value.data == {"type": "RuntimeError"}
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_positional_params_rejected():
    async def scenario():
        server, host, port = await serve()
        client = await RpcClient.connect(host, port)
        with pytest.raises(InvalidParamsError):
            await client.call("add", [2, 3])
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_per_method_timeout_answers_timeout_code():
    async def scenario():
        server, host, port = await serve()
        client = await RpcClient.connect(host, port)
        with pytest.raises(RpcTimeoutError) as err:
            await client.call("slow.crawl")
        assert err.value.code == -32002
        assert err.value.data["timeout_s"] == 0.05
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_overload_rejects_immediately_instead_of_queueing():
    async def scenario():
        gate = asyncio.Event()
        server, host, port = await serve(make_registry(gate), max_inflight=1)
        client = await RpcClient.connect(host, port)
        blocked = asyncio.create_task(client.call("gate.wait"))
        await asyncio.sleep(0.05)  # let it occupy the single slot
        started = asyncio.get_running_loop().time()
        with pytest.raises(OverloadedError) as err:
            await client.call("add", {"a": 1, "b": 1})
        elapsed = asyncio.get_running_loop().time() - started
        assert elapsed < 1.0  # rejected now, not parked behind gate.wait
        assert err.value.data["limit"] == 1
        gate.set()
        assert await blocked == {"done": True}
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_pipelining_no_head_of_line_blocking():
    async def scenario():
        gate = asyncio.Event()
        server, host, port = await serve(make_registry(gate))
        client = await RpcClient.connect(host, port)
        slow = asyncio.create_task(client.call("gate.wait"))
        # Issued after the slow call on the SAME connection, completes first.
        assert await client.call("add", {"a": 1, "b": 2}) == {"sum": 3}
        assert not slow.done()
        gate.set()
        assert await slow == {"done": True}
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_batch_mixes_results_and_errors_in_order():
    async def scenario():
        server, host, port = await serve()
        client = await RpcClient.connect(host, port)
        results = await client.call_batch(
            [
                ("add", {"a": 1, "b": 1}),
                ("no.such", None),
                ("echo", {"payload": "x"}),
            ]
        )
        assert results[0] == {"sum": 2}
        assert isinstance(results[1], MethodNotFoundError)
        assert results[2] == {"payload": "x"}
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_notifications_produce_no_response():
    async def scenario():
        server, host, port = await serve()
        client = await RpcClient.connect(host, port)
        await client.notify("echo", {"payload": "fire-and-forget"})
        # The connection still works afterwards: no stray frame desynced it.
        assert await client.call("add", {"a": 0, "b": 0}) == {"sum": 0}
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_pool_retries_idempotent_overload_then_succeeds():
    attempts = {"n": 0}

    def flaky():
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise OverloadedError()
        return {"ok": True}

    registry = MethodRegistry()
    registry.register("flaky", flaky, idempotent=True)

    async def scenario():
        server, host, port = await serve(registry)
        pool = ConnectionPool(
            host, port, retry=RetryPolicy(attempts=3, base_delay_s=0.01)
        )
        assert await pool.call("flaky", idempotent=True) == {"ok": True}
        assert attempts["n"] == 2
        await pool.close()
        await server.close()

    asyncio.run(scenario())


def test_pool_never_retries_non_idempotent():
    attempts = {"n": 0}

    def flaky():
        attempts["n"] += 1
        raise OverloadedError()

    registry = MethodRegistry()
    registry.register("flaky", flaky)

    async def scenario():
        server, host, port = await serve(registry)
        pool = ConnectionPool(
            host, port, retry=RetryPolicy(attempts=3, base_delay_s=0.01)
        )
        with pytest.raises(OverloadedError):
            await pool.call("flaky", idempotent=False)
        assert attempts["n"] == 1
        await pool.close()
        await server.close()

    asyncio.run(scenario())


def test_pool_reconnects_after_server_restart():
    async def scenario():
        registry = make_registry()
        server, host, port = await serve(registry)
        pool = ConnectionPool(
            host, port, retry=RetryPolicy(attempts=5, base_delay_s=0.02)
        )
        assert await pool.call("add", {"a": 1, "b": 1}, idempotent=True) == {"sum": 2}
        await server.close()
        # Same port, fresh server: the pooled (now dead) connection fails,
        # the retry path reconnects transparently.
        server2 = RpcServer(registry)
        await server2.start(host, port)
        assert await pool.call("add", {"a": 2, "b": 2}, idempotent=True) == {"sum": 4}
        await pool.close()
        await server2.close()

    asyncio.run(scenario())


def test_oversized_request_frame_answered_then_closed():
    async def scenario():
        server, host, port = await serve(max_frame_bytes=256)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame(b"x" * 300))  # client-side limit not applied
        await writer.drain()
        decoder = FrameDecoder()
        (frame,) = decoder.feed(await reader.read())  # one answer, then EOF
        assert decoder.at_boundary()
        response = codec.parse_response(codec.decode_payload(frame))
        assert isinstance(response.error, FrameTooLargeError)
        writer.close()
        await writer.wait_closed()
        await server.close()

    asyncio.run(scenario())


def test_graceful_shutdown_drains_inflight_and_leaks_nothing():
    async def scenario():
        registry = MethodRegistry()

        async def slowish():
            await asyncio.sleep(0.2)
            return {"drained": True}

        registry.register("slowish", slowish, idempotent=True)
        server, host, port = await serve(registry, drain_timeout_s=2.0)
        client = await RpcClient.connect(host, port)
        inflight = asyncio.create_task(client.call("slowish"))
        await asyncio.sleep(0.05)
        await server.close()  # must wait for the in-flight call
        assert await inflight == {"drained": True}
        with pytest.raises((ShuttingDownError, ConnectionError, OSError)):
            await RpcClient.connect(host, port)  # not accepting anymore
        await client.close()
        assert server.connection_count == 0
        await asyncio.sleep(0)
        current = asyncio.current_task()
        leftover = [
            t for t in asyncio.all_tasks() if t is not current and not t.done()
        ]
        assert leftover == []

    asyncio.run(scenario())


def test_requests_during_drain_rejected_with_shutting_down():
    async def scenario():
        gate = asyncio.Event()
        server, host, port = await serve(make_registry(gate), drain_timeout_s=1.0)
        client = await RpcClient.connect(host, port)
        blocked = asyncio.create_task(client.call("gate.wait"))
        await asyncio.sleep(0.05)
        closing = asyncio.create_task(server.close())
        await asyncio.sleep(0.05)
        gate.set()
        assert await blocked == {"done": True}
        await closing
        await client.close()

    asyncio.run(scenario())


def test_client_close_fails_pending_calls():
    async def scenario():
        gate = asyncio.Event()
        server, host, port = await serve(make_registry(gate))
        client = await RpcClient.connect(host, port)
        pending = asyncio.create_task(client.call("gate.wait"))
        await asyncio.sleep(0.05)
        await client.close()
        with pytest.raises((ConnectionError, RpcError)):
            await pending
        gate.set()
        await server.close()

    asyncio.run(scenario())


async def _hang_up_after(prefix: bytes):
    """A peer that reads one request, writes ``prefix`` and closes."""

    async def answer(reader, writer):
        await reader.read(1)
        writer.write(prefix)
        await writer.drain()
        writer.close()
        await writer.wait_closed()

    server = await asyncio.start_server(answer, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


@pytest.mark.parametrize(
    "prefix, message",
    [(b"", "connection closed by server"), (encode_frame(b"truncated")[:6], "mid-frame")],
    ids=["clean-eof", "mid-frame-eof"],
)
def test_client_eof_fails_pending_calls_with_connection_error(prefix, message):
    """A clean EOF and one inside a frame both fail the waiting call."""

    async def scenario():
        server, port = await _hang_up_after(prefix)
        client = await RpcClient.connect("127.0.0.1", port)
        with pytest.raises(ConnectionError, match=message):
            await client.call("echo", {"payload": 1}, timeout_s=5.0)
        assert client.closed
        with pytest.raises(ConnectionError):
            await client.call("echo")
        await client.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_client_delivers_the_last_response_before_the_eof():
    """A response the peer writes just before it closes still answers its
    call; the connection is closed for the next one."""

    async def answer(reader, writer):
        decoder, frames = FrameDecoder(), []
        while not frames:
            data = await reader.read(65536)
            if not data:
                break
            frames = decoder.feed(data)
        request = codec.decode_payload(frames[0])
        writer.write(encode_frame(codec.encode_payload(
            {"jsonrpc": "2.0", "id": request["id"], "result": "last"}
        )))
        writer.close()
        await writer.wait_closed()

    async def scenario():
        server = await asyncio.start_server(answer, "127.0.0.1", 0)
        client = await RpcClient.connect("127.0.0.1", server.sockets[0].getsockname()[1])
        assert await client.call("echo", {"payload": 1}, timeout_s=5.0) == "last"
        await asyncio.sleep(0.05)  # the EOF follows the response
        with pytest.raises(ConnectionError):
            await client.call("echo", timeout_s=5.0)
        await client.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_client_deadline_is_one_timer_cancelled_on_the_answer():
    """A call that is answered leaves no timer armed; one that is not fails
    with RPC_TIMEOUT and leaves nothing pending."""

    async def scenario():
        gate = asyncio.Event()
        server, host, port = await serve(make_registry(gate))
        client = await RpcClient.connect(host, port)
        loop, armed = asyncio.get_running_loop(), []
        call_later = loop.call_later

        def recorded_call_later(delay, *args):
            armed.append((delay, call_later(delay, *args)))
            return armed[-1][1]

        loop.call_later = recorded_call_later
        assert await client.call("add", {"a": 1, "b": 2}, timeout_s=60.0) == {"sum": 3}
        del loop.call_later
        deadlines = [handle for delay, handle in armed if delay == 60.0]
        assert len(deadlines) == 1 and deadlines[0].cancelled()
        with pytest.raises(RpcTimeoutError, match="no response to 'gate.wait' within 0.05s"):
            await client.call("gate.wait", timeout_s=0.05)
        with pytest.raises(RpcTimeoutError, match="no batch response within 0.05s"):
            await client.call_batch(
                [("gate.wait", None), ("add", {"a": 1, "b": 1})], timeout_s=0.05
            )
        assert not client._pending
        gate.set()
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_server_metrics_count_calls_and_errors():
    async def scenario():
        server, host, port = await serve(name="metrics-site")
        client = await RpcClient.connect(host, port)
        await client.call("add", {"a": 1, "b": 1})
        with pytest.raises(MethodNotFoundError):
            await client.call("nope")
        await client.close()
        await server.close()
        return server.metrics

    metrics = asyncio.run(scenario())
    assert metrics.counter("rpc_calls[add]", scope="metrics-site") == 1
    assert metrics.counter("rpc_errors[nope:method_not_found]", scope="metrics-site") == 1
    assert metrics.counter("rpc_latency_s[add]", scope="metrics-site") > 0
