"""The ``KernelPump`` contract: one thread per node, and how to get onto it.

A pump drives a sim ``Kernel`` against the wall clock as callbacks on an
asyncio loop.  These tests pin what the rest of the system relies on:
``call`` from any thread (and from the loop itself, inside or outside a
turn), timers that fire on an otherwise idle loop, and that a started
:class:`P2PHost` really is one thread — handlers, completions and timers
all run on its loop, and ``stop()`` does not wait on itself.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import sys
import threading
import time
import warnings

import pytest

from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.p2p.config import P2PConfig
from repro.p2p.host import KernelPump, P2PHost
from repro.p2p.node_server import build_world
from repro.p2p.wire import tx_to_wire
from repro.p2p.rpc_transport import split_addr
from repro.rpc.client import ConnectionPool, RpcClient
from repro.rpc.runtime import EventLoopThread
from repro.sim.kernel import Kernel

BASE_PORT = 9441


class FakeTime:
    """A time source the test moves by hand."""

    def __init__(self, now=100.0):
        self.value = now

    def now(self):
        return self.value


@pytest.fixture()
def loop_thread():
    runner = EventLoopThread(name="pump-test-loop")
    yield runner
    runner.close()


def on_loop(runner, fn):
    """Run ``fn()`` as a plain callback on the loop thread; return its result."""

    async def go():
        return fn()

    return runner.run(go(), timeout_s=5.0)


def started_pump(runner, time_source=None):
    pump = KernelPump(Kernel(seed=0), runner.loop, time_source=time_source)
    pump.start()
    return pump


# -- call from a foreign thread ---------------------------------------------
def test_foreign_call_returns_the_value_on_the_loop_thread(loop_thread):
    pump = started_pump(loop_thread)
    loop_ident = on_loop(loop_thread, threading.get_ident)
    assert loop_ident != threading.get_ident()
    assert pump.call(lambda: (threading.get_ident(), 6 * 7)) == (loop_ident, 42)


def test_foreign_call_reraises_the_exception(loop_thread):
    pump = started_pump(loop_thread)

    def boom():
        raise KeyError("from the kernel")

    with pytest.raises(KeyError, match="from the kernel"):
        pump.call(boom)
    assert pump.call(lambda: "still pumping") == "still pumping"


def test_foreign_call_times_out_with_the_builtin_error_while_a_turn_holds_the_kernel(loop_thread):
    pump = started_pump(loop_thread)
    entered, release, ran = threading.Event(), threading.Event(), []
    pump.inject(lambda: (entered.set(), release.wait(5.0)))
    assert entered.wait(2.0)
    try:
        with pytest.raises(TimeoutError) as err:
            pump.call(lambda: ran.append("late"), timeout_s=0.05)
        assert type(err.value) is TimeoutError  # node_proc's watcher catches the builtin
    finally:
        release.set()
    assert pump.call(lambda: "after") == "after"
    assert ran == []  # the caller was told it did not run, so it must not run later


def test_calls_from_many_threads_under_a_short_switch_interval(loop_thread):
    """The cross-thread bridge, raced: every caller gets its own answer."""
    pump = started_pump(loop_thread)
    total = [0]
    failures = []

    def tick():  # kernel timer traffic interleaved with the calls
        pump.kernel.schedule(0.001, tick)

    def bump(n):
        total[0] += n  # unlocked on purpose: only the loop thread may run this
        return n

    def worker(base):
        try:
            for i in range(150):
                if pump.call(lambda n=base + i: bump(n)) != base + i:
                    failures.append((base, i))
                with pytest.raises(ZeroDivisionError):
                    pump.call(lambda: 1 // 0)
        except BaseException as exc:  # surfaced below, on the test's thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pump.call(tick)
        threads = [threading.Thread(target=worker, args=(base,)) for base in (0, 1000, 2000, 3000)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert pump.call(lambda: total[0]) == sum(base + i for base in (0, 1000, 2000, 3000) for i in range(150))


# -- call on the loop thread --------------------------------------------------
def test_loop_call_outside_a_turn_runs_as_a_turn(loop_thread):
    """Not ``return fn()``: the clock is advanced first, and what ``fn``
    scheduled gets a timer — ``node.start()``'s first round depends on it."""
    clock = FakeTime()
    pump = started_pump(loop_thread, clock.now)
    assert pump.call(lambda: pump.kernel.now) == 0.0
    fired = threading.Event()
    clock.value += 0.5

    def fn():
        pump.kernel.schedule(0.05, fired.set)
        return pump.kernel.now

    assert on_loop(loop_thread, lambda: pump.call(fn)) == pytest.approx(0.5)
    clock.value += 0.06  # no other traffic from here on: only the armed timer can fire it
    assert fired.wait(2.0)


def test_loop_call_outside_a_turn_reraises(loop_thread):
    pump = started_pump(loop_thread)

    def attempt():
        with pytest.raises(ValueError, match="inline"):
            pump.call(lambda: int("inline"))
        return pump.call(lambda: "ok")

    assert on_loop(loop_thread, attempt) == "ok"


def test_call_inside_a_turn_is_reentrant(loop_thread):
    pump = started_pump(loop_thread)

    def outer():
        before = pump.kernel.events_run
        inner = pump.call(lambda: pump.call(lambda: "nested"))
        return inner, pump.kernel.events_run - before

    assert pump.call(outer) == ("nested", 0)  # ran directly, not as further kernel events


# -- timers on an idle loop ---------------------------------------------------
def test_an_event_ahead_fires_without_other_traffic(loop_thread):
    pump = started_pump(loop_thread)
    fired = threading.Event()
    started = time.monotonic()
    pump.call(lambda: pump.kernel.schedule(0.05, fired.set))
    assert fired.wait(2.0)
    assert time.monotonic() - started >= 0.045


def test_a_cancelled_earliest_event_does_not_strand_later_ones(loop_thread):
    pump = started_pump(loop_thread)
    fired = []
    later = threading.Event()

    def arrange():
        first = pump.kernel.schedule(0.03, lambda: fired.append("first"))
        pump.kernel.schedule(0.08, lambda: (fired.append("second"), later.set()))
        return first

    first = pump.call(arrange)  # the timer is now armed for ``first``
    pump.call(first.cancel)
    assert later.wait(2.0)
    assert fired == ["second"]


def test_a_long_turn_does_not_postpone_what_fell_due_meanwhile(loop_thread):
    """The next timer is armed against wall time after the turn, not the
    time the turn started at: a block that took 10 s to execute must not
    push an event due 1 s in by another second."""
    clock = FakeTime()
    pump = started_pump(loop_thread, clock.now)
    fired = threading.Event()

    def long_event():
        clock.value += 10.0

    pump.call(lambda: (pump.kernel.schedule(0.0, long_event), pump.kernel.schedule(1.0, fired.set)))
    assert fired.wait(0.5)


def test_a_stopped_pump_runs_nothing(loop_thread):
    pump = started_pump(loop_thread)
    fired = []
    pump.call(lambda: pump.kernel.schedule(0.02, lambda: fired.append("timer")))
    pump.stop()
    with pytest.raises(TimeoutError):
        pump.call(lambda: fired.append("call"), timeout_s=0.1)
    assert fired == []


# -- a started host is one thread --------------------------------------------
VALIDATORS = ["v0", "v1"]


def make_host(name, port, seeds, world, **p2p):
    genesis, state, engine = world
    settings = dict(seeds=seeds, ping_interval_s=0.2, request_timeout_s=3.0, reconnect_backoff_s=0.2)
    settings.update(p2p)
    return P2PHost(
        name=name,
        listen_addr=f"127.0.0.1:{port}",
        genesis=genesis,
        genesis_state=state,
        consensus=engine,
        p2p_config=P2PConfig(**settings),
    )


def wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def rpc(client_loop, addr, method, params=None):
    host, port = addr.rsplit(":", 1)

    async def go():
        pool = ConnectionPool(host, int(port))
        try:
            return await pool.call(method, params or {}, timeout_s=5.0)
        finally:
            await pool.close()

    return client_loop.run(go(), timeout_s=10.0)


def test_thread_census_of_a_started_host(loop_thread):
    alice = KeyPair.generate("alice")
    world = build_world(VALIDATORS, {"alice": 10**6}, block_interval_s=0.2)
    addrs = [f"127.0.0.1:{BASE_PORT + i}" for i in range(2)]
    other = make_host("v1", BASE_PORT + 1, [addrs[0]], world)
    other.start()
    before = set(threading.enumerate())
    host = make_host("v0", BASE_PORT, [addrs[1]], world)
    seen = {}

    def recording(label, fn):
        def wrapper(*args, **kwargs):
            seen.setdefault(label, set()).add(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapper

    host.service.dispatch = recording("p2p handler", host.service.dispatch)
    host.transport.dispatch = host.service.dispatch
    host.node.submit_tx = recording("ctl handler", host.node.submit_tx)
    host.transport._complete = recording("completion", host.transport._complete)
    # What others register stays a sync handler: thread pool, then ``pump.call``.
    host.registry.register(
        "test.stats",
        lambda: {"thread": threading.get_ident(), "height": host.pump.call(lambda: host.node.head.height)},
        idempotent=True,
    )
    try:
        host.start()
        loop_ident = on_loop(host.loop, threading.get_ident)
        host.pump.call(lambda: host.kernel.schedule(0.01, recording("kernel timer", lambda: None)))
        assert wait_for(lambda: host.pump.call(host.service.peers.connected) == [addrs[1]])
        reply = rpc(loop_thread, addrs[0], "ctl.submit_tx", {"tx": tx_to_wire(make_transfer(alice, "sink", 1, nonce=0))})
        assert reply["accepted"]
        assert rpc(loop_thread, addrs[0], "ctl.status")["name"] == "v0"
        assert wait_for(lambda: set(seen) >= {"p2p handler", "ctl handler", "completion", "kernel timer"})
        assert seen == {label: {loop_ident} for label in seen}

        added = set(threading.enumerate()) - before
        assert [thread.name for thread in added] == ["v0-rpc-loop"]
        assert "p2p-kernel-pump" not in {thread.name for thread in threading.enumerate()}

        stats = rpc(loop_thread, addrs[0], "test.stats")
        assert stats["thread"] != loop_ident and stats["height"] >= 0
    finally:
        host.stop()
        other.stop()
    assert not {thread for thread in threading.enumerate() if thread.name == "v0-rpc-loop"}


def test_a_backlog_read_after_a_long_turn_is_served_not_shed(loop_thread):
    """While a block executes nothing is read; afterwards every buffered frame
    is dispatched at once.  At the server's default cap (64) the tail of that
    burst was refused as OVERLOADED — found by E22 as multi-second stalls when
    the refused frame was the ``get_data`` for the block just proposed."""
    world = build_world(VALIDATORS, {}, block_interval_s=0.2)
    host = make_host("v0", BASE_PORT + 3, [], world)
    addr = host.start()
    try:
        entered = threading.Event()
        host.pump.inject(lambda: (entered.set(), time.sleep(0.3)))
        assert entered.wait(2.0)

        async def burst():
            client = await RpcClient.connect(*split_addr(addr))
            try:
                return await asyncio.gather(
                    *(client.call("p2p.ping", {"from": "", "height": 0}) for _ in range(300)),
                    return_exceptions=True,
                )
            finally:
                await client.close()

        replies = loop_thread.run(burst(), timeout_s=20.0)
        assert [reply for reply in replies if isinstance(reply, Exception)] == []
    finally:
        host.stop()


def test_stop_with_requests_in_flight_returns_promptly_and_closes_every_transport():
    """``node.stop()`` reaches ``RpcTransport.close`` on the loop; waiting
    there for the pools to close would be the loop waiting on itself."""
    world = build_world(VALIDATORS, {}, block_interval_s=0.2)
    silent = socket.socket()  # accepts (backlog) and never answers
    silent.bind(("127.0.0.1", 0))
    silent.listen(8)
    mute = f"127.0.0.1:{silent.getsockname()[1]}"
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            host = make_host("v0", BASE_PORT + 2, [mute], world, request_timeout_s=30.0)
            host.start()
            assert wait_for(lambda: on_loop(host.loop, lambda: len(host.transport._inflight)) >= 1)
            assert wait_for(lambda: on_loop(host.loop, lambda: any(p._clients for p in host.transport._pools.values())))
            started = time.monotonic()
            host.stop()
            elapsed = time.monotonic() - started
            assert not host.transport._inflight and not host.transport._pools
            del host
            gc.collect()
        assert elapsed < 3.0
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    finally:
        silent.close()
