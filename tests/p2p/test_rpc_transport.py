"""The same protocol over real framed TCP: convergence, cold sync, rejoin.

These tests run several :class:`P2PHost` instances in one process with
real sockets and wall-clock pumps, so they are time-bounded rather than
deterministic — assertions poll with deadlines.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.chain.transactions import make_transfer
from repro.common.clock import WallClock
from repro.common.signatures import KeyPair
from repro.p2p.config import P2PConfig
from repro.p2p.host import P2PHost
from repro.p2p.host import build_world
from repro.p2p.wire import tx_to_wire
from repro.p2p.rpc_transport import split_addr
from repro.rpc.client import ConnectionPool, RpcClient
from repro.rpc.runtime import EventLoopThread

BASE_PORT = 9461
VALIDATORS = ["v0", "v1", "v2"]


def make_host(name, port, seeds, world, clock, seed):
    genesis, state, engine = world
    return P2PHost(
        name=name,
        listen_addr=f"127.0.0.1:{port}",
        genesis=genesis,
        genesis_state=state,
        consensus=engine,
        p2p_config=P2PConfig(
            seeds=seeds,
            fanout=2,
            ping_interval_s=0.5,
            request_timeout_s=3.0,
            reconnect_backoff_s=0.2,
            reconnect_backoff_max_s=1.0,
        ),
        seed=seed,
        time_source=clock.now,
    )


class Client:
    """Minimal sync JSON-RPC caller for the control endpoints."""

    def __init__(self):
        self.loop = EventLoopThread(name="p2p-test-client")

    def call(self, addr, method, params=None):
        host, port = addr.rsplit(":", 1)

        async def go():
            pool = ConnectionPool(host, int(port), request_timeout_s=5.0)
            try:
                return await pool.call(method, params or {}, timeout_s=5.0)
            finally:
                await pool.close()

        return self.loop.run(go(), timeout_s=10.0)

    def close(self):
        self.loop.close()


def wait_for(predicate, timeout_s=30.0, interval_s=0.25):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture(scope="module")
def tcp_net():
    alice = KeyPair.generate("alice")
    world = build_world(VALIDATORS, {"alice": 10**9}, block_interval_s=0.2)
    clock = WallClock()
    addrs = [f"127.0.0.1:{BASE_PORT + i}" for i in range(len(VALIDATORS))]
    hosts = []
    for i, name in enumerate(VALIDATORS):
        seeds = [a for j, a in enumerate(addrs) if j != i]
        hosts.append(make_host(name, BASE_PORT + i, seeds, world, clock, seed=i))
    for host in hosts:
        host.start()
    client = Client()
    try:
        assert wait_for(
            lambda: all(
                client.call(a, "ctl.status")["peers"] for a in addrs
            ),
            timeout_s=15.0,
        ), "validators never interconnected"
        yield {
            "alice": alice,
            "world": world,
            "clock": clock,
            "addrs": addrs,
            "hosts": hosts,
            "client": client,
            "nonce": [0],
        }
    finally:
        for host in hosts:
            host.stop()
        client.close()


def grow_chain(net, count):
    client, addrs = net["client"], net["addrs"]
    nonce = net["nonce"]
    txs = []
    for _ in range(count):
        tx = make_transfer(net["alice"], "sink", 1, nonce=nonce[0])
        nonce[0] += 1
        txs.append(tx)
        reply = client.call(addrs[0], "ctl.submit_tx", {"tx": tx_to_wire(tx)})
        assert reply["accepted"]
    assert wait_for(
        lambda: all(
            client.call(a, "ctl.status")["mempool"] == 0 for a in addrs
        )
        and len({client.call(a, "ctl.status")["head_id"] for a in addrs}) == 1,
        timeout_s=45.0,
    ), "validators did not converge after submitting txs"
    return txs


def test_validators_converge_over_tcp(tcp_net):
    grow_chain(tcp_net, 6)
    client, addrs = tcp_net["client"], tcp_net["addrs"]
    stats = [client.call(a, "ctl.status") for a in addrs]
    assert len({s["head_id"] for s in stats}) == 1
    assert len({s["state_root"] for s in stats}) == 1
    assert stats[0]["height"] >= 1
    counters = [client.call(addr, "ctl.counters") for addr in addrs]
    # v0 took every submit and pushed each body to both peers, as notifications.
    assert counters[0]["p2p_push_sent"] > 0
    assert all(c["p2p_push_recv"] > 0 for c in counters[1:])
    for host in counters:
        # No node received a body twice, and no peer request was shed.
        assert host["p2p_duplicate_bodies"] == 0
        assert host["p2p_refusals"] == 0
        assert host["p2p_fetch_retries"] >= 0
        turns = [host[f"pump_turn_ms_{stat}"] for stat in ("p50", "p99", "max")]
        assert 0 <= turns[0] <= turns[1] <= turns[2]


def test_a_pushed_tx_with_an_infinite_nonce_or_a_float_counts_as_invalid(tcp_net):
    """Over TCP: ``Infinity`` as a pushed tx's nonce and a float in its
    payload arrive as JSON numbers; each push counts one invalid body."""
    host, addr = tcp_net["hosts"][1], tcp_net["addrs"][1]
    wire = tx_to_wire(make_transfer(tcp_net["alice"], "sink", 1, nonce=10**6))
    bodies = [dict(wire, nonce=math.inf), dict(wire, payload=dict(wire["payload"], amount=1.5))]

    def invalid_bodies():
        return host.pump.call(lambda: host.node.metrics.counter_total("p2p_invalid_bodies"))

    async def push_all():
        client = await RpcClient.connect(*split_addr(addr))
        try:
            for body in bodies:
                push = {"from": "", "kind": "tx", "id": "00" * 32, "bodies": [body], "to": []}
                await client.notify("p2p.push", push)
            await client.call("ctl.status")  # served after the pushes, on one connection
        finally:
            await client.close()

    before = invalid_bodies()
    tcp_net["client"].loop.run(push_all(), timeout_s=10.0)
    assert invalid_bodies() - before == 2


def test_fresh_node_joins_mid_chain_and_crash_rejoins(tcp_net):
    """Satellite: cold sync to head, then kill/restart, on RpcTransport."""
    client, addrs = tcp_net["client"], tcp_net["addrs"]
    grow_chain(tcp_net, 4)
    joiner_port = BASE_PORT + 7
    joiner_addr = f"127.0.0.1:{joiner_port}"

    def synced():
        js = client.call(joiner_addr, "ctl.status")
        v0 = client.call(addrs[0], "ctl.status")
        return js["head_id"] == v0["head_id"] and js["state_root"] == v0["state_root"]

    joiner = make_host(
        "joiner", joiner_port, [addrs[0]], tcp_net["world"], tcp_net["clock"], seed=90
    )
    joiner.start()
    try:
        assert wait_for(synced, timeout_s=30.0), "joiner never cold-synced"
        counters = client.call(joiner_addr, "ctl.counters")
        assert counters["p2p_sync_completed"] >= 1
        assert counters["p2p_duplicate_bodies"] == 0  # announce/fetch dedup held
    finally:
        joiner.stop()  # crash mid-run

    grow_chain(tcp_net, 4)  # history the dead node misses

    reborn = make_host(
        "joiner", joiner_port, [addrs[0]], tcp_net["world"], tcp_net["clock"], seed=91
    )
    reborn.start()
    try:
        assert wait_for(synced, timeout_s=30.0), "restarted node never re-synced"
        js = client.call(joiner_addr, "ctl.status")
        v0 = client.call(addrs[0], "ctl.status")
        assert js["head_id"] == v0["head_id"]
        assert js["state_root"] == v0["state_root"]  # bit-identical state
    finally:
        reborn.stop()
