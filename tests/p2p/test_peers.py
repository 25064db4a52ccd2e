"""PeerManager: handshake, discovery, liveness, and eviction."""

from __future__ import annotations

import pytest

from repro.p2p.config import P2PConfig
from repro.p2p.peer import PeerManager
from repro.p2p.transport import SimTransport
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network

GENESIS = "aa" * 32


def make_manager(network, name, seeds, genesis=GENESIS, **overrides):
    settings = dict(
        ping_interval_s=1.0,
        request_timeout_s=1.0,
        reconnect_backoff_s=0.5,
        reconnect_backoff_max_s=2.0,
        max_ping_failures=2,
        max_connect_attempts=3,
    )
    settings.update(overrides)
    transport = SimTransport(network, name)
    metrics = MetricsRegistry()
    manager = PeerManager(
        transport,
        P2PConfig(seeds=list(seeds), **settings),
        genesis_id=genesis,
        head_info=lambda: (0, GENESIS),
        metrics=metrics,
        scope=name,
    )
    transport.dispatch = lambda sender, method, params: {
        "p2p.hello": manager.serve_hello,
        "p2p.ping": manager.serve_ping,
    }[method](params)
    return manager, metrics


@pytest.fixture()
def net():
    kernel = Kernel(seed=5)
    return kernel, Network(kernel)


def test_seed_handshake_connects_both_sides(net):
    kernel, network = net
    a, _ = make_manager(network, "a", seeds=["b"])
    b, _ = make_manager(network, "b", seeds=[])
    a.start()
    b.start()
    kernel.run(until=5.0)
    assert a.connected() == ["b"]
    assert b.connected() == ["a"]  # dial-back from serve_hello


def test_genesis_mismatch_is_rejected_for_good(net):
    kernel, network = net
    a, metrics = make_manager(network, "a", seeds=["b"])
    b, _ = make_manager(network, "b", seeds=[], genesis="bb" * 32)
    a.start()
    b.start()
    kernel.run(until=5.0)
    assert a.connected() == []
    assert "b" not in a.peers  # dropped, not retried
    assert metrics.counter("p2p_handshake_rejected", scope="a") >= 1


def test_peers_learned_transitively_from_hello(net):
    kernel, network = net
    # a knows only b; b knows c; a must learn c through b's hello/ping reply.
    a, _ = make_manager(network, "a", seeds=["b"])
    b, _ = make_manager(network, "b", seeds=["c"])
    c, _ = make_manager(network, "c", seeds=[])
    for manager in (b, c, a):
        manager.start()
    kernel.run(until=10.0)
    assert "c" in a.connected()


def test_dead_peer_evicted_after_ping_failures(net):
    kernel, network = net
    a, metrics = make_manager(network, "a", seeds=["b"])
    b, _ = make_manager(network, "b", seeds=[])
    a.start()
    b.start()
    kernel.run(until=3.0)
    assert a.connected() == ["b"]
    network.unregister("b")  # crash
    kernel.run(until=kernel.now + 10.0)
    assert a.connected() == []
    assert metrics.counter("p2p_peers_evicted", scope="a") >= 1
    assert "b" in a.peers  # seeds are never forgotten, only backed off


def test_learned_peer_forgotten_after_dial_failures(net):
    kernel, network = net
    a, _ = make_manager(network, "a", seeds=["b"])
    b, _ = make_manager(network, "b", seeds=[])
    a.start()
    b.start()
    kernel.run(until=3.0)
    a.learn("ghost")  # never registered on the network
    kernel.run(until=kernel.now + 30.0)
    assert "ghost" not in a.peers


def test_crashed_seed_reconnects_after_restart(net):
    kernel, network = net
    a, _ = make_manager(network, "a", seeds=["b"])
    b, _ = make_manager(network, "b", seeds=[])
    a.start()
    b.start()
    kernel.run(until=3.0)
    network.unregister("b")
    kernel.run(until=kernel.now + 8.0)
    assert a.connected() == []
    # Restart b under the same name; a's redial backoff must find it again.
    b2, _ = make_manager(network, "b", seeds=[])
    b2.start()
    kernel.run(until=kernel.now + 15.0)
    assert a.connected() == ["b"]


def test_sample_excludes_and_bounds(net):
    kernel, network = net
    a, _ = make_manager(network, "a", seeds=["b", "c"])
    b, _ = make_manager(network, "b", seeds=[])
    c, _ = make_manager(network, "c", seeds=[])
    for manager in (b, c, a):
        manager.start()
    kernel.run(until=5.0)
    assert sorted(a.sample(10)) == ["b", "c"]
    assert a.sample(10, exclude=("b",)) == ["c"]
    assert len(a.sample(1)) == 1
