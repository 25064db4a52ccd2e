"""Simulated network tests."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import LinkSpec, Network


def _pair():
    kernel = Kernel(seed=1)
    network = Network(kernel, MetricsRegistry())
    inbox = {"a": [], "b": [], "c": []}
    for name in inbox:
        network.register(name, lambda s, m, n=name: inbox[n].append(m))
    return kernel, network, inbox


def test_point_to_point_delivery():
    kernel, network, inbox = _pair()
    network.send("a", "b", "ping", {"x": 1})
    kernel.run()
    assert len(inbox["b"]) == 1
    assert inbox["b"][0].payload == {"x": 1}
    assert inbox["b"][0].sender == "a"


def test_latency_applied():
    kernel, network, inbox = _pair()
    network.set_link("a", "b", LinkSpec(latency_s=0.5, bandwidth_bps=1e12))
    network.send("a", "b", "ping", None, size_bytes=1)
    kernel.run()
    assert inbox["b"][0].delivered_at == pytest.approx(0.5, abs=1e-6)


def test_bandwidth_serialization_delay():
    kernel, network, inbox = _pair()
    network.set_link("a", "b", LinkSpec(latency_s=0.0, bandwidth_bps=8_000))
    network.send("a", "b", "blob", None, size_bytes=1_000)  # 8000 bits / 8000 bps
    kernel.run()
    assert inbox["b"][0].delivered_at == pytest.approx(1.0, abs=1e-6)


def test_unknown_recipient_raises():
    __, network, __ = _pair()
    with pytest.raises(SimulationError):
        network.send("a", "ghost", "x", None)


def test_duplicate_registration_rejected():
    kernel = Kernel()
    network = Network(kernel)
    network.register("x", lambda s, m: None)
    with pytest.raises(SimulationError):
        network.register("x", lambda s, m: None)


def test_partition_drops_cross_group_traffic():
    kernel, network, inbox = _pair()
    network.partition({"a"}, {"b", "c"})
    assert not network.send("a", "b", "ping", None)
    assert network.send("b", "c", "ping", None)
    kernel.run()
    assert len(inbox["b"]) == 0
    assert len(inbox["c"]) == 1


def test_partition_is_symmetric_for_ungrouped_endpoints():
    # Regression: the old check only consulted the sender's group, so an
    # ungrouped sender could reach a grouped peer while the reply dropped.
    kernel, network, inbox = _pair()
    network.partition({"a"}, {"b"})  # c belongs to no group
    assert not network.send("c", "a", "ping", None)
    assert not network.send("a", "c", "pong", None)
    kernel.run()
    assert len(inbox["a"]) == 0
    assert len(inbox["c"]) == 0


def test_two_ungrouped_endpoints_still_reach_each_other():
    kernel, network, inbox = _pair()
    network.partition({"a"})  # b and c are both outside every group
    assert network.send("b", "c", "ping", None)
    assert network.send("c", "b", "pong", None)
    kernel.run()
    assert len(inbox["b"]) == 1
    assert len(inbox["c"]) == 1


def test_heal_restores_delivery():
    kernel, network, inbox = _pair()
    network.partition({"a"}, {"b"})
    network.heal()
    network.send("a", "b", "ping", None)
    kernel.run()
    assert len(inbox["b"]) == 1


def test_lossy_link_drops_probabilistically():
    kernel = Kernel(seed=7)
    network = Network(kernel, default_link=LinkSpec(loss_rate=0.5))
    received = []
    network.register("a", lambda s, m: None)
    network.register("b", lambda s, m: received.append(m))
    for __ in range(200):
        network.send("a", "b", "p", None)
    kernel.run()
    assert 60 < len(received) < 140  # ~100 expected


def test_bytes_charged_to_sender_scope():
    kernel, network, __ = _pair()
    network.send("a", "b", "data", None, size_bytes=512)
    kernel.run()
    assert network.metrics.counter("bytes_transferred", scope="a") == 512


def test_delivery_counters():
    kernel, network, __ = _pair()
    network.send("a", "b", "x", None)
    network.send("a", "c", "x", None)
    kernel.run()
    assert network.messages_sent == 2
    assert network.messages_delivered == 2
    assert network.messages_dropped == 0
