"""SimTransport: request/response correlation, timeouts, crash fail-fast."""

from __future__ import annotations

import pytest

from repro.p2p.transport import P2PError, PeerUnreachable, SimTransport
from repro.sim.kernel import Kernel
from repro.sim.network import Network


@pytest.fixture()
def net():
    kernel = Kernel(seed=1)
    return kernel, Network(kernel)


def make_pair(network):
    a = SimTransport(network, "a")
    b = SimTransport(network, "b")
    return a, b


def test_request_response_roundtrip(net):
    kernel, network = net
    a, b = make_pair(network)
    b.dispatch = lambda sender, method, params: {"echo": params, "via": method}
    results = []
    a.request("b", "p2p.ping", {"x": 1}, on_result=results.append)
    kernel.run(until=5.0)
    assert results == [{"echo": {"x": 1}, "via": "p2p.ping"}]


def test_server_exception_becomes_p2p_error(net):
    kernel, network = net
    a, b = make_pair(network)

    def boom(sender, method, params):
        raise ValueError("genesis mismatch")

    b.dispatch = boom
    errors = []
    a.request("b", "p2p.hello", {}, on_result=lambda r: None, on_error=errors.append)
    kernel.run(until=5.0)
    assert len(errors) == 1
    assert isinstance(errors[0], P2PError)
    assert "genesis mismatch" in str(errors[0])


def test_timeout_fires_when_peer_never_answers(net):
    kernel, network = net
    a, _ = make_pair(network)
    # b has no dispatch bound: the request is swallowed, no response comes.
    errors = []
    a.request("b", "p2p.ping", {}, on_result=lambda r: None,
              on_error=errors.append, timeout_s=2.0)
    kernel.run(until=10.0)
    assert len(errors) == 1
    assert isinstance(errors[0], PeerUnreachable)


def test_unknown_endpoint_fails_fast_without_burning_timeout(net):
    kernel, network = net
    a = SimTransport(network, "a")
    errors = []
    a.request("ghost", "p2p.hello", {}, on_result=lambda r: None,
              on_error=errors.append, timeout_s=60.0)
    kernel.run(until=1.0)  # far less than the timeout
    assert len(errors) == 1
    assert isinstance(errors[0], PeerUnreachable)


def test_crashed_endpoint_fails_fast(net):
    kernel, network = net
    a, b = make_pair(network)
    network.unregister("b")
    errors = []
    a.request("b", "p2p.ping", {}, on_result=lambda r: None,
              on_error=errors.append, timeout_s=60.0)
    kernel.run(until=1.0)
    assert len(errors) == 1 and isinstance(errors[0], PeerUnreachable)


def test_late_response_after_timeout_is_ignored(net):
    kernel, network = net
    a, b = make_pair(network)
    replies = []

    def slow(sender, method, params):
        return {"ok": True}

    b.dispatch = slow
    network.default_link = type(network.default_link)(latency_s=5.0)
    errors = []
    a.request("b", "p2p.ping", {}, on_result=replies.append,
              on_error=errors.append, timeout_s=1.0)
    kernel.run(until=30.0)
    assert errors and not replies  # timed out; the late frame was dropped


def test_close_cancels_pending(net):
    kernel, network = net
    a, b = make_pair(network)
    outcomes = []
    a.request("b", "p2p.ping", {}, on_result=outcomes.append,
              on_error=outcomes.append, timeout_s=2.0)
    a.close()
    kernel.run(until=10.0)
    assert outcomes == []  # neither result nor timeout after close
