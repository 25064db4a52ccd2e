"""Gateway: inproc/tcp equivalence, failed sites, tracing."""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.common.errors import QueryError
from repro.obs.tracer import Tracer, tracer_override, trace_span
from repro.query.parser import parse_query
from repro.rpc.client import RetryPolicy, RpcClient
from repro.rpc.demo import build_demo_network, build_inproc_gateway, build_site_server
from repro.rpc.errors import SHUTTING_DOWN, MethodNotFoundError
from repro.rpc.gateway import InprocGateway, TcpGateway
from repro.rpc.methods import build_site_registry
from repro.rpc.server import RpcServer
from repro.rpc.site_server import build_site

QUERIES = (
    "how many patients have diabetes",
    "prevalence of stroke among smokers",
    "average systolic blood pressure for women over 50",
    "histogram of bmi between 15 and 55 with 4 bins",
)


@pytest.fixture(scope="module")
def demo():
    return build_demo_network(site_count=2, records_per_site=40, seed=77)


def test_tcp_and_inproc_compose_identical_hashes(demo):
    platform, _ = demo
    inproc = build_inproc_gateway(platform)

    async def over_tcp():
        servers, addrs = [], {}
        for site in platform.site_names:
            server = build_site_server(platform, site)
            host, port = await server.start()
            servers.append(server)
            addrs[site] = (host, port)
        gateway = TcpGateway(addrs)
        try:
            return [
                (await gateway.aexecute(parse_query(text))) for text in QUERIES
            ]
        finally:
            await gateway.aclose()
            for server in servers:
                await server.close()

    tcp_answers = asyncio.run(over_tcp())
    for text, tcp_answer in zip(QUERIES, tcp_answers):
        inproc_answer = inproc.execute(parse_query(text))
        assert tcp_answer.result_hash == inproc_answer.result_hash, text
        assert tcp_answer.result == inproc_answer.result
        assert tcp_answer.transport == "tcp"
        assert inproc_answer.transport == "inproc"
    inproc.close()


def test_gateway_catalog_matches_platform_catalog(demo):
    platform, _ = demo
    gateway = build_inproc_gateway(platform)
    served = {(r.site, r.dataset_id, r.record_count) for r in gateway.catalog()}
    registered = {
        (r.site, r.dataset_id, r.record_count) for r in platform.catalog()
    }
    assert served == registered
    gateway.close()


def test_unknown_site_raises_query_error(demo):
    platform, _ = demo
    gateway = build_inproc_gateway(platform)
    with pytest.raises(QueryError):
        gateway.call("no-such-hospital", "health")
    with pytest.raises(MethodNotFoundError):
        gateway.call(platform.site_names[0], "no.such.method")
    gateway.close()


def test_inproc_gateway_adopts_server_spans(demo):
    platform, _ = demo
    gateway = build_inproc_gateway(platform)
    tracer = Tracer()
    with tracer_override(tracer):
        with trace_span("test.root"):
            gateway.execute(parse_query(QUERIES[0]))
    gateway.close()
    by_id = {span.span_id: span for span in tracer.spans}
    serves = [span for span in tracer.spans if span.name == "rpc.serve"]
    assert len(serves) == len(platform.site_names) + len(platform.site_names)
    for span in serves:  # every server-side span re-parented under rpc.call
        assert by_id[span.parent_id].name == "rpc.call"
    calls = [span for span in tracer.spans if span.name == "rpc.call"]
    roots = [span for span in tracer.spans if span.parent_id is None]
    assert [root.name for root in roots] == ["test.root"]
    assert all(span.pid == os.getpid() for span in calls)


SITES = ("hospital-0", "hospital-1", "hospital-2")


def _site_servers(slow_site=None, delay_s=0.0):
    """One data-only RpcServer per site; ``slow_site`` answers ``site.query``
    only after ``delay_s``."""
    servers = {}
    for name in SITES:
        registry = build_site_registry(build_site(name, len(SITES), 60, 2026))
        if name == slow_site:
            spec = registry.get("site.query")
            answer = spec.handler

            async def slow(_answer=answer, **params):
                await asyncio.sleep(delay_s)
                return await _answer(**params)

            spec.handler = slow
        servers[name] = RpcServer(registry, name=name, drain_timeout_s=0.1)
    return servers


def _two_site_answer(text, live):
    """The answer an in-process gateway over the ``live`` sites alone gives."""
    gateway = InprocGateway(
        {name: RpcServer(build_site_registry(build_site(name, len(SITES), 60, 2026)), name=name)
         for name in live}
    )
    try:
        return gateway.execute(parse_query(text))
    finally:
        gateway.close()


def test_a_dead_site_is_a_failed_site_and_the_others_compose():
    """Whether the site dies after the gateway planned against it or before
    the gateway ever asked it for its catalog."""
    text = QUERIES[0]
    expected = _two_site_answer(text, ["hospital-0", "hospital-2"])

    async def scenario(planned_first):
        servers = _site_servers()
        addrs = {name: await server.start() for name, server in servers.items()}
        gateway = TcpGateway(addrs, retry=RetryPolicy(attempts=2, base_delay_s=0.01))
        try:
            if planned_first:
                await gateway.acatalog()  # planned against all three sites
            await servers["hospital-1"].close()
            return await gateway.aexecute(parse_query(text), timeout_s=5.0)
        finally:
            await gateway.aclose()
            for server in servers.values():
                await server.close()

    for planned_first in (True, False):
        answer = asyncio.run(scenario(planned_first))
        assert set(answer.failed_sites) == {"hospital-1"}, planned_first
        assert sorted(answer.site_partials) == ["hospital-0", "hospital-2"]
        assert answer.result == expected.result
        assert answer.result_hash == expected.result_hash


def test_a_site_that_times_out_is_a_failed_site():
    text = QUERIES[0]

    async def scenario():
        servers = _site_servers(slow_site="hospital-2", delay_s=2.0)
        addrs = {name: await server.start() for name, server in servers.items()}
        gateway = TcpGateway(addrs, retry=RetryPolicy(attempts=1))
        try:
            await gateway.acatalog()
            return await gateway.aexecute(parse_query(text), timeout_s=0.3)
        finally:
            await gateway.aclose()
            for server in servers.values():
                await server.close()

    answer = asyncio.run(scenario())
    assert set(answer.failed_sites) == {"hospital-2"}
    assert "-32002" in answer.failed_sites["hospital-2"]
    assert sorted(answer.site_partials) == ["hospital-0", "hospital-1"]
    expected = _two_site_answer(text, ["hospital-0", "hospital-1"])
    assert answer.result_hash == expected.result_hash


def test_an_inproc_site_closed_mid_query_is_a_failed_site():
    """hospital-1's handler is still asleep when its server closes and
    cancels it: the query names hospital-1 in ``failed_sites``, as the TCP
    gateway does, and composes the other two sites' answers."""
    text = QUERIES[0]
    expected = _two_site_answer(text, ["hospital-0", "hospital-2"])

    async def scenario():
        servers = _site_servers(slow_site="hospital-1", delay_s=5.0)
        gateway = InprocGateway(servers)
        try:
            await gateway.acatalog()
            query = asyncio.ensure_future(gateway.aexecute(parse_query(text), timeout_s=10.0))
            await asyncio.sleep(0.05)  # every request is out; hospital-1's handler sleeps
            await servers["hospital-1"].close()
            return await query
        finally:
            await gateway.aclose()

    answer = asyncio.run(scenario())
    assert set(answer.failed_sites) == {"hospital-1"}
    assert answer.failed_sites["hospital-1"].startswith(f"[{SHUTTING_DOWN}]")
    assert sorted(answer.site_partials) == ["hospital-0", "hospital-2"]
    assert answer.result_hash == expected.result_hash


def test_a_traced_tcp_query_has_one_rpc_call_per_site_holding_its_spans():
    async def scenario():
        servers = _site_servers()
        addrs = {name: await server.start() for name, server in servers.items()}
        gateway = TcpGateway(addrs, max_connections_per_site=1)
        try:
            await gateway.acatalog()  # the pools are full: the query takes live connections
            tracer = Tracer()
            with tracer_override(tracer):
                with trace_span("test.root"):
                    answer = await gateway.aexecute(parse_query(QUERIES[1]))
            return tracer, answer
        finally:
            await gateway.aclose()
            for server in servers.values():
                await server.close()

    tracer, answer = asyncio.run(scenario())
    assert not answer.failed_sites
    by_id = {span.span_id: span for span in tracer.spans}
    calls = [span for span in tracer.spans if span.name == "rpc.call"]
    assert len(calls) == len(SITES)
    assert {by_id[span.parent_id].name for span in calls} == {"gateway.execute"}
    serves = [span for span in tracer.spans if span.name == "rpc.serve"]
    assert sorted(span.parent_id for span in serves) == sorted(span.span_id for span in calls)
    for span in calls:
        assert span.attrs["remote_spans"] >= 1
        assert span.end_wall_s >= span.start_wall_s
    roots = [span for span in tracer.spans if span.parent_id is None]
    assert [root.name for root in roots] == ["test.root"]


def test_a_refused_site_is_not_dialled_again_until_the_retry_window_passes(monkeypatch):
    """A closed site refuses its first dial; for the pool's
    ``RetryPolicy.max_delay_s`` after that, every query reports it failed at
    once instead of dialling it (with backoff) again, and the first query
    after the window dials it once more."""
    text = QUERIES[0]
    dials = []
    connect = RpcClient.connect.__func__

    async def counted_connect(cls, host, port, **kwargs):
        dials.append(port)
        return await connect(cls, host, port, **kwargs)

    monkeypatch.setattr(RpcClient, "connect", classmethod(counted_connect))

    async def scenario():
        servers = _site_servers()
        addrs = {name: await server.start() for name, server in servers.items()}
        await servers["hospital-1"].close()
        closed_port = addrs["hospital-1"][1]
        gateway = TcpGateway(addrs)
        try:
            answers = [await gateway.aexecute(parse_query(text)) for _ in range(10)]
            within = dials.count(closed_port)
            await asyncio.sleep(RetryPolicy().max_delay_s)
            after = await gateway.aexecute(parse_query(text))
            return answers + [after], within, dials.count(closed_port)
        finally:
            await gateway.aclose()
            for server in servers.values():
                await server.close()

    answers, within, total = asyncio.run(scenario())
    assert within <= 3, within
    assert total > within
    for answer in answers:
        assert set(answer.failed_sites) == {"hospital-1"}
        assert sorted(answer.site_partials) == ["hospital-0", "hospital-2"]


def _recording_sends(monkeypatch):
    """The (site, requests) of every frame a ``TcpGateway`` sends."""
    frames = []
    send = TcpGateway.send

    def recorded(self, site, requests, futures=None):
        frames.append((site, len(requests)))
        return send(self, site, requests, futures)

    monkeypatch.setattr(TcpGateway, "send", recorded)
    return frames


def test_a_site_closed_while_a_shared_frame_is_on_the_wire_fails_only_its_entries(
    monkeypatch,
):
    """Four queries start in one turn: the last three share one frame per
    site.  hospital-1 answers only after 2 s and is closed while its frames
    wait: every query reports it failed and composes the other two sites'
    answers; nothing raises."""
    text = QUERIES[0]
    expected = _two_site_answer(text, ["hospital-0", "hospital-2"])
    frames = _recording_sends(monkeypatch)

    async def scenario():
        servers = _site_servers(slow_site="hospital-1", delay_s=2.0)
        addrs = {name: await server.start() for name, server in servers.items()}
        gateway = TcpGateway(addrs, max_connections_per_site=1)
        try:
            await gateway.acatalog()  # the pools are full: every send is written
            queries = asyncio.gather(
                *(gateway.aexecute(parse_query(text), timeout_s=5.0) for _ in range(4))
            )
            await asyncio.sleep(0.05)  # every frame is out; hospital-1's handlers wait
            await servers["hospital-1"].close()
            return await queries
        finally:
            await gateway.aclose()
            for server in servers.values():
                await server.close()

    answers = asyncio.run(scenario())
    assert ("hospital-1", 3) in frames
    for answer in answers:
        assert set(answer.failed_sites) == {"hospital-1"}
        assert sorted(answer.site_partials) == ["hospital-0", "hospital-2"]
        assert answer.result_hash == expected.result_hash


def test_a_model_fit_does_not_hold_back_an_aggregate_sent_in_the_same_turn(monkeypatch):
    """While one query is in flight, a ``train`` query and an aggregate start
    in one turn, at sites whose model fits wait on a gate.  The fit's
    requests leave at once in frames of their own; the aggregate's are held
    for the end of the turn, and answered while the gate is still shut."""
    frames = _recording_sends(monkeypatch)

    async def scenario():
        gate = asyncio.Event()
        servers = _site_servers()
        for server in servers.values():
            spec = server.registry.get("site.query")

            async def gated(_answer=spec.handler, **params):
                if params["vector"]["intent"] == "train":
                    await gate.wait()
                return await _answer(**params)

            spec.handler = gated
        addrs = {name: await server.start() for name, server in servers.items()}
        gateway = TcpGateway(addrs, max_connections_per_site=1)
        try:
            await gateway.acatalog()  # the pools are full: every send is written
            first = asyncio.ensure_future(gateway.aexecute(parse_query(QUERIES[0])))
            await asyncio.sleep(0)  # its requests are out, its answers are not
            fit = asyncio.ensure_future(gateway.aexecute(parse_query("train a stroke model")))
            aggregate = asyncio.ensure_future(gateway.aexecute(parse_query(QUERIES[1])))
            answered = await asyncio.wait_for(aggregate, 5.0)
            fitting = not fit.done()
            gate.set()
            return await first, answered, fitting, await fit
        finally:
            await gateway.aclose()
            for server in servers.values():
                await server.close()

    first, aggregate, fitting, fit = asyncio.run(scenario())
    assert fitting
    assert not first.failed_sites and not aggregate.failed_sites
    assert sorted(fit.site_partials) == list(SITES)
    # The first query's frames, then the fit's, then the held aggregate's.
    assert frames == [(site, 1) for site in SITES] * 3
