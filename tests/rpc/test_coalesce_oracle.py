"""A query whose requests shared frames against the same query run alone.

While another query is in flight, the gateway holds a query's aggregate
``site.query`` requests for the end of the event-loop turn and sends each
site every request of that turn in one frame.  Hypothesis draws 1-6 queries
(E22's five shapes, a ``describe`` and a ``compare``) and the loop turn each
starts in, runs them at once over ``TcpGateway`` and ``InprocGateway``, and
holds every answer to the answer the same query gets alone.
"""

from __future__ import annotations

import asyncio
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.query.parser import parse_query
from repro.rpc.gateway import InprocGateway, TcpGateway
from repro.rpc.methods import build_site_registry
from repro.rpc.server import RpcServer
from repro.rpc.site_server import build_site

SITES = ("hospital-0", "hospital-1", "hospital-2")
SHAPES = (
    "how many patients have diabetes",
    "prevalence of stroke among smokers",
    "average systolic blood pressure for women over 50",
    "histogram of bmi between 15 and 55 with 8 bins",
    "how many women over 60 have hypertension",
    "describe systolic blood pressure",
    "compare systolic blood pressure between men and women",
)
FIELDS = ("result", "result_hash", "site_partials", "failed_sites", "bytes_on_wire")
#: A tier-1 run stays well under 10 s; the scheduled stress profile draws more.
EXAMPLES = 1000 if os.environ.get("HYPOTHESIS_PROFILE") == "ci-stress" else 100


def _fields(answer):
    return {name: getattr(answer, name) for name in FIELDS}


@pytest.fixture(scope="module")
def registries():
    return {name: build_site_registry(build_site(name, len(SITES), 60, 2026)) for name in SITES}


@pytest.fixture(scope="module")
def alone(registries):
    """Each shape's answer from a gateway that runs nothing else."""
    gateway = InprocGateway({name: RpcServer(r, name=name) for name, r in registries.items()})
    try:
        return {text: _fields(gateway.execute(parse_query(text))) for text in SHAPES}
    finally:
        gateway.close()


async def _together(gateway, queries):
    async def one(text, turn):
        for _ in range(turn):
            await asyncio.sleep(0)
        return await gateway.aexecute(parse_query(text))

    return await asyncio.gather(*(one(text, turn) for text, turn in queries))


async def _both_transports(registries, queries):
    servers = {name: RpcServer(r, name=name) for name, r in registries.items()}
    addrs = {name: await server.start() for name, server in servers.items()}
    tcp = TcpGateway(addrs, max_connections_per_site=1)  # full once listed: no dialling
    inproc = InprocGateway(servers)
    try:
        await tcp.acatalog()
        await inproc.acatalog()
        return await _together(tcp, queries), await _together(inproc, queries)
    finally:
        await tcp.aclose()
        await inproc.aclose()


_SCHEDULES = st.one_of(
    st.lists(st.sampled_from(SHAPES), min_size=1, max_size=6).map(
        lambda texts: [(text, 0) for text in texts]  # every query starts in one turn
    ),
    st.lists(st.tuples(st.sampled_from(SHAPES), st.integers(0, 3)), min_size=1, max_size=6),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(queries=_SCHEDULES)
def test_every_answer_equals_the_query_run_alone(registries, alone, queries):
    tcp, inproc = asyncio.run(_both_transports(registries, queries))
    for (text, _), over_tcp, in_process in zip(queries, tcp, inproc):
        assert _fields(over_tcp) == alone[text], text
        assert _fields(in_process) == alone[text], text
