"""The gateway's cached catalog: fetched once, validated by the site on use."""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Dict, List, Optional

import pytest

from repro.analytics.tools import standard_registry
from repro.common.serialize import canonical_bytes
from repro.datamgmt.store import HospitalDataStore
from repro.obs.tracer import Tracer, tracer_override
from repro.offchain.tasks import TaskRunner
from repro.query.parser import parse_query
from repro.rpc.errors import STALE_CATALOG, StaleCatalogError
from repro.rpc.gateway import InprocGateway, TcpGateway
from repro.rpc.methods import SiteService, build_site_registry, vector_to_wire
from repro.rpc.server import RpcServer

QUERIES = (
    "how many patients have diabetes",
    "prevalence of stroke among smokers",
    "average systolic blood pressure for women over 50",
)
TRANSPORTS = ("inproc", "tcp")


class Sites:
    """Data-only site servers over real stores, one metrics registry each."""

    def __init__(
        self,
        cohorts: Dict[str, List[Dict[str, Any]]],
        store_classes: Optional[Dict[str, type]] = None,
    ):
        self.stores: Dict[str, HospitalDataStore] = {}
        self.servers: Dict[str, RpcServer] = {}
        for site, records in cohorts.items():
            store_cls = (store_classes or {}).get(site, HospitalDataStore)
            store = self.stores[site] = store_cls(site)
            if records:
                store.add_canonical(f"emr-{site}", records)
            service = SiteService(
                name=site, store=store, runner=TaskRunner(site, standard_registry())
            )
            self.servers[site] = RpcServer(build_site_registry(service), name=site)

    def calls(self, method: str) -> Dict[str, int]:
        return {
            site: int(server.metrics.counter(f"rpc_calls[{method}]", scope=site))
            for site, server in self.servers.items()
        }

    def refusals(self) -> Dict[str, int]:
        name = f"rpc_errors[site.query:code_{STALE_CATALOG}]"
        return {
            site: int(server.metrics.counter(name, scope=site))
            for site, server in self.servers.items()
        }

    def fresh_gateway(self) -> InprocGateway:
        """A gateway that has cached nothing: what a correct answer looks like."""
        return InprocGateway(self.servers)

    @contextlib.asynccontextmanager
    async def gateway(self, transport: str):
        if transport == "inproc":
            gateway = InprocGateway(self.servers)
        else:
            gateway = TcpGateway(
                {site: await server.start() for site, server in self.servers.items()}
            )
        try:
            yield gateway
        finally:
            await gateway.aclose()
            for server in self.servers.values():
                await server.close()


@pytest.fixture
def sites(multi_site_cohorts) -> Sites:
    return Sites({site: records[:40] for site, records in multi_site_cohorts.items()})


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_n_queries_cost_one_catalog_call_per_site(sites, transport):
    tracer = Tracer()

    async def run():
        async with sites.gateway(transport) as gateway:
            with tracer_override(tracer):
                for _ in range(2):
                    for text in QUERIES:
                        await gateway.aexecute(parse_query(text))
                await gateway.acatalog()

    asyncio.run(run())
    assert sites.calls("site.catalog") == dict.fromkeys(sites.servers, 1)
    assert sites.calls("site.query") == dict.fromkeys(sites.servers, 2 * len(QUERIES))
    called = [s.attrs["method"] for s in tracer.spans if s.name == "rpc.call"]
    assert called.count("site.catalog") == len(sites.servers)
    assert called.count("site.query") == 2 * len(QUERIES) * len(sites.servers)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_new_dataset_is_seen_by_the_next_query_for_one_extra_round_trip(
    sites, multi_site_cohorts, transport
):
    changed, *others = sorted(sites.servers)
    vector = parse_query(QUERIES[0])

    async def run():
        async with sites.gateway(transport) as gateway:
            before = await gateway.aexecute(vector)
            sites.stores[changed].add_canonical(
                "emr-second", multi_site_cohorts[changed][40:70], fmt="hl7v2"
            )
            after = await gateway.aexecute(vector)
            counts = sites.calls("site.catalog"), sites.calls("site.query")
            settled = await gateway.aexecute(vector)
            return before, after, counts, settled, await sites.fresh_gateway().aexecute(vector)

    before, after, (catalog_calls, query_calls), settled, reference = asyncio.run(run())
    assert after.result_hash == reference.result_hash != before.result_hash
    assert not after.failed_sites
    assert sites.refusals() == {changed: 1, **dict.fromkeys(others, 0)}
    assert query_calls == {changed: 3, **dict.fromkeys(others, 2)}
    assert catalog_calls == dict.fromkeys(sites.servers, 1)  # the refusal carried the listing
    assert settled.result_hash == reference.result_hash
    assert settled.bytes_on_wire < after.bytes_on_wire  # the refused attempt is counted


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_site_that_hosted_nothing_is_picked_up_with_its_first_dataset(
    multi_site_cohorts, transport
):
    hosting, empty = sorted(multi_site_cohorts)[:2]
    sites = Sites({hosting: multi_site_cohorts[hosting][:40], empty: []})
    vector = parse_query(QUERIES[1])

    async def run():
        async with sites.gateway(transport) as gateway:
            alone = await gateway.aexecute(vector)
            sites.stores[empty].add_canonical("emr-first", multi_site_cohorts[empty][:40])
            both = await gateway.aexecute(vector)
            await gateway.aexecute(vector)
            return alone, both, await sites.fresh_gateway().aexecute(vector)

    alone, both, reference = asyncio.run(run())
    assert sorted(alone.site_partials) == [hosting]
    assert sorted(both.site_partials) == sorted([hosting, empty])
    assert both.result_hash == reference.result_hash
    # An empty listing is asked for again before each plan; a full one never.
    assert sites.calls("site.catalog") == {hosting: 1 + 1, empty: 2 + 1}  # + the reference's
    assert sites.refusals() == {hosting: 0, empty: 0}


def test_site_query_checks_the_version_only_when_one_is_named(sites):
    site = sorted(sites.servers)[0]
    vector = parse_query(QUERIES[0])
    params = {"vector": vector_to_wire(vector), "dataset_ids": [f"emr-{site}"]}

    async def run():
        async with sites.gateway("tcp") as gateway:
            listing = await gateway.acall(site, "site.catalog")
            unversioned = await gateway.acall(site, "site.query", params)
            current = await gateway.acall(
                site, "site.query", {**params, "catalog_version": listing["version"]}
            )
            with pytest.raises(StaleCatalogError) as refused:
                await gateway.acall(
                    site, "site.query", {**params, "catalog_version": "0" * 16}
                )
            return listing, unversioned, current, refused.value

    listing, unversioned, current, error = asyncio.run(run())
    assert listing["version"] == sites.stores[site].catalog_version()
    assert unversioned["result_hash"] == current["result_hash"]
    assert error.code == STALE_CATALOG
    assert error.data == listing  # the typed error crossed the wire with the listing
    # What the tag adds to a sub-query's share of ``bytes_on_wire``.
    tagged = {**params, "catalog_version": listing["version"]}
    assert 0 < len(canonical_bytes(tagged)) - len(canonical_bytes(params)) <= 40


class _RestlessStore(HospitalDataStore):
    """Claims a new listing every time it is asked."""

    asked = 0

    def catalog_version(self) -> str:
        self.asked += 1
        return f"restless-{self.asked:07d}"


def test_second_stale_reply_is_a_failed_site_not_a_loop(multi_site_cohorts):
    steady, restless = sorted(multi_site_cohorts)[:2]
    sites = Sites(
        {site: multi_site_cohorts[site][:40] for site in (steady, restless)},
        {restless: _RestlessStore},
    )

    async def run():
        async with sites.gateway("inproc") as gateway:
            return await gateway.aexecute(parse_query(QUERIES[0]))

    answer = asyncio.run(run())
    assert sorted(answer.site_partials) == [steady]
    assert answer.failed_sites[restless].startswith(f"[{STALE_CATALOG}]")
    assert sites.calls("site.query") == {steady: 1, restless: 2}
