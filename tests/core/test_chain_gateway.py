"""The chain as a gateway transport: one query round over three transports.

``ChainGateway`` runs each ``site.query`` as a ``request_task`` transaction
that the site's control code answers; ``InprocGateway`` and ``TcpGateway``
run it at site servers.  All three go through ``Gateway.aexecute``, so every
answer field but the clock reads the same on each.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.analytics.features import FEATURE_DIM
from repro.analytics.models import LogisticModel, MLPModel
from repro.common.errors import LearningError
from repro.core.chain_gateway import ChainGateway
from repro.core.queryservice import GlobalQueryService
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.query.vector import QueryVector
from repro.rpc.demo import build_demo_network, build_inproc_gateway, build_site_server
from repro.rpc.errors import STALE_CATALOG, TIMEOUT
from repro.rpc.gateway import TcpGateway
from repro.rpc.runtime import EventLoopThread

#: E22's five ``federated_query`` shapes.
SHAPES = (
    "how many patients have diabetes",
    "prevalence of stroke among smokers",
    "average systolic blood pressure for women over 50",
    "histogram of bmi between 15 and 55 with 8 bins",
    "how many women over 60 have hypertension",
)
FIELDS = ("result", "result_hash", "site_partials", "failed_sites", "bytes_on_wire")


def build_world(seed):
    return build_demo_network(site_count=3, records_per_site=60, seed=seed)


@pytest.fixture(scope="module")
def transports():
    """One service per transport over the same platform's sites."""
    platform, researcher = build_world(seed=31)
    servers_loop = EventLoopThread(name="chain-gateway-test-sites")
    servers = {site: build_site_server(platform, site) for site in platform.site_names}
    addrs = {site: servers_loop.run(server.start()) for site, server in servers.items()}
    tcp = TcpGateway(addrs)
    inproc = build_inproc_gateway(platform)
    services = {
        "chain": GlobalQueryService(platform, researcher),
        "inproc": GlobalQueryService(platform, researcher, gateway=inproc),
        "tcp": GlobalQueryService(platform, researcher, gateway=tcp),
    }
    yield services
    tcp.close()
    inproc.close()
    for server in servers.values():
        servers_loop.run(server.close())
    servers_loop.close()


def assert_same_answers(answers):
    chain = answers["chain"]
    assert chain.transport == "chain"
    for name in ("inproc", "tcp"):
        for field in FIELDS:
            assert getattr(answers[name], field) == getattr(chain, field), (name, field)


@pytest.mark.parametrize("text", SHAPES)
def test_the_five_e22_shapes_answer_alike_on_every_transport(transports, text):
    answers = {name: service.ask(text) for name, service in transports.items()}
    assert_same_answers(answers)
    assert not answers["chain"].failed_sites
    # The sites work in the same simulated seconds: one block interval and
    # its links, not one per site.
    assert 0 < answers["chain"].latency_s < 2.0


def test_evaluate_model_answers_alike_on_every_transport(transports):
    model = LogisticModel(FEATURE_DIM)
    vector = QueryVector(intent="evaluate", outcome="stroke")
    answers = {
        name: service.evaluate_model(model, vector) for name, service in transports.items()
    }
    assert_same_answers(answers)
    assert 0.0 <= answers["chain"].result["auc"] <= 1.0


def test_two_training_rounds_answer_alike_on_every_transport(transports):
    vector = QueryVector(intent="train", outcome="stroke", rounds=2)
    answers = {name: service.execute(vector) for name, service in transports.items()}
    assert_same_answers(answers)
    one_round = transports["chain"].execute(
        QueryVector(intent="train", outcome="stroke", rounds=1)
    )
    # The second round started from the first round's averaged params.
    assert one_round.result_hash != answers["chain"].result_hash


def test_a_service_starts_no_thread():
    platform, researcher = build_world(seed=32)
    before = threading.active_count()
    for text in SHAPES[:3]:
        GlobalQueryService(platform, researcher).ask(text)
    assert threading.active_count() == before


def test_a_sync_call_inside_a_running_loop_is_refused(transports):
    async def inside():
        with pytest.raises(RuntimeError, match="await aexecute"):
            transports["chain"].ask(SHAPES[0])

    asyncio.run(inside())


def test_a_tool_error_raises_from_the_query_and_the_next_is_answered():
    """The sites' tool raises on a model whose parameters do not fit: the
    error leaves the kernel run inside the query's event loop and must reach
    the caller, not leave the query waiting for a kernel nobody runs."""
    platform, researcher = build_world(seed=36)
    service = GlobalQueryService(platform, researcher)
    raised = []

    def evaluate():
        try:
            service.evaluate_model(
                MLPModel(FEATURE_DIM), QueryVector(intent="evaluate", outcome="stroke")
            )
        except LearningError as exc:
            raised.append(exc)

    worker = threading.Thread(target=evaluate, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "evaluate_model did not return"
    assert "parameter shape mismatch" in str(raised[0])
    answer = service.ask(SHAPES[0])
    assert not answer.failed_sites


def test_a_dataset_registered_after_a_query_is_used_by_the_next(monkeypatch):
    """The gateway keeps the listing it planned the first query against; the
    chain refuses the second query's plan for the site whose listing grew,
    and the gateway plans again over the fresh listing."""
    platform, researcher = build_world(seed=33)
    service = GlobalQueryService(platform, researcher)
    first = service.ask(SHAPES[0])
    refusals = []
    recover = ChainGateway._recover

    async def recorded(self, vector, query_id, encoded, params, task, sent, error, timeout_s):
        refusals.append((task.site, getattr(error, "code", None)))
        return await recover(self, vector, query_id, encoded, params, task, sent, error, timeout_s)

    monkeypatch.setattr(ChainGateway, "_recover", recorded)
    extra = CohortGenerator(seed=5).generate_cohort(default_site_profiles(3)[1], 25)
    platform.register_dataset("hospital-1", "emr-hospital-1-extra", extra)
    platform.grant_access("hospital-1", "emr-hospital-1-extra", researcher.address, "research")
    second = service.ask(SHAPES[0])
    assert refusals == [("hospital-1", STALE_CATALOG)]
    assert not second.failed_sites
    added = sum(1 for record in extra if record["outcomes"]["diabetes"])
    assert second.result["count"] == first.result["count"] + added


def test_a_revoked_grant_is_a_failed_site():
    platform, researcher = build_world(seed=34)
    site = platform.sites["hospital-2"]
    tx = site.control.submit_signed_call(
        platform.contracts.data_contract_id,
        "revoke_access",
        {"dataset_id": "emr-hospital-2", "grantee": researcher.address, "purpose": "research"},
    )
    assert platform.chain.commit(tx).success
    answer = GlobalQueryService(platform, researcher).ask(SHAPES[0])
    assert set(answer.failed_sites) == {"hospital-2"}
    assert "no on-chain grant" in answer.failed_sites["hospital-2"]
    assert sorted(answer.site_partials) == ["hospital-0", "hospital-1"]


def test_a_crashed_site_times_out_once_and_is_never_asked_again(monkeypatch):
    platform, researcher = build_world(seed=35)
    platform.sites["hospital-2"].store._datasets.clear()  # its control code ignores the task
    entry = platform.nodes[platform.node_names[0]]
    requested = []
    submit = entry.submit_tx

    def recorded(tx):
        if tx.payload.get("method") == "request_task":
            requested.append(tx.payload["args"]["task_id"])
        return submit(tx)

    monkeypatch.setattr(entry, "submit_tx", recorded)
    started = platform.kernel.now
    answer = GlobalQueryService(platform, researcher).execute(
        QueryVector(intent="count", purpose="research"), timeout_s=30.0
    )
    assert answer.failed_sites["hospital-2"].startswith(f"[{TIMEOUT}]")
    assert sorted(answer.site_partials) == ["hospital-0", "hospital-1"]
    assert answer.latency_s == pytest.approx(30.0)
    assert platform.kernel.now - started == pytest.approx(30.0)
    assert len(requested) == 3
    assert len({task_id.rsplit("-tx-", 1)[0] for task_id in requested}) == 3
