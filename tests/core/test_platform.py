"""Platform tests: boot, registration, grants, catalog, control path."""

import pytest

from repro.common.errors import AccessDeniedError
from repro.common.signatures import KeyPair
from repro.contracts.deploy import platform_contract_ids
from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
from repro.rpc.demo import build_demo_network

#: The head of a 3-site demo boot: the deploy schedule (one block per
#: contract, each tx stamped with the sim clock) and everything after it.
DEMO_HEAD_ID = "0c2efd80658da404e1d86831bc4b6dd056e06138377c18a3dc5ff24a1b9c09de"


@pytest.fixture(scope="module")
def platform(multi_site_cohorts):
    """Booted 3-site PoA platform with one dataset per site."""
    network = MedicalBlockchainNetwork(
        PlatformConfig(site_count=3, consensus="poa", include_fda=True, seed=42)
    )
    formats = ["hl7v2", "fhirjson", "legacycsv"]
    for index, (site, records) in enumerate(sorted(multi_site_cohorts.items())):
        network.register_dataset(site, f"emr-{site}", records, fmt=formats[index])
    return network


@pytest.fixture(scope="module")
def researcher(platform):
    keypair = KeyPair.generate("test-researcher")
    for site in platform.site_names:
        platform.grant_access(site, f"emr-{site}", keypair.address, "research")
    return keypair


class TestBoot:
    def test_all_nodes_running(self, platform):
        assert len(platform.nodes) == 4  # 3 hospitals + fda
        heights = {node.head.height for node in platform.nodes.values()}
        assert len(heights) == 1

    def test_contracts_deployed_everywhere(self, platform):
        for node in platform.nodes.values():
            info = node.executor.contract_info(
                node.state, platform.contracts.data_contract_id
            )
            assert info is not None and info.name == "data-registry"

    def test_three_contract_categories(self, platform):
        contracts = platform.contracts
        assert len(
            {
                contracts.data_contract_id,
                contracts.analytics_contract_id,
                contracts.trial_contract_id,
            }
        ) == 3

    def test_tools_registered_on_chain(self, platform):
        node = platform.nodes["hospital-0"]
        tool = node.call_view(
            platform.contracts.analytics_contract_id,
            "get_tool",
            {"tool_id": "prevalence"},
        )
        assert tool is not None

    def test_state_roots_identical(self, platform):
        roots = {node.state.state_root() for node in platform.nodes.values()}
        assert len(roots) == 1

    def test_the_contract_ids_are_computed_before_boot(self, platform):
        assert platform.contracts == platform_contract_ids(
            KeyPair.generate("platform-deployer")
        )

    def test_unknown_consensus_rejected(self):
        with pytest.raises(Exception):
            MedicalBlockchainNetwork(PlatformConfig(site_count=1, consensus="magic"))


class TestDatasets:
    def test_catalog_lists_every_dataset(self, platform, multi_site_cohorts):
        catalog = platform.catalog()
        assert len(catalog) == 3
        assert {ref.site for ref in catalog} == set(multi_site_cohorts)

    def test_record_counts_match(self, platform, multi_site_cohorts):
        for ref in platform.catalog():
            assert ref.record_count == len(multi_site_cohorts[ref.site])

    def test_anchor_matches_store(self, platform):
        site = platform.sites["hospital-0"]
        entry = site.node.call_view(
            platform.contracts.data_contract_id,
            "get_dataset",
            {"dataset_id": "emr-hospital-0"},
        )
        assert entry["merkle_root"] == site.store.anchor("emr-hospital-0").root_hex

    def test_duplicate_registration_fails(self, platform, multi_site_cohorts):
        with pytest.raises(Exception):
            platform.register_dataset(
                "hospital-0", "emr-hospital-0", multi_site_cohorts["hospital-0"]
            )


class TestControlPath:
    def test_task_executes_with_grant(self, platform, researcher):
        """Full Figure 1 path: on-chain request -> event -> local execution
        -> on-chain result hash."""
        from repro.chain.transactions import make_call

        node = platform.nodes["hospital-0"]
        params_ref = platform.depot.put({"outcome": "stroke", "filters": {}})
        tx = make_call(
            researcher,
            platform.contracts.analytics_contract_id,
            "request_task",
            {
                "task_id": "ctl-test-1",
                "tool_id": "prevalence",
                "dataset_ids": ["emr-hospital-1"],
                "params": {"params_ref": params_ref},
                "purpose": "research",
            },
            nonce=node.state.nonce(researcher.address),
            timestamp_ms=int(platform.kernel.now * 1000),
        )
        node.submit_tx(tx)
        control = platform.sites["hospital-1"].control
        platform.kernel.run(
            until=platform.kernel.now + 120,
            stop_when=lambda: "ctl-test-1" in control.completed,
        )
        result = control.completed["ctl-test-1"]
        assert result.result["n"] > 0
        # Result hash is anchored on chain.
        task = node.call_view(
            platform.contracts.analytics_contract_id,
            "get_task",
            {"task_id": "ctl-test-1"},
        )
        platform.run(30)
        task = node.call_view(
            platform.contracts.analytics_contract_id,
            "get_task",
            {"task_id": "ctl-test-1"},
        )
        assert task["status"] == "completed"
        assert task["result_hash"] == result.result_hash

    def test_a_dataset_named_twice_is_read_once(self, platform, researcher, monkeypatch):
        """Regression: a repeated id in ``TaskRequested`` counted the
        dataset's records twice and ran its access check twice."""
        from repro.chain.transactions import make_call

        node = platform.nodes["hospital-0"]
        control = platform.sites["hospital-1"].control
        checks = []
        enforce = control._enforce_access
        monkeypatch.setattr(
            control, "_enforce_access", lambda *args: checks.append(args) or enforce(*args)
        )
        params_ref = platform.depot.put({"outcome": "stroke", "filters": {}})
        tx = make_call(
            researcher,
            platform.contracts.analytics_contract_id,
            "request_task",
            {
                "task_id": "ctl-test-twice",
                "tool_id": "prevalence",
                "dataset_ids": ["emr-hospital-1", "emr-hospital-1"],
                "params": {"params_ref": params_ref},
                "purpose": "research",
            },
            nonce=node.state.nonce(researcher.address),
            timestamp_ms=int(platform.kernel.now * 1000),
        )
        node.submit_tx(tx)
        platform.kernel.run(
            until=platform.kernel.now + 120,
            stop_when=lambda: "ctl-test-twice" in control.completed,
        )
        result = control.completed["ctl-test-twice"]
        assert result.records_used == platform.sites["hospital-1"].store.record_count(
            "emr-hospital-1"
        )
        assert result.result["n"] == result.records_used
        assert len(checks) == 1
        # Nobody opted out, so the tool read the store's cached table: its
        # outcome column was projected once and kept.
        projections = platform.sites["hospital-1"].store.column_projections
        assert projections[("emr-hospital-1", ("outcomes", "stroke"))] == 1

    def test_task_denied_without_grant(self, platform):
        from repro.chain.transactions import make_call

        stranger = KeyPair.generate("stranger-without-grant")
        node = platform.nodes["hospital-0"]
        params_ref = platform.depot.put({"outcome": "stroke", "filters": {}})
        tx = make_call(
            stranger,
            platform.contracts.analytics_contract_id,
            "request_task",
            {
                "task_id": "ctl-test-denied",
                "tool_id": "prevalence",
                "dataset_ids": ["emr-hospital-1"],
                "params": {"params_ref": params_ref},
                "purpose": "research",
            },
            nonce=node.state.nonce(stranger.address),
            timestamp_ms=int(platform.kernel.now * 1000),
        )
        node.submit_tx(tx)
        control = platform.sites["hospital-1"].control
        platform.kernel.run(
            until=platform.kernel.now + 120,
            stop_when=lambda: "ctl-test-denied" in control.rejected,
        )
        assert "ctl-test-denied" in control.rejected
        assert "no on-chain grant" in control.rejected["ctl-test-denied"]

    def test_monitor_saw_task_events(self, platform):
        monitor = platform.sites["hospital-1"].monitor
        assert monitor.events_named("TaskRequested")


class TestExchange:
    def test_exchange_respects_grants(self, platform, researcher):
        from repro.sharing.encryption import decrypt

        exchange = platform.sites["hospital-0"].exchange
        receipt = exchange.request_records(researcher, "emr-hospital-0", "research")
        payload = decrypt(researcher.private, receipt.envelope)
        assert len(payload["records"]) == receipt.record_count

    def test_exchange_denies_strangers(self, platform):
        stranger = KeyPair.generate("exchange-stranger")
        exchange = platform.sites["hospital-0"].exchange
        with pytest.raises(AccessDeniedError):
            exchange.request_records(stranger, "emr-hospital-0", "research")
        assert any(entry.action == "deny" for entry in exchange.audit.entries())

    def test_audit_chain_valid(self, platform):
        for site in platform.sites.values():
            assert site.exchange.audit.verify()

    def test_fda_collects_under_grants(self, platform):
        fda = platform.fda
        for site in platform.site_names:
            platform.grant_access(
                site, f"emr-{site}", fda.keypair.address, "regulatory-review"
            )
        receipts = fda.collect(
            [platform.sites[name].exchange for name in platform.site_names],
            {name: f"emr-{name}" for name in platform.site_names},
            "regulatory-review",
        )
        assert len(receipts) == 3
        pooled = fda.decrypt_all()
        assert len(pooled) == sum(r.record_count for r in receipts)


class TestSiteOracle:
    """Figure 3: each site's oracle bridges chain and external world."""

    def test_endpoints_registered(self, platform):
        oracle = platform.sites["hospital-0"].monitor.oracle
        assert {"list_datasets", "record_count", "verify_dataset"} <= set(
            oracle.endpoints()
        )

    def test_list_and_count(self, platform, multi_site_cohorts):
        oracle = platform.sites["hospital-0"].monitor.oracle
        listed = oracle.call("list_datasets")
        assert listed["dataset_ids"] == ["emr-hospital-0"]
        count = oracle.call("record_count", {"dataset_id": "emr-hospital-0"})
        assert count["count"] == len(multi_site_cohorts["hospital-0"])

    def test_verify_dataset_intact(self, platform):
        oracle = platform.sites["hospital-1"].monitor.oracle
        result = oracle.call("verify_dataset", {"dataset_id": "emr-hospital-1"})
        assert result == {
            "dataset_id": "emr-hospital-1", "registered": True, "intact": True,
        }

    def test_verify_dataset_unregistered(self, platform):
        oracle = platform.sites["hospital-0"].monitor.oracle
        result = oracle.call("verify_dataset", {"dataset_id": "ghost"})
        assert not result["registered"]

    def test_calls_are_audited(self, platform):
        oracle = platform.sites["hospital-0"].monitor.oracle
        before = len(oracle.call_log)
        oracle.call("list_datasets")
        assert len(oracle.call_log) == before + 1
        assert oracle.call_log[-1].ok


def test_default_platform_disseminates_through_p2p():
    """The flagship path runs the system E22 measures: in a default platform
    every node creates txs and blocks and pushes their bodies to its peers,
    and every node receives each body once."""
    from repro.core.queryservice import GlobalQueryService
    from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
    from repro.query.vector import QueryVector

    platform = MedicalBlockchainNetwork()
    site = platform.site_names[0]
    records = CohortGenerator(seed=1).generate_cohort(default_site_profiles(1)[0], 20)
    platform.register_dataset(site, "emr", records)
    researcher = KeyPair.generate("p2p-researcher")
    platform.grant_access(site, "emr", researcher.address, "research")
    answer = GlobalQueryService(platform, researcher).execute(
        QueryVector(intent="count", purpose="research"), timeout_s=120
    )
    assert answer.result["count"] == 20
    platform.run(5)  # let the last block reach every follower
    for name in platform.nodes:
        assert platform.metrics.counter("p2p_push_sent", scope=name) > 0
        assert platform.metrics.counter("p2p_push_recv", scope=name) > 0
        assert platform.metrics.counter("p2p_duplicate_bodies", scope=name) == 0
    assert len({node.head.block_id for node in platform.nodes.values()}) == 1
    assert len({node.state.state_root() for node in platform.nodes.values()}) == 1


def test_a_demo_boot_keeps_its_head_block_id():
    demo, _ = build_demo_network(3)
    assert {node.head.block_id for node in demo.nodes.values()} == {DEMO_HEAD_ID}
