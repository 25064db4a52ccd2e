"""Integration tests: the full paper pipeline on one platform instance."""

import pytest

from repro.analytics.features import dataset_for
from repro.common.signatures import KeyPair
from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
from repro.core.queryservice import GlobalQueryService
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.query.vector import QueryVector


@pytest.fixture(scope="module")
def generator():
    return CohortGenerator(seed=777)


@pytest.fixture(scope="module")
def world(generator):
    platform = MedicalBlockchainNetwork(
        PlatformConfig(site_count=4, consensus="poa", include_fda=True, seed=77)
    )
    profiles = default_site_profiles(4)
    cohorts = generator.generate_multi_site(profiles, 150)
    formats = ["hl7v2", "fhirjson", "legacycsv", "canonical"]
    for index, site in enumerate(platform.site_names):
        platform.register_dataset(
            site, f"emr-{site}", cohorts[site], fmt=formats[index]
        )
    researcher = KeyPair.generate("e2e-researcher")
    for site in platform.site_names:
        platform.grant_access(site, f"emr-{site}", researcher.address, "research")
    return platform, researcher, cohorts


class TestHeterogeneousIntegration:
    """Figure 3: one virtual cohort over four formats, no data copied."""

    def test_query_spans_all_formats(self, world):
        platform, researcher, cohorts = world
        service = GlobalQueryService(platform, researcher)
        answer = service.ask("how many patients have diabetes")
        expected = sum(
            record["outcomes"]["diabetes"]
            for records in cohorts.values()
            for record in records
        )
        assert answer.result["count"] == expected
        assert len(answer.site_partials) == 4

    def test_federated_model_beats_single_site(self, world, generator):
        platform, researcher, cohorts = world
        service = GlobalQueryService(platform, researcher)
        vector = QueryVector(intent="train", outcome="stroke", rounds=8)
        model = service.train_model(vector)
        test_records = generator.generate_cohort(default_site_profiles(4)[1], 700)
        X, y = dataset_for(test_records, "stroke")
        federated_auc = model.evaluate(X, y)["auc"]
        # single-site baseline
        from repro.analytics.features import FEATURE_DIM
        from repro.analytics.models import LogisticModel

        solo = LogisticModel(FEATURE_DIM, seed=0)
        X_solo, y_solo = dataset_for(cohorts["hospital-0"], "stroke")
        solo.train_epochs(X_solo, y_solo, epochs=16, lr=0.1)
        solo_auc = solo.evaluate(X, y)["auc"]
        assert federated_auc > solo_auc - 0.03  # at worst comparable, usually better

    def test_chain_remains_consistent_after_workload(self, world):
        platform, __, ___ = world
        nodes = platform.nodes.values()
        # The block sealed last may still be on its way to a follower.
        platform.kernel.run(
            until=platform.kernel.now + 60.0,
            stop_when=lambda: len({node.head.block_id for node in nodes}) == 1,
        )
        assert len({node.head.block_id for node in nodes}) == 1
        roots = {node.state.state_root() for node in nodes}
        assert len(roots) == 1
        for node in platform.nodes.values():
            assert node.store.verify_chain_integrity()

    def test_energy_accounting_nonzero(self, world):
        platform, __, ___ = world
        assert platform.total_energy_joules() > 0
        summary = platform.metrics.summary()
        assert summary["gas"] > 0
        assert summary["bytes_transferred"] > 0


class TestIntegrityEnforcement:
    def test_tampered_site_cannot_serve_tasks(self, world):
        """E7's mechanism inside the task path: tampering after anchoring
        makes the control node refuse to execute."""
        platform, researcher, __ = world
        site = platform.sites["hospital-2"]
        site.store.tamper("emr-hospital-2", 5, "pt_id", "forged-id")
        service = GlobalQueryService(platform, researcher)
        vector = QueryVector(intent="count", purpose="research")
        answer = service.execute(vector, timeout_s=120)
        assert "hospital-2" in answer.failed_sites
        assert "anchor" in answer.failed_sites["hospital-2"]
        # Other sites still answered.
        assert len(answer.site_partials) == 3

    def test_failed_task_recorded_on_chain(self, world):
        platform, __, ___ = world
        platform.run(30)
        monitor = platform.sites["hospital-0"].monitor
        failed_events = monitor.events_named("TaskFailed")
        assert failed_events
        assert any(
            "anchor" in event.data.get("reason", "") for event in failed_events
        )
