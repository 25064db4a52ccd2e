"""End-to-end real-world-evidence clinical trial over the platform (E11)."""

import pytest

from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.offchain.anchoring import DatasetAnchor
from repro.trial.auditor import PublishedReport, TrialAuditor
from repro.trial.monitor import RWEMonitor
from repro.trial.protocol import TrialProtocol
from repro.trial.simulation import assign_arms, simulate_follow_up


@pytest.fixture(scope="module")
def trial_world():
    platform = MedicalBlockchainNetwork(
        PlatformConfig(site_count=3, consensus="poa", include_fda=True, seed=55)
    )
    generator = CohortGenerator(seed=550)
    profiles = default_site_profiles(3)
    cohorts = generator.generate_multi_site(profiles, 120)
    protocol = TrialProtocol(
        trial_id="NCT-E2E-1",
        title="anticoag-x RWE trial",
        drug="anticoag-x",
        primary_outcomes=["stroke"],
        secondary_outcomes=["mortality"],
        subgroups=["rs2200733"],
        target_enrollment=300,
        follow_up_days=365,
    )
    sponsor = platform.sites["hospital-0"]
    tx = sponsor.control.submit_signed_call(
        platform.contracts.trial_contract_id,
        "register_trial",
        protocol.to_registration_args(),
    )
    receipt = platform.chain.commit(tx)
    assert receipt.success, receipt.error
    return platform, protocol, cohorts


class TestOnChainTrial:
    def test_registration_event_visible_at_fda(self, trial_world):
        platform, protocol, __ = trial_world
        fda_node = platform.nodes["fda"]
        trial = fda_node.call_view(
            platform.contracts.trial_contract_id,
            "get_trial",
            {"trial_id": protocol.trial_id},
        )
        assert trial["protocol_hash"] == protocol.protocol_hash()
        assert trial["outcomes"] == ["stroke", "mortality"]

    def test_multi_site_recruitment(self, trial_world):
        platform, protocol, cohorts = trial_world
        enrolled = 0
        last_tx = None
        for site_name in platform.site_names:
            site = platform.sites[site_name]
            for record in cohorts[site_name][:100]:
                last_tx = site.control.submit_signed_call(
                    platform.contracts.trial_contract_id,
                    "enroll",
                    {
                        "trial_id": protocol.trial_id,
                        "patient_pseudo_id": record["patient_id"],
                        "site": site_name,
                        "arm": "treatment" if enrolled % 2 == 0 else "control",
                    },
                )
                enrolled += 1
        platform.chain.commit(last_tx, timeout_s=900)
        platform.run(60)
        trial = platform.nodes["fda"].call_view(
            platform.contracts.trial_contract_id,
            "get_trial",
            {"trial_id": protocol.trial_id},
        )
        assert trial["enrolled"] == 300
        assert trial["status"] == "active"  # target reached

    def test_continuous_monitoring_detects_signals(self, trial_world):
        platform, protocol, cohorts = trial_world
        patients = [r for site in platform.site_names for r in cohorts[site][:100]]
        arms = assign_arms(patients, protocol, seed=4)
        outcomes = simulate_follow_up(patients, arms, protocol, seed=5)
        monitor = RWEMonitor(alpha=0.05, subgroup_min_per_arm=12)
        monitor.run_stream(outcomes)
        assert monitor.detection_day("safety") is not None or monitor.detection_day(
            "subgroup_efficacy_carriers"
        ) is not None

    def test_outcome_switching_rejected_on_chain(self, trial_world):
        platform, protocol, cohorts = trial_world
        site = platform.sites["hospital-0"]
        patient = cohorts["hospital-0"][0]["patient_id"]
        tx = site.control.submit_signed_call(
            platform.contracts.trial_contract_id,
            "report_outcome",
            {
                "trial_id": protocol.trial_id,
                "patient_pseudo_id": patient,
                "outcome": "convenient_surrogate",
                "value_milli": 1,
                "data_hash": "aa" * 32,
            },
        )
        receipt = platform.chain.commit(tx)
        assert not receipt.success
        platform.run(30)
        switching_events = platform.sites["hospital-1"].monitor.events_named(
            "OutcomeSwitchingDetected"
        )
        # The event is emitted inside the failed call and rolled back with
        # it, so detection happens through the *rejection*, which is public.
        assert "not pre-registered" in receipt.error or switching_events == []

    def test_registered_outcome_accepted(self, trial_world):
        platform, protocol, cohorts = trial_world
        site = platform.sites["hospital-0"]
        patient = cohorts["hospital-0"][0]["patient_id"]
        tx = site.control.submit_signed_call(
            platform.contracts.trial_contract_id,
            "report_outcome",
            {
                "trial_id": protocol.trial_id,
                "patient_pseudo_id": patient,
                "outcome": "stroke",
                "value_milli": 1000,
                "data_hash": "bb" * 32,
            },
        )
        receipt = platform.chain.commit(tx)
        assert receipt.success

    def test_adverse_events_counted_on_chain(self, trial_world):
        platform, protocol, cohorts = trial_world
        site = platform.sites["hospital-1"]
        last_tx = None
        for record in cohorts["hospital-1"][:5]:
            last_tx = site.control.submit_signed_call(
                platform.contracts.trial_contract_id,
                "report_adverse_event",
                {
                    "trial_id": protocol.trial_id,
                    "patient_pseudo_id": record["patient_id"],
                    "severity": 3,
                    "description_hash": "cc" * 32,
                },
            )
        platform.chain.commit(last_tx, timeout_s=300)
        count = platform.nodes["fda"].call_view(
            platform.contracts.trial_contract_id,
            "adverse_event_count",
            {"trial_id": protocol.trial_id},
        )
        assert count == 5

    def test_post_publication_audit(self, trial_world):
        """Irving & Holden + COMPare, end to end: the published report is
        checked against the on-chain registration and the data anchor."""
        platform, protocol, cohorts = trial_world
        raw = [dict(record) for record in cohorts["hospital-0"][:50]]
        anchor = DatasetAnchor.build(raw)
        # Sponsor publishes with a switched outcome and a falsified record.
        raw_tampered = [dict(record) for record in raw]
        original = raw_tampered[10]["outcomes"]
        raw_tampered[10]["outcomes"] = {
            **original, "stroke": 1 - original["stroke"],  # guaranteed change
        }
        report = PublishedReport(
            protocol.trial_id,
            claimed_outcomes=["stroke", "quality_of_life"],
            raw_records=raw_tampered,
        )
        registered = platform.nodes["fda"].call_view(
            platform.contracts.trial_contract_id,
            "get_trial",
            {"trial_id": protocol.trial_id},
        )["outcomes"]
        finding = TrialAuditor().audit(registered, report, anchor.root_hex)
        assert not finding.reported_correctly
        assert finding.switched_in == ["quality_of_life"]
        assert not finding.data_intact
