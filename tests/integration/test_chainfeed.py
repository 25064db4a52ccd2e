"""On-chain events drive the RWE monitor end to end (Figure 4 closed loop)."""

import pytest

from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.trial.chainfeed import ChainTrialFeed
from repro.trial.monitor import RWEMonitor
from repro.trial.protocol import TrialProtocol
from repro.trial.simulation import TrialEffect, assign_arms, simulate_follow_up


@pytest.fixture(scope="module")
def fed_world():
    platform = MedicalBlockchainNetwork(
        PlatformConfig(site_count=2, consensus="poa", include_fda=True, seed=88)
    )
    generator = CohortGenerator(seed=880)
    profiles = default_site_profiles(2)
    cohorts = {
        site: generator.generate_cohort(profiles[index], 60)
        for index, site in enumerate(platform.site_names)
    }
    patients = [record for records in cohorts.values() for record in records]
    protocol = TrialProtocol(
        trial_id="NCT-FEED",
        title="feed test",
        drug="anticoag-x",
        primary_outcomes=["stroke"],
        subgroups=["rs2200733"],
        target_enrollment=len(patients),
        follow_up_days=365,
    )
    sponsor = platform.sites["hospital-0"]
    tx = sponsor.control.submit_signed_call(
        platform.contracts.trial_contract_id,
        "register_trial",
        protocol.to_registration_args(),
    )
    assert platform.chain.commit(tx).success
    genomics = {record["patient_id"]: record["genomics"] for record in patients}
    # The FDA watches the chain: feed wires its monitor node to an RWE monitor.
    fda_monitor_node = platform.sites["hospital-0"].monitor  # any node sees all events
    rwe = RWEMonitor(alpha=0.05, min_per_arm=10, subgroup_min_per_arm=5)
    feed = ChainTrialFeed(
        fda_monitor_node,
        rwe,
        trial_id="NCT-FEED",
        primary_outcome="stroke",
        carrier_lookup=lambda pid: genomics[pid].get("rs2200733", 0) > 0,
    )
    # Enroll everyone and push follow-up through the contract.
    arms = assign_arms(patients, protocol, seed=5)
    outcomes = simulate_follow_up(
        patients, arms, protocol,
        effect=TrialEffect(base_event_rate=0.5, treatment_rr_carriers=0.1),
        seed=6,
    )
    last_tx = None
    for site_name in platform.site_names:
        site = platform.sites[site_name]
        for record in cohorts[site_name]:
            last_tx = site.control.submit_signed_call(
                platform.contracts.trial_contract_id,
                "enroll",
                {
                    "trial_id": "NCT-FEED",
                    "patient_pseudo_id": record["patient_id"],
                    "site": site_name,
                    "arm": arms[record["patient_id"]],
                },
            )
    platform.chain.commit(last_tx, timeout_s=900)
    by_patient = {o.patient_pseudo_id: o for o in outcomes}
    for site_name in platform.site_names:
        site = platform.sites[site_name]
        for record in cohorts[site_name]:
            outcome = by_patient[record["patient_id"]]
            if outcome.adverse_event:
                site.control.submit_signed_call(
                    platform.contracts.trial_contract_id,
                    "report_adverse_event",
                    {
                        "trial_id": "NCT-FEED",
                        "patient_pseudo_id": record["patient_id"],
                        "severity": outcome.adverse_severity,
                        "description_hash": "ab" * 32,
                    },
                )
            last_tx = site.control.submit_signed_call(
                platform.contracts.trial_contract_id,
                "report_outcome",
                {
                    "trial_id": "NCT-FEED",
                    "patient_pseudo_id": record["patient_id"],
                    "outcome": "stroke",
                    "value_milli": 1000 * outcome.event,
                    "data_hash": "cd" * 32,
                },
            )
    platform.chain.commit(last_tx, timeout_s=900)
    platform.run(60)
    return platform, feed, rwe, outcomes


def test_every_patient_tracked(fed_world):
    __, feed, ___, outcomes = fed_world
    assert feed.patients_tracked == len(outcomes)


def test_every_report_ingested(fed_world):
    __, feed, rwe, outcomes = fed_world
    assert rwe.reports_seen == len(outcomes)


def test_subgroup_signal_fires_from_chain_events(fed_world):
    """The strong carrier effect must be detected purely from ledger events."""
    __, feed, rwe, ___ = fed_world
    assert rwe.detection_day("subgroup_efficacy_carriers") is not None


def test_signals_reference_block_heights(fed_world):
    platform, feed, rwe, ___ = fed_world
    head = platform.nodes["hospital-0"].head.height
    for signal in rwe.signals:
        assert 0 < signal.day <= head


def test_feed_ignores_other_trials(fed_world):
    platform, feed, ___, ____ = fed_world
    before = feed.patients_tracked
    site = platform.sites["hospital-0"]
    tx = site.control.submit_signed_call(
        platform.contracts.trial_contract_id,
        "register_trial",
        {
            "trial_id": "NCT-OTHER",
            "protocol_hash": "ef" * 32,
            "outcomes": ["stroke"],
            "target_enrollment": 5,
        },
    )
    platform.chain.commit(tx)
    tx = site.control.submit_signed_call(
        platform.contracts.trial_contract_id,
        "enroll",
        {
            "trial_id": "NCT-OTHER",
            "patient_pseudo_id": "stranger-1",
            "site": "hospital-0",
            "arm": "treatment",
        },
    )
    platform.chain.commit(tx)
    platform.run(15)
    assert feed.patients_tracked == before
