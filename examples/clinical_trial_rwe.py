"""Real-world-evidence clinical trial on the medical blockchain (§II, §IV).

Walks the full FDA-vision pipeline the paper sketches:

1. the sponsor registers the trial on chain — protocol hash and
   pre-registered outcomes are committed before any data exists;
2. three hospitals recruit patients through the clinical-trial contract;
3. follow-up data streams in; an RWE monitor watches efficacy per genetic
   subgroup and safety continuously;
4. the sponsor "publishes" a report with a switched outcome and a falsified
   record — both are caught mechanically against the on-chain commitments.

Run:  python examples/clinical_trial_rwe.py
"""

from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.offchain.anchoring import DatasetAnchor
from repro.trial.auditor import PublishedReport, TrialAuditor
from repro.trial.monitor import RWEMonitor
from repro.trial.protocol import TrialProtocol
from repro.trial.simulation import assign_arms, simulate_follow_up, true_effect_summary

ENROLL_PER_SITE = 120


def main() -> None:
    platform = MedicalBlockchainNetwork(
        PlatformConfig(site_count=3, consensus="poa", include_fda=True, seed=4)
    )
    protocol = TrialProtocol(
        trial_id="NCT-DEMO-001",
        title="Anticoagulant-X vs standard of care in stroke prevention",
        drug="anticoag-x",
        primary_outcomes=["stroke"],
        secondary_outcomes=["mortality"],
        subgroups=["rs2200733"],
        target_enrollment=3 * ENROLL_PER_SITE,
        follow_up_days=365,
    )
    sponsor = platform.sites["hospital-0"]
    print(f"registering trial {protocol.trial_id} "
          f"(protocol hash {protocol.protocol_hash()[:16]}...) on chain")
    tx = sponsor.control.submit_signed_call(
        platform.contracts.trial_contract_id,
        "register_trial",
        protocol.to_registration_args(),
    )
    receipt = platform.chain.commit(tx)
    assert receipt.success, receipt.error

    print("recruiting through the clinical-trial contract at 3 hospitals...")
    generator = CohortGenerator(seed=40)
    profiles = default_site_profiles(3)
    patients = []
    last_tx = None
    arm_flip = 0
    for index, site_name in enumerate(platform.site_names):
        cohort = generator.generate_cohort(profiles[index], ENROLL_PER_SITE)
        patients.extend(cohort)
        site = platform.sites[site_name]
        for record in cohort:
            last_tx = site.control.submit_signed_call(
                platform.contracts.trial_contract_id,
                "enroll",
                {
                    "trial_id": protocol.trial_id,
                    "patient_pseudo_id": record["patient_id"],
                    "site": site_name,
                    "arm": protocol.arms[arm_flip % 2],
                },
            )
            arm_flip += 1
    platform.chain.commit(last_tx, timeout_s=1200)
    platform.run(30)
    trial = platform.nodes["fda"].call_view(
        platform.contracts.trial_contract_id,
        "get_trial",
        {"trial_id": protocol.trial_id},
    )
    print(f"  enrolled {trial['enrolled']} / {protocol.target_enrollment}; "
          f"status = {trial['status']}")

    print("\nsimulating follow-up (drug protects rs2200733 carriers only)...")
    arms = assign_arms(patients, protocol, seed=8)
    outcomes = simulate_follow_up(patients, arms, protocol, seed=9)
    truth = true_effect_summary(outcomes)
    print(f"  carriers:     treatment {truth['treatment_rate_carriers']:.2f} "
          f"vs control {truth['control_rate_carriers']:.2f}")
    print(f"  non-carriers: treatment {truth['treatment_rate_noncarriers']:.2f} "
          f"vs control {truth['control_rate_noncarriers']:.2f}")

    # Continuous monitoring re-tests after every report, so alpha must be
    # conservative (repeated looks inflate type-I error).
    monitor = RWEMonitor(alpha=0.001, min_per_arm=30, subgroup_min_per_arm=15)
    monitor.run_stream(outcomes)
    print("\ncontinuous-monitoring signals:")
    for signal in monitor.signals:
        print(f"  day {signal.day:3d}: {signal.kind}  (p={signal.p_value:.2e})")
    if not monitor.signals:
        print("  none fired")

    print("\nsponsor publishes a *bad* report (switched outcome + falsified record)...")
    raw = [dict(record) for record in patients[:60]]
    anchor = DatasetAnchor.build(raw)
    tampered = [dict(record) for record in raw]
    tampered[7]["outcomes"] = {**tampered[7]["outcomes"],
                               "stroke": 1 - tampered[7]["outcomes"]["stroke"]}
    report = PublishedReport(
        protocol.trial_id,
        claimed_outcomes=["stroke", "patient_satisfaction"],  # switched!
        raw_records=tampered,
    )
    registered = trial["outcomes"]
    finding = TrialAuditor().audit(registered, report, anchor.root_hex)
    print(f"  outcome switching detected: {bool(finding.switched_in)} "
          f"(switched in: {finding.switched_in})")
    print(f"  silently dropped outcomes:  {finding.silently_dropped}")
    print(f"  raw data matches anchor:    {finding.data_intact}")
    print(f"  verdict: {'CLEAN' if finding.clean else 'VIOLATIONS FOUND'}")


if __name__ == "__main__":
    main()
