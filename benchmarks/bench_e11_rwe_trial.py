"""E11 — Real-world-evidence trial with precision-medicine subgroups (§II).

Claims: (a) Schork/Nature — a drug can look mediocre on average while
working well in a genetic subgroup, so precision trials must stratify;
(b) FDA vision — continuous monitoring over live hospital data surfaces
efficacy and safety signals long before the classic end-of-trial batch
analysis.

Workload: a 600-subject two-arm trial where the drug strongly protects
rs2200733 carriers only, with an elevated adverse-event rate.  Reported:
(a) event rates by arm and subgroup (the heterogeneity table), and
(b) detection day of each signal under continuous monitoring vs the
batch-analysis day (end of follow-up).
"""

from __future__ import annotations

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, format_table, json_main

from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.trial.monitor import RWEMonitor
from repro.trial.protocol import TrialProtocol
from repro.trial.simulation import assign_arms, simulate_follow_up, true_effect_summary

ENROLLMENT = 600
FOLLOW_UP_DAYS = 365


def run_experiment():
    protocol = TrialProtocol(
        trial_id="NCT-E11",
        title="anticoag-x precision RWE trial",
        drug="anticoag-x",
        primary_outcomes=["stroke"],
        secondary_outcomes=["mortality"],
        subgroups=["rs2200733"],
        target_enrollment=ENROLLMENT,
        follow_up_days=FOLLOW_UP_DAYS,
    )
    generator = CohortGenerator(seed=31)
    profiles = default_site_profiles(3)
    patients = []
    for profile in profiles:
        patients.extend(generator.generate_cohort(profile, ENROLLMENT // 3))
    arms = assign_arms(patients, protocol, seed=1)
    outcomes = simulate_follow_up(patients, arms, protocol, seed=2)
    summary = true_effect_summary(outcomes)
    monitor = RWEMonitor(alpha=0.01, min_per_arm=30, subgroup_min_per_arm=15)
    monitor.run_stream(outcomes)
    batch = RWEMonitor.batch_analysis(outcomes)
    detection = {
        kind: monitor.detection_day(kind)
        for kind in (
            "efficacy",
            "subgroup_efficacy_carriers",
            "subgroup_efficacy_noncarriers",
            "safety",
        )
    }
    return summary, detection, {k: v.p_value for k, v in batch.items()}


def report(payload):
    summary, detection, batch = payload
    rates_table = format_table(
        "E11a: event rates (effect heterogeneity: the drug works in carriers)",
        ["group", "treatment event rate", "control event rate"],
        [
            ["all subjects", summary["treatment_rate"], summary["control_rate"]],
            ["rs2200733 carriers", summary["treatment_rate_carriers"],
             summary["control_rate_carriers"]],
            ["non-carriers", summary["treatment_rate_noncarriers"],
             summary["control_rate_noncarriers"]],
            ["adverse events", summary["ae_rate_treatment"],
             summary["ae_rate_control"]],
        ],
    )
    detect_table = format_table(
        f"E11b: continuous detection day vs batch analysis (day {FOLLOW_UP_DAYS})",
        ["signal", "continuous detection day", "batch p-value"],
        [
            [kind, detection[kind] if detection[kind] is not None else "not fired",
             batch.get(kind, float("nan"))]
            for kind in detection
        ],
    )
    emit("e11_rwe_trial", rates_table + "\n\n" + detect_table)
    return payload


def test_e11_rwe_trial(benchmark):
    summary, detection, batch = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report((summary, detection, batch))
    # Heterogeneity: carriers benefit much more than non-carriers.
    carrier_benefit = summary["control_rate_carriers"] - summary["treatment_rate_carriers"]
    noncarrier_benefit = (
        summary["control_rate_noncarriers"] - summary["treatment_rate_noncarriers"]
    )
    assert carrier_benefit > noncarrier_benefit + 0.05
    # Safety signal detected continuously, well before follow-up ends.
    assert detection["safety"] is not None
    assert detection["safety"] < FOLLOW_UP_DAYS
    # Subgroup efficacy found continuously; batch confirms it.
    assert detection["subgroup_efficacy_carriers"] is not None
    assert batch["subgroup_efficacy_carriers"] < 0.05


def main(argv=None):
    def metrics():
        summary, detection, batch = report(run_experiment())
        return {"summary": summary, "detection": detection, "batch": batch}

    return json_main(
        argv, __doc__, "e11_rwe_trial",
        {"enrollment": ENROLLMENT, "follow_up_days": FOLLOW_UP_DAYS},
        metrics,
    )


if __name__ == "__main__":
    sys.exit(main())
