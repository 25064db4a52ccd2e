"""E9 — Distributed transfer learning from a core medical model (§III.A/C).

Claim: a large virtual cohort lets the platform learn "a set of core
features and models for the medical domain", and transfer learning then
"jump starts" new small-data disease tasks — the medical analogue of
ImageNet-pretrained CNNs.

Workload: federated multi-task pretraining (stroke + cancer heads, shared
hidden layer) over 4 sites, then fine-tuning a fresh head on a *diabetes*
task with 20..320 labelled examples, vs training from scratch.  Reported:
the transfer-vs-scratch AUC learning curve.
"""

from __future__ import annotations

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, format_table, json_main

from repro.analytics.features import dataset_for, multitask_dataset_for
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.learning.transfer import pretrain_core_multitask, transfer_learning_curve

SOURCE_OUTCOMES = ("stroke", "cancer")
TARGET_OUTCOME = "diabetes"
SITES = 4
RECORDS_PER_SITE = 600
TARGET_SIZES = (20, 40, 80, 160, 320)


def run_experiment():
    generator = CohortGenerator(seed=202)
    profiles = default_site_profiles(SITES)
    cohorts = generator.generate_multi_site(profiles, RECORDS_PER_SITE)
    site_data = {
        site: multitask_dataset_for(records, SOURCE_OUTCOMES)
        for site, records in cohorts.items()
    }
    core = pretrain_core_multitask(
        site_data, SOURCE_OUTCOMES, hidden=24, rounds=25, lr=0.3, seed=1
    ).to_mlp()  # fresh head over the learned shared features
    target_generator = CohortGenerator(seed=909)
    profile = default_site_profiles(1)[0]
    X_pool, y_pool = dataset_for(
        target_generator.generate_cohort(profile, 500), TARGET_OUTCOME
    )
    X_test, y_test = dataset_for(
        target_generator.generate_cohort(profile, 1500), TARGET_OUTCOME
    )
    curve = transfer_learning_curve(
        core, X_pool, y_pool, X_test, y_test, sizes=TARGET_SIZES, epochs=60, seed=2
    )
    return [
        {
            "target_size": point.target_size,
            "transfer_auc": point.transfer_metrics["auc"],
            "scratch_auc": point.scratch_metrics["auc"],
            "gain": point.auc_gain,
        }
        for point in curve
    ]


def report(rows):
    table = format_table(
        f"E9: transfer (pretrained on {'+'.join(SOURCE_OUTCOMES)}) vs scratch "
        f"on {TARGET_OUTCOME}",
        ["target train size", "transfer AUC", "scratch AUC", "AUC gain"],
        [[r["target_size"], r["transfer_auc"], r["scratch_auc"], r["gain"]]
         for r in rows],
    )
    emit("e9_transfer_learning", table)
    return rows


def test_e9_transfer_learning(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(rows)
    # Transfer never loses badly and wins in the small-data regime.
    assert all(row["gain"] > -0.03 for row in rows)
    small = [row for row in rows if row["target_size"] <= 80]
    assert sum(row["gain"] for row in small) / len(small) > 0.02


def main(argv=None):
    return json_main(
        argv, __doc__, "e9_transfer_learning",
        {"source_outcomes": list(SOURCE_OUTCOMES),
         "target_outcome": TARGET_OUTCOME, "sites": SITES,
         "records_per_site": RECORDS_PER_SITE,
         "target_sizes": list(TARGET_SIZES)},
        lambda: {"rows": report(run_experiment())},
    )


if __name__ == "__main__":
    sys.exit(main())
