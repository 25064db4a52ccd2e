"""E8 — Federated learning vs centralized vs isolated sites (§III.C).

Claim: Google-federated-learning-style training lets hospitals
"collaboratively learn a shared prediction model while keeping all the
training data on local devices" — approaching centralized accuracy without
the (often impossible) raw-data transfer, and clearly beating each site
training alone.

Workload: a stroke-risk classifier over 4 non-IID hospital shards.
Reported: (a) AUC-by-round series for FedAvg vs the centralized and
local-only baselines, with bytes on the wire; (b) an aggregation-strategy
ablation (FedAvg vs FedSGD vs single-shot averaging) — DESIGN.md ablation 4.
"""

from __future__ import annotations

import sys

import numpy as np

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, format_table, human_bytes, json_main

from repro.analytics.features import FEATURE_DIM, dataset_for
from repro.analytics.models import LogisticModel
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.learning.baseline import local_only_baselines, train_centralized
from repro.learning.federated import (
    FederatedConfig,
    FederatedTrainer,
    non_iid_severity,
    single_shot_average,
)

SITES = 4
RECORDS_PER_SITE = 400
ROUNDS = 20


def factory():
    return LogisticModel(FEATURE_DIM, seed=3)


def build_data():
    generator = CohortGenerator(seed=12)
    profiles = default_site_profiles(SITES)
    cohorts = generator.generate_multi_site(profiles, RECORDS_PER_SITE)
    site_data = {
        site: dataset_for(records, "stroke") for site, records in cohorts.items()
    }
    test_records = []
    for profile in profiles:
        test_records.extend(generator.generate_cohort(profile, 300))
    return site_data, dataset_for(test_records, "stroke")


def run_experiment():
    site_data, eval_data = build_data()
    severity = non_iid_severity(site_data)
    fed = FederatedTrainer(
        factory, FederatedConfig(rounds=ROUNDS, local_epochs=2, lr=0.3, seed=4)
    ).train(site_data, eval_data)
    central = train_centralized(factory, site_data, eval_data, epochs=40, lr=0.3)
    local = local_only_baselines(factory, site_data, eval_data, epochs=40, lr=0.3)
    series = [
        {
            "round": record.round_index + 1,
            "fed_auc": record.eval_metrics["auc"],
            "cum_bytes": sum(
                r.bytes_on_wire for r in fed.history[: record.round_index + 1]
            ),
        }
        for record in fed.history
        if record.round_index % 4 == 3 or record.round_index == 0
    ]
    # Ablation: aggregation strategies at matched round budgets.
    fedsgd = FederatedTrainer(
        factory, FederatedConfig(rounds=ROUNDS * 2, fedsgd=True, lr=0.5, seed=4)
    ).train(site_data, eval_data)
    oneshot = single_shot_average(factory, site_data, epochs=40, lr=0.3)
    ablation = [
        ("FedAvg", fed.final_metric("auc"), fed.total_bytes_on_wire),
        ("FedSGD", fedsgd.final_metric("auc"), fedsgd.total_bytes_on_wire),
        ("single-shot avg", oneshot.evaluate(*eval_data)["auc"],
         2 * 8 * (FEATURE_DIM + 1) * SITES),
    ]
    return {
        "severity": severity,
        "series": series,
        "fed_auc": fed.final_metric("auc"),
        "fed_bytes": fed.total_bytes_on_wire,
        "central_auc": central.eval_metrics["auc"],
        "central_bytes": central.bytes_moved,
        "local_aucs": {site: metrics["auc"] for site, metrics in local.items()},
        "ablation": ablation,
    }


def report(result):
    series_table = format_table(
        f"E8a: FedAvg AUC by round (non-IID severity {result['severity']:.3f})",
        ["round", "federated AUC", "cumulative bytes"],
        [[s["round"], s["fed_auc"], human_bytes(s["cum_bytes"])] for s in result["series"]],
    )
    mean_local = float(np.mean(list(result["local_aucs"].values())))
    compare_table = format_table(
        "E8b: final comparison",
        ["approach", "AUC", "raw records moved", "bytes on wire"],
        [
            ["federated (FedAvg)", result["fed_auc"], 0,
             human_bytes(result["fed_bytes"])],
            ["centralized (copy all)", result["central_auc"],
             SITES * RECORDS_PER_SITE, human_bytes(result["central_bytes"])],
            ["local-only (mean of sites)", mean_local, 0, "0B"],
        ],
    )
    ablation_table = format_table(
        "E8c: aggregation-strategy ablation",
        ["strategy", "AUC", "bytes on wire"],
        [[name, auc, human_bytes(bytes_)] for name, auc, bytes_ in result["ablation"]],
    )
    emit(
        "e8_federated_learning",
        series_table + "\n\n" + compare_table + "\n\n" + ablation_table,
    )
    return result


def test_e8_federated_learning(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(result)
    mean_local = float(np.mean(list(result["local_aucs"].values())))
    # Federated ~ centralized (within 3 AUC points), no raw data moved.
    assert result["fed_auc"] > result["central_auc"] - 0.03
    # Federated beats (or at worst matches) isolated training.
    assert result["fed_auc"] >= mean_local - 0.01
    # And moves orders of magnitude fewer bytes than centralizing.
    assert result["fed_bytes"] < result["central_bytes"] / 5
    # FedAvg >= single-shot averaging (iterative averaging helps).
    fedavg_auc = result["ablation"][0][1]
    oneshot_auc = result["ablation"][2][1]
    assert fedavg_auc >= oneshot_auc - 0.02


def main(argv=None):
    def metrics():
        result = report(run_experiment())
        return {
            "fed_auc": float(result["fed_auc"]),
            "central_auc": float(result["central_auc"]),
            "mean_local_auc": float(np.mean(list(result["local_aucs"].values()))),
            "fed_bytes": int(result["fed_bytes"]),
            "central_bytes": int(result["central_bytes"]),
            "severity": float(result["severity"]),
            "series": result["series"],
            "ablation": [
                [name, float(auc), int(bytes_)]
                for name, auc, bytes_ in result["ablation"]
            ],
        }

    return json_main(
        argv, __doc__, "e8_federated_learning",
        {"sites": SITES, "records_per_site": RECORDS_PER_SITE},
        metrics,
    )


if __name__ == "__main__":
    sys.exit(main())
