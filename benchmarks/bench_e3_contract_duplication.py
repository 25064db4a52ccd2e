"""E3 — Smart-contract duplicated computing vs the transformed architecture
(paper sections I and IV, Figure 1).

Claim: on-chain smart contracts suffer "even more severe duplicated
computing" because every node re-executes arbitrary Turing-complete code;
the transformed architecture keeps only a light-weight policy contract on
chain and moves the analytic off chain, so the chain cost is (a) small and
(b) independent of how heavy the analytic is.

Workload: a fixed-point model-training step over n samples, executed
(a) inside the contract VM on every node of a 4-node chain, and
(b) through the transformed platform (policy contract + one off-chain run).
Reported: total gas summed over nodes, the per-node duplication check, the
waste factor, and how both scale with network size.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, format_table

from repro.baselines.duplicated import run_onchain_training, run_transformed_training
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles

NODE_COUNTS = (2, 4, 8)
SAMPLES = 30
FEATURES = 6
STEPS = 2


def run_experiment():
    rng = np.random.default_rng(0)
    features = rng.normal(0, 1, (SAMPLES, FEATURES)).tolist()
    labels = (rng.random(SAMPLES) < 0.4).astype(int).tolist()
    generator = CohortGenerator(seed=1)
    records = generator.generate_cohort(default_site_profiles(1)[0], 150)
    rows = []
    for node_count in NODE_COUNTS:
        onchain = run_onchain_training(
            features, labels, node_count=node_count, steps=STEPS
        )
        transformed = run_transformed_training(
            records, node_count=node_count, steps=STEPS
        )
        per_node_gas = list(onchain.gas_per_node.values())
        rows.append(
            {
                "nodes": node_count,
                "onchain_total_gas": onchain.total_gas,
                "onchain_gas_per_node": per_node_gas[0],
                "perfectly_duplicated": len(set(per_node_gas)) == 1,
                "transformed_total_gas": transformed.total_gas,
                "transformed_offchain_flops": transformed.offchain_flops,
                "waste_factor": onchain.total_gas / max(transformed.total_gas, 1),
            }
        )
    return rows


def report(rows):
    table = format_table(
        "E3: on-chain (duplicated) vs transformed gas for the same training",
        ["nodes", "on-chain total gas", "gas/node", "identical per node?",
         "transformed gas", "off-chain flops", "waste factor"],
        [
            [r["nodes"], r["onchain_total_gas"], r["onchain_gas_per_node"],
             r["perfectly_duplicated"], r["transformed_total_gas"],
             r["transformed_offchain_flops"], r["waste_factor"]]
            for r in rows
        ],
    )
    emit("e3_contract_duplication", table)
    return rows


def test_e3_contract_duplication(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(rows)
    for row in rows:
        # Every node re-executed identical work.
        assert row["perfectly_duplicated"]
        # The transformed architecture is at least 3x cheaper on chain.
        assert row["waste_factor"] > 3
    # On-chain cost grows with the network.  So does the transformed
    # chain's — every node still re-executes the light policy contracts,
    # the same gas per node at every size — but the analytic itself runs
    # once, off chain, however many nodes there are.
    assert rows[-1]["onchain_total_gas"] > 3 * rows[0]["onchain_total_gas"]
    assert len({r["transformed_total_gas"] / r["nodes"] for r in rows}) == 1
    assert len({r["transformed_offchain_flops"] for r in rows}) == 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} "
                             "envelope to PATH")
    args = parser.parse_args(argv)
    rows = report(run_experiment())
    emit_json(args.json, "e3_contract_duplication",
              {"node_counts": list(NODE_COUNTS), "samples": SAMPLES,
               "features": FEATURES, "steps": STEPS},
              {"rows": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
