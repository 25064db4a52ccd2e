"""E2 — Duplicated validation wastes energy (paper section I).

Claim (via Digiconomist): PoW mining burns energy proportional to the miner
population for the *same* useful work, because every miner races every
block; PoS "resolves the wasting energy issue" by replacing hashing with
virtual mining.

Workload: commit the same 20-transaction load on PoW networks of 1/2/4/8
miners (constant per-miner hash rate — more miners means more total
hardware racing), and on an 8-node PoS network.  Reported: total hash
attempts, energy in joules, and energy per committed transaction.
"""

from __future__ import annotations

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, format_table, json_main

from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.consensus.node import NodeConfig
from repro.consensus.pos import ProofOfStake
from repro.consensus.pow import ProofOfWork
from repro.consensus.simchain import SimChain

TX_COUNT = 20
MINER_COUNTS = (1, 2, 4, 8)


def run_load(node_count: int, consensus: str, seed: int = 11):
    funder = KeyPair.generate("e2-funder")
    names = [f"m{i}" for i in range(node_count)]
    if consensus == "pow":
        # Real PoW networks retarget difficulty to hold block time constant:
        # doubling the mining population doubles difficulty, so the same
        # useful work burns proportionally more hashes (Digiconomist's
        # observation).  2^bits scales with the miner count.
        bits = 10 + int(node_count).bit_length() - 1  # 10,11,12,13 for 1,2,4,8
        engine = ProofOfWork(difficulty_bits=bits, default_hash_rate=2e3)
    else:
        engine = ProofOfStake({name: 100 for name in names}, round_time_s=1.0)
    chain = SimChain(
        names, {funder.address: 10**9}, engine=engine,
        config=NodeConfig(max_txs_per_block=4), seed=seed,
    )
    txs = [make_transfer(funder, "sink", 1, nonce=n) for n in range(TX_COUNT)]
    for tx in txs:
        chain.nodes["m0"].submit_tx(tx)
    chain.commit(*txs, names=["m0"], timeout_s=7200)
    metrics = chain.metrics
    hashes = metrics.counter_total("hashes")
    energy = metrics.total_energy_joules()
    return {
        "consensus": consensus,
        "miners": node_count,
        "hashes": hashes,
        "energy_j": energy,
        "energy_per_tx_j": energy / TX_COUNT,
    }


def run_experiment():
    rows = [run_load(count, "pow") for count in MINER_COUNTS]
    rows.append(run_load(8, "pos"))
    return rows


def report(rows):
    table = format_table(
        "E2: energy burned to commit the same 20-tx load",
        ["consensus", "miners", "hash attempts", "energy (J)", "J per tx"],
        [
            [r["consensus"], r["miners"], r["hashes"], r["energy_j"],
             r["energy_per_tx_j"]]
            for r in rows
        ],
    )
    emit("e2_duplicated_energy", table)
    return rows


def test_e2_duplicated_energy(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(rows)
    pow_rows = [r for r in rows if r["consensus"] == "pow"]
    one, eight = pow_rows[0], pow_rows[-1]
    # Energy grows ~linearly with the miner population (at least 4x for 8x).
    assert eight["hashes"] > 4 * one["hashes"]
    # PoS removes essentially all hash energy.
    pos = rows[-1]
    assert pos["hashes"] < 0.01 * eight["hashes"]


def main(argv=None):
    return json_main(
        argv, __doc__, "e2_duplicated_energy",
        {"tx_count": TX_COUNT, "miner_counts": list(MINER_COUNTS)},
        lambda: {"rows": report(run_experiment())},
    )


if __name__ == "__main__":
    sys.exit(main())
