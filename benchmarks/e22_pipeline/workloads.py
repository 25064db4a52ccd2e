"""The four workloads: fixed settings and seed-driven input generation.

``--seed`` drives every generated input (sender order, patient ids,
matrices, query order, the cohort behind the site servers); the servers
receive only these inputs.  ``inputs_sha256`` lets two runs prove they fed
identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List

from fixture import SENDERS, TRIAL_ID


@dataclass(frozen=True)
class Workload:
    name: str
    #: "ledger" or "matmul" ops against 3 validator processes, "query" against 3 site servers.
    kind: str
    #: Share of ``--seconds`` spent in the paced phase; the rest is the sat phase.
    paced_share: float
    #: Txs pre-signed per second of sat phase, ~1.3x today's raw saturation on a
    #: quiet host.  A faster system drains them early and the phase ends early;
    #: ops/s stays right.  Queries are not pre-generated.
    sat_ops_per_s_cap: float
    #: Extra genesis accounts (chain) or records per site (query).
    size: int
    smoke_size: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ledger_mix",
            "ledger",
            paced_share=0.6,
            sat_ops_per_s_cap=70.0,
            size=0,
            smoke_size=0,
        ),
        Workload(
            "onchain_compute",
            "matmul",
            paced_share=0.55,
            sat_ops_per_s_cap=36.0,
            size=0,
            smoke_size=0,
        ),
        Workload(
            "large_state",
            "ledger",
            paced_share=0.6,
            sat_ops_per_s_cap=45.0,
            size=30_000,
            smoke_size=2_000,
        ),
        Workload(
            "federated_query",
            "query",
            paced_share=0.6,
            sat_ops_per_s_cap=0.0,
            size=1_000,
            smoke_size=150,
        ),
    )
}

QUERY_TEXTS = (
    "how many patients have diabetes",
    "prevalence of stroke among smokers",
    "average systolic blood pressure for women over 50",
    "histogram of bmi between 15 and 55 with 8 bins",
    "how many women over 60 have hypertension",
)
MATMUL_N = 10


def inputs_sha256(inputs: Any) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def chain_op_specs(workload: Workload, seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` unsigned op specs; nonces follow per-sender submit order."""
    rng = random.Random(f"e22/{workload.name}/{seed}")
    nonces = [0] * SENDERS
    specs: List[Dict[str, Any]] = []
    for _ in range(count):
        sender = rng.randrange(SENDERS)
        spec: Dict[str, Any] = {"sender": sender, "nonce": nonces[sender]}
        nonces[sender] += 1
        if workload.kind == "matmul":
            spec["method"] = "matmul"
            spec["args"] = {
                "a": [[rng.randrange(100) for _ in range(MATMUL_N)] for _ in range(MATMUL_N)],
                "b": [[rng.randrange(100) for _ in range(MATMUL_N)] for _ in range(MATMUL_N)],
                "n": MATMUL_N,
            }
        elif rng.random() < 0.5:
            spec["method"] = "transfer"
            spec["args"] = {
                "to": (sender + 1 + rng.randrange(SENDERS - 1)) % SENDERS,
                "amount": rng.randrange(1, 1000),
            }
        else:
            spec["method"] = "enroll"
            spec["args"] = {
                "trial_id": TRIAL_ID,
                "patient_pseudo_id": f"p-{rng.getrandbits(64):016x}",
                "site": f"hospital-{rng.randrange(3)}",
                "arm": rng.choice(["treatment", "control"]),
            }
        specs.append(spec)
    return specs


def query_order(seed: int, count: int) -> List[int]:
    """Indices into ``QUERY_TEXTS``: every shape equally often, order seeded."""
    rng = random.Random(f"e22/federated_query/{seed}")
    order: List[int] = []
    while len(order) < count:
        cycle = list(range(len(QUERY_TEXTS)))
        rng.shuffle(cycle)
        order.extend(cycle)
    return order[:count]
