"""Genesis fixture shared by every validator process, the load generator and the walk.

Every process derives the same genesis from ``holders`` alone: key pairs are
deterministic in their label, the contracts are pre-deployed straight onto
the genesis state with ``ContractExecutor().apply`` (as E17's fixture does),
and the genesis block hashes only that state.  ``node_server.build_world``
is not used because it generates a key pair per funded label (3.6 ms each),
which is too slow for a 10^4..10^5-holder state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List

from repro.chain.blocks import Block, make_genesis
from repro.chain.executor import ExecutionContext
from repro.chain.state import StateDB
from repro.chain.transactions import make_call, make_deploy
from repro.common.signatures import KeyPair
from repro.consensus.poa import ProofOfAuthority
from repro.contracts.library import CLINICAL_TRIAL_SOURCE, COMPUTE_CONTRACT_SOURCE
from repro.contracts.runtime import ContractExecutor

VALIDATORS = 3
SENDERS = 16
TRIAL_ID = "e22-trial"
BLOCK_INTERVAL_S = 0.25
# No faults are injected, so the failure-detection timeout is set long enough
# that a slow block never triggers a backup proposer: with the default factor
# 2 a loaded 3-process network forks, drops the reorged-out txs and stalls on
# the nonce gap (2 of 5 sizing runs).  20 (a 5.25 s timeout) still forked in 1
# of 80 runs, an onchain_compute block under 40 % steal; 40 is 10.25 s, just
# beyond the stall limit that ends a phase anyway.
BACKUP_DELAY_FACTOR = 40.0


@dataclass
class Fixture:
    genesis: Block
    state: StateDB
    senders: List[KeyPair]
    trial_contract: str
    compute_contract: str


def validator_names() -> List[str]:
    return [f"v{i}" for i in range(VALIDATORS)]


def build_engine() -> ProofOfAuthority:
    names = validator_names()
    keypairs: Dict[str, KeyPair] = {name: KeyPair.generate(name) for name in names}
    return ProofOfAuthority(
        names,
        keypairs,
        block_interval_s=BLOCK_INTERVAL_S,
        backup_delay_factor=BACKUP_DELAY_FACTOR,
    )


def build_fixture(holders: int = 0) -> Fixture:
    """16 funded senders, ClinicalTrial + Compute deployed, ``holders`` extra accounts."""
    state = StateDB()
    senders = [KeyPair.generate(f"e22-sender-{i}") for i in range(SENDERS)]
    for keypair in senders:
        state.credit(keypair.address, 10**12)
    for index in range(holders):
        state.credit(hashlib.sha256(b"e22-holder-%d" % index).hexdigest()[:40], 1)
    deployer = KeyPair.generate("e22-deployer")
    state.credit(deployer.address, 10**12)
    executor = ContractExecutor()
    context = ExecutionContext(block_height=0, timestamp_ms=0, node_name="genesis")
    setup_txs = [
        make_deploy(deployer, "clinical_trial", CLINICAL_TRIAL_SOURCE, nonce=0),
        make_deploy(deployer, "compute", COMPUTE_CONTRACT_SOURCE, nonce=1),
    ]
    contract_ids = []
    for tx in setup_txs:
        receipt = executor.apply(state, tx, context)
        if not receipt.success:
            raise RuntimeError(f"genesis deploy failed: {receipt.error}")
        contract_ids.append(receipt.output)
    register = make_call(
        deployer,
        contract_ids[0],
        "register_trial",
        {
            "trial_id": TRIAL_ID,
            "protocol_hash": "00" * 32,
            "outcomes": ["hba1c"],
            # Never reached, so the trial stays "recruiting" for every enroll.
            "target_enrollment": 10**9,
        },
        nonce=2,
    )
    receipt = executor.apply(state, register, context)
    if not receipt.success:
        raise RuntimeError(f"genesis register_trial failed: {receipt.error}")
    return Fixture(
        genesis=make_genesis(state.state_root()),
        state=state,
        senders=senders,
        trial_contract=contract_ids[0],
        compute_contract=contract_ids[1],
    )
