"""The platform's five contracts: ids known before boot, verified deploy txs.

One key deploys :data:`~repro.contracts.library.PLATFORM_CONTRACTS` in
order, contract i at nonce i, and a contract's id is a pure function of its
deployer, nonce and name (:func:`~repro.contracts.runtime.contract_id`).  So
any process that knows the deployer's key knows the five ids before a block
is sealed (:func:`platform_contract_ids`), and builds the same signed deploy
txs (:func:`platform_deploy_tx`).

Each deploy tx passes the static contract verifier first, PHI taint pass
included: the off-chain gate MediChain-style architectures put in front of
on-chain registration.  A nondeterministic or unbounded contract, or one
that provably writes patient data into chain state, events or receipts,
raises :class:`~repro.common.errors.ContractVerificationError` with the
findings, and no tx is signed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.transactions import Transaction, make_deploy
from repro.common.signatures import KeyPair
from repro.contracts.library import PLATFORM_CONTRACTS
from repro.contracts.runtime import contract_id

#: The label of the platform deployer's key, and its genesis balance.
DEPLOYER = "platform-deployer"
FUNDING = 1_000_000_000


@dataclass
class PlatformContracts:
    """Ids of the deployed contract categories (Figure 4, consent, blobs),
    in :data:`PLATFORM_CONTRACTS` order."""

    data_contract_id: str
    analytics_contract_id: str
    trial_contract_id: str
    consent_contract_id: str
    blob_contract_id: str


def platform_contract_ids(deployer: KeyPair) -> PlatformContracts:
    """The ids ``deployer``'s deploys of the platform contracts get."""
    return PlatformContracts(
        *(
            contract_id(deployer.address, nonce, name)
            for nonce, name in enumerate(PLATFORM_CONTRACTS)
        )
    )


def platform_deploy_tx(
    deployer: KeyPair, name: str, timestamp_ms: int = 0
) -> Transaction:
    """The signed deploy tx of platform contract ``name`` at its index as
    nonce, once its source passes the verifier."""
    # Imported here: running contracts does not load the analyser.
    from repro.analysis.verify import verify_contract

    source = PLATFORM_CONTRACTS[name]
    verify_contract(source, name=name, taint=True)
    nonce = list(PLATFORM_CONTRACTS).index(name)
    return make_deploy(deployer, name, source, nonce=nonce, timestamp_ms=timestamp_ms)
