"""Proof of authority: rotating signed blocks from a validator set.

The permissioned consortium setting (hospitals + an FDA trusted node,
Figure 2).  Clique-style liveness: each height has an *in-turn* (primary)
proposer — ``validators[height % n]`` — who proposes after one block
interval; every other validator is a backup that proposes after a rank-
scaled delay, so the chain keeps moving when the primary is partitioned or
crashed.  The proof is the proposer's Schnorr signature over the mining
digest; any registered validator's signature verifies.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.chain.blocks import Block
from repro.common.errors import ConsensusError, CryptoError
from repro.common.signatures import KeyPair, PublicKey, Signature
from repro.consensus.base import ConsensusEngine, ProposalPlan
from repro.obs.tracer import trace_span


class ProofOfAuthority(ConsensusEngine):
    """Rotating-primary authority consensus with backup proposers."""

    name = "poa"

    def __init__(
        self,
        validators: List[str],
        keypairs: Dict[str, KeyPair],
        block_interval_s: float = 1.0,
        backup_delay_factor: float = 2.0,
    ):
        if not validators:
            raise ConsensusError("validator set must not be empty")
        self.validators = list(validators)
        self.keypairs = dict(keypairs)
        self.block_interval_s = block_interval_s
        self.backup_delay_factor = backup_delay_factor
        # Address -> public key, for verification.
        self._addresses: Dict[str, PublicKey] = {
            name: kp.public for name, kp in self.keypairs.items()
        }

    def proposer_at(self, height: int) -> str:
        """The in-turn (primary) proposer for a height."""
        return self.validators[height % len(self.validators)]

    def rank_at(self, height: int, node_name: str) -> Optional[int]:
        """0 for the primary, 1..n-1 for backups, None for non-validators."""
        if node_name not in self.validators:
            return None
        index = self.validators.index(node_name)
        return (index - height) % len(self.validators)

    def plan_proposal(
        self, node_name: str, parent: Block, rng_sample: float
    ) -> ProposalPlan:
        rank = self.rank_at(parent.height + 1, node_name)
        if rank is None:
            return ProposalPlan(delay_s=None)
        # Primary fires after one interval; backup k waits k extra
        # backup_delay_factor intervals, so it only proposes when the
        # primary (and lower-rank backups) failed to deliver a block.
        delay = self.block_interval_s * (1 + self.backup_delay_factor * rank)
        return ProposalPlan(delay_s=delay)

    def seal(self, node_name: str, block: Block) -> Block:
        keypair = self.keypairs.get(node_name)
        if keypair is None or node_name not in self.validators:
            raise ConsensusError(f"{node_name} holds no authority key")
        with trace_span(
            "poa.seal",
            node=node_name,
            in_turn=self.proposer_at(block.height) == node_name,
        ):
            signature = keypair.sign(block.header.mining_digest())
        return block.with_consensus(
            {
                "type": self.name,
                "validator": node_name,
                "in_turn": self.proposer_at(block.height) == node_name,
                "signature": signature.to_bytes(),
            }
        )

    def verify(self, block: Block, parent: Block) -> bool:
        with trace_span("poa.verify") as span:
            valid = self._verify_inner(block)
            span.set_attr("valid", valid)
        return valid

    def _verify_inner(self, block: Block) -> bool:
        proof = block.header.consensus
        if proof.get("type") != self.name:
            return False
        validator = proof.get("validator")
        if validator not in self.validators:
            return False
        public = self._addresses.get(validator)
        raw = proof.get("signature")
        if public is None or not isinstance(raw, (bytes, bytearray)):
            return False
        try:
            signature = Signature.from_bytes(bytes(raw))
        except CryptoError:
            return False
        return public.verify(block.header.mining_digest(), signature)
