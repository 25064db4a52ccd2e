"""Blocks and block headers.

A block header commits to the parent, the Merkle root of its transactions,
the post-execution state root, and consensus-specific proof data (PoW nonce
and difficulty, PoA signature, or PoS ticket).  The block hash is the hash
of the header.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Tuple

from repro.common.errors import ValidationError
from repro.common.hashing import ZERO_HASH, hash_value
from repro.common.merkle import MerkleTree
from repro.chain.state import StateDB
from repro.chain.transactions import Transaction


@dataclass(frozen=True)
class BlockHeader:
    """Immutable block header; the block hash is ``hash_value(header)``."""

    parent_hash: bytes
    height: int
    tx_root: bytes
    state_root: bytes
    timestamp_ms: int
    proposer: str
    consensus: Dict[str, Any] = field(default_factory=dict)

    def block_hash(self) -> bytes:
        cached = self.__dict__.get("_hash_memo")
        if cached is not None:
            return cached
        digest = self._block_hash_uncached()
        object.__setattr__(self, "_hash_memo", digest)
        return digest

    def _block_hash_uncached(self) -> bytes:
        return hash_value(
            {
                "parent_hash": self.parent_hash,
                "height": self.height,
                "tx_root": self.tx_root,
                "state_root": self.state_root,
                "timestamp_ms": self.timestamp_ms,
                "proposer": self.proposer,
                "consensus": self.consensus,
            },
            allow_float=False,
        )

    def mining_digest(self) -> bytes:
        """Header hash with the consensus proof fields zeroed.

        Proof-of-work grinds over this digest plus a nonce, so the proof
        cannot influence the puzzle it must solve.
        """
        return hash_value(
            {
                "parent_hash": self.parent_hash,
                "height": self.height,
                "tx_root": self.tx_root,
                "state_root": self.state_root,
                "timestamp_ms": self.timestamp_ms,
                "proposer": self.proposer,
            },
            allow_float=False,
        )


@dataclass(frozen=True)
class Block:
    """A block: header plus the full transaction list."""

    header: BlockHeader
    transactions: List[Transaction] = field(default_factory=list)

    @property
    def block_hash(self) -> bytes:
        return self.header.block_hash()

    @property
    def block_id(self) -> str:
        return self.block_hash.hex()

    @property
    def height(self) -> int:
        return self.header.height

    def tx_tree(self) -> MerkleTree:
        return MerkleTree([tx.signing_digest() for tx in self.transactions])

    def compute_tx_root(self) -> bytes:
        return self.tx_tree().root

    def validate_structure(self) -> None:
        """Check internal consistency (tx root, tx signatures, ordering)."""
        if self.header.height < 0:
            raise ValidationError("negative block height")
        if self.compute_tx_root() != self.header.tx_root:
            raise ValidationError("tx root mismatch")
        seen = set()
        for tx in self.transactions:
            tx.validate()
            if tx.tx_id in seen:
                raise ValidationError(f"duplicate tx {tx.tx_id[:12]} in block")
            seen.add(tx.tx_id)

    def with_consensus(self, consensus: Dict[str, Any]) -> "Block":
        """Copy of this block with the consensus proof filled in."""
        return Block(
            header=replace(self.header, consensus=consensus),
            transactions=self.transactions,
        )

    def estimated_size_bytes(self) -> int:
        """Wire-size estimate for the network simulator."""
        return 512 + sum(tx.estimated_size_bytes() for tx in self.transactions)


def make_genesis(
    state_root: bytes, timestamp_ms: int = 0, chain_id: str = "medchain"
) -> Block:
    """The genesis block shared by all nodes of a network."""
    header = BlockHeader(
        parent_hash=ZERO_HASH,
        height=0,
        tx_root=MerkleTree([]).root,
        state_root=state_root,
        timestamp_ms=timestamp_ms,
        proposer="genesis",
        consensus={"chain_id": chain_id},
    )
    return Block(header=header, transactions=[])


def funded_genesis(balances: Mapping[str, int]) -> Tuple[Block, StateDB]:
    """The genesis block over ``balances`` (address -> amount), and its state.

    The block hashes only the funded state, so every process given the same
    balances starts the same chain.
    """
    state = StateDB()
    for address, amount in balances.items():
        state.credit(address, amount)
    return make_genesis(state.state_root()), state


def build_block(
    parent: Block,
    transactions: List[Transaction],
    state_root: bytes,
    proposer: str,
    timestamp_ms: int,
    consensus: Dict[str, Any] = None,
) -> Block:
    """Assemble an unproven block on top of ``parent``."""
    tx_root = MerkleTree([tx.signing_digest() for tx in transactions]).root
    header = BlockHeader(
        parent_hash=parent.block_hash,
        height=parent.height + 1,
        tx_root=tx_root,
        state_root=state_root,
        timestamp_ms=timestamp_ms,
        proposer=proposer,
        consensus=consensus or {},
    )
    return Block(header=header, transactions=list(transactions))
