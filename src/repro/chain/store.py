"""Chain store: block persistence, linkage validation, and fork choice.

Each node owns a :class:`ChainStore`.  Blocks attach to stored parents (a
node buffers a block whose parent has not arrived; the store never sees
it).  Fork choice is longest-chain (by height, then lowest block hash as a
deterministic tie-break), matching the paper's "current commercial
blockchain" framing.  The canonical branch is kept as a list of block ids
indexed by height, spliced where fork choice runs, so every question about
it is an index lookup and :meth:`ChainStore.add` can say exactly which
blocks a reorg removed from it and which it added.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.chain.blocks import Block
from repro.common.errors import ChainError, ValidationError


class ChainStore:
    """Append-only block DAG with a canonical branch indexed by height."""

    def __init__(self, genesis: Block):
        if genesis.height != 0:
            raise ChainError("genesis must have height 0")
        self._blocks: Dict[str, Block] = {genesis.block_id: genesis}
        self.genesis = genesis
        self._head = genesis
        #: Canonical block ids, ``canonical_ids[h]`` at height ``h``.  Read
        #: it, never write it; it changes in place as the head moves.
        self.canonical_ids: List[str] = [genesis.block_id]

    # -- queries ----------------------------------------------------------
    @property
    def head(self) -> Block:
        return self._head

    @property
    def height(self) -> int:
        return self._head.height

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def get(self, block_id: str) -> Block:
        block = self._blocks.get(block_id)
        if block is None:
            raise ChainError(f"unknown block {block_id[:12]}")
        return block

    def is_canonical(self, block: Block) -> bool:
        ids = self.canonical_ids
        return block.height < len(ids) and ids[block.height] == block.block_id

    # -- insertion ----------------------------------------------------------
    def add(self, block: Block) -> Tuple[List[Block], List[Block]]:
        """Insert a block the caller has validated, under its stored parent.

        Returns the canonical diff ``(left, joined)``: the blocks that
        stopped and the blocks that started being canonical, each oldest
        first.  Both are empty when the head did not move (a duplicate, or
        a block on a branch that does not win fork choice); a plain
        extension is ``([], [block])``.  A block whose parent is not
        stored is a caller error.
        """
        block_id = block.block_id
        if block_id in self._blocks:
            return [], []
        parent = self._blocks.get(block.header.parent_hash.hex())
        if parent is None:
            raise ChainError(f"parent of block {block_id[:12]} is not stored")
        if block.height != parent.height + 1:
            raise ValidationError(
                f"height {block.height} does not follow parent {parent.height}"
            )
        self._blocks[block_id] = block
        if not self.would_win(block.height, block_id):
            return [], []
        # Walk down to the first block that is canonical at its height and
        # splice the new branch in above it.
        joined: List[Block] = []
        current = block
        while not self.is_canonical(current):
            joined.append(current)
            current = self._blocks[current.header.parent_hash.hex()]
        joined.reverse()
        fork = current.height + 1
        left = [self._blocks[left_id] for left_id in self.canonical_ids[fork:]]
        self.canonical_ids[fork:] = [b.block_id for b in joined]
        self._head = block
        return left, joined

    def would_win(self, height: int, block_id: str) -> bool:
        """Fork choice: a head at ``height`` with id ``block_id`` replaces
        ours if it is longer, or level with an id no higher (the lowest id
        breaks a tie)."""
        head = self._head
        return (height, head.block_id) >= (head.height, block_id)

    # -- chain walks ---------------------------------------------------------
    def ancestors(self, block: Block) -> Iterable[Block]:
        """Yield blocks from ``block`` back to genesis, inclusive."""
        current = block
        while True:
            yield current
            if current.height == 0:
                return
            current = self.get(current.header.parent_hash.hex())

    def canonical_chain(self) -> List[Block]:
        """Genesis-to-head block list along the canonical branch."""
        return [self._blocks[block_id] for block_id in self.canonical_ids]

    def block_at_height(self, height: int) -> Optional[Block]:
        """Canonical block at ``height``, or None above the head."""
        if 0 <= height < len(self.canonical_ids):
            return self._blocks[self.canonical_ids[height]]
        return None

    def headers_after(self, locator_ids: List[str], limit: int = 256) -> List[Block]:
        """Canonical blocks after the best locator match, oldest first.

        ``locator_ids`` is ordered newest-first (dense near the requester's
        head, exponentially sparse toward genesis); the first entry found on
        our canonical chain anchors the reply.  An empty or entirely-unknown
        locator anchors at genesis, so a fresh node always makes progress.
        The p2p headers-first sync protocol serves ``chain.get_headers``
        from this, at a cost of ``len(locator_ids) + limit`` lookups.
        """
        anchor = 0
        for block_id in locator_ids:
            block = self._blocks.get(block_id)
            if block is not None and self.is_canonical(block):
                anchor = block.height
                break
        limit = max(1, min(int(limit), 1024))
        return [
            self._blocks[block_id]
            for block_id in self.canonical_ids[anchor + 1 : anchor + 1 + limit]
        ]

    def verify_chain_integrity(self) -> bool:
        """Re-validate every canonical block and its parent linkage.

        Used by the integrity experiments (E7): any in-place mutation of a
        stored block breaks either its own hash linkage or its tx root.
        """
        chain = self.canonical_chain()
        for i, block in enumerate(chain):
            try:
                block.validate_structure()
            except ValidationError:
                return False
            if i > 0 and block.header.parent_hash != chain[i - 1].block_hash:
                return False
        return True
