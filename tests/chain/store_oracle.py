"""The chain store, re-derived by walking parent links: the oracle for ``ChainStore``.

``ChainStore`` keeps the canonical branch as a list of ids by height and
splices it where fork choice runs.  This module is the definition that index
is held to, written the slow obvious way it was first implemented: the head
is the only thing remembered, every question about the canonical chain walks
parent links back from it, and the reorg diff is the difference of two such
walks.  It is test code: nothing under ``src/`` imports it, and it imports
nothing from ``repro.chain.store``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.chain.blocks import Block


class OracleStore:
    def __init__(self, genesis: Block):
        self.blocks: Dict[str, Block] = {genesis.block_id: genesis}
        self.head = genesis

    def add(self, block: Block) -> Tuple[List[Block], List[Block]]:
        """Insert ``block`` (parent stored); returns ``(left, joined)``."""
        if block.block_id in self.blocks:
            return [], []
        assert block.header.parent_hash.hex() in self.blocks
        before = self.canonical_chain()
        self.blocks[block.block_id] = block
        # Longest chain wins; ties broken by lexicographically lowest hash.
        if block.height > self.head.height or (
            block.height == self.head.height and block.block_id < self.head.block_id
        ):
            self.head = block
        after = self.canonical_chain()
        left = [b for b in before if b not in after]
        joined = [b for b in after if b not in before]
        return left, joined

    def canonical_chain(self) -> List[Block]:
        chain = [self.head]
        while chain[-1].height:
            chain.append(self.blocks[chain[-1].header.parent_hash.hex()])
        chain.reverse()
        return chain

    def block_at_height(self, height: int) -> Optional[Block]:
        for block in self.canonical_chain():
            if block.height == height:
                return block
        return None

    def headers_after(self, locator_ids: List[str], limit: int = 256) -> List[Block]:
        chain = self.canonical_chain()
        index = {block.block_id: i for i, block in enumerate(chain)}
        anchor = 0
        for block_id in locator_ids:
            position = index.get(block_id)
            if position is not None:
                anchor = position
                break
        limit = max(1, min(int(limit), 1024))
        return chain[anchor + 1 : anchor + 1 + limit]
