"""Block structure and chain-store tests."""


import dataclasses

import pytest

from repro.chain.blocks import Block, build_block, make_genesis
from repro.chain.state import StateDB
from repro.chain.store import ChainStore
from repro.chain.transactions import make_transfer
from repro.common.errors import ChainError, ValidationError
from repro.common.hashing import ZERO_HASH


@pytest.fixture()
def genesis():
    state = StateDB()
    return make_genesis(state.state_root())


def _child(parent, alice, txs=None, ts=1000):
    return build_block(
        parent=parent,
        transactions=txs or [],
        state_root=parent.header.state_root,
        proposer="tester",
        timestamp_ms=ts,
    )


class TestBlocks:
    def test_genesis_has_zero_parent(self, genesis):
        assert genesis.header.parent_hash == ZERO_HASH
        assert genesis.height == 0

    def test_block_hash_deterministic(self, genesis):
        assert genesis.block_hash == genesis.block_hash

    def test_tx_root_matches_transactions(self, genesis, alice):
        txs = [make_transfer(alice, "r", 1, nonce=0)]
        block = _child(genesis, alice, txs)
        block.validate_structure()

    def test_tx_root_mismatch_detected(self, genesis, alice):
        txs = [make_transfer(alice, "r", 1, nonce=0)]
        block = _child(genesis, alice, txs)
        forged = Block(header=block.header, transactions=[])
        with pytest.raises(ValidationError):
            forged.validate_structure()

    def test_duplicate_tx_in_block_rejected(self, genesis, alice):
        tx = make_transfer(alice, "r", 1, nonce=0)
        block = _child(genesis, alice, [tx, tx])
        with pytest.raises(ValidationError):
            block.validate_structure()

    def test_with_consensus_changes_hash(self, genesis):
        sealed = genesis.with_consensus({"type": "x"})
        assert sealed.block_hash != genesis.block_hash

    def test_mining_digest_ignores_consensus(self, genesis):
        sealed = genesis.with_consensus({"nonce": 42})
        assert sealed.header.mining_digest() == genesis.header.mining_digest()


class TestChainStore:
    def test_starts_at_genesis(self, genesis):
        store = ChainStore(genesis)
        assert store.head is genesis
        assert store.height == 0

    def test_add_extends_head(self, genesis, alice):
        store = ChainStore(genesis)
        child = _child(genesis, alice)
        assert store.add(child) == ([], [child])
        assert store.head.block_id == child.block_id
        assert store.canonical_ids == [genesis.block_id, child.block_id]

    def test_non_genesis_start_rejected(self, genesis, alice):
        child = _child(genesis, alice)
        with pytest.raises(ChainError):
            ChainStore(child)

    def test_duplicate_add_is_noop(self, genesis, alice):
        store = ChainStore(genesis)
        child = _child(genesis, alice)
        store.add(child)
        assert store.add(child) == ([], [])
        assert len(store) == 2

    def test_parentless_add_raises(self, genesis, alice):
        """Buffering a block whose parent has not arrived is the node's job."""
        store = ChainStore(genesis)
        child = _child(genesis, alice)
        grandchild = _child(child, alice, ts=2000)
        with pytest.raises(ChainError):
            store.add(grandchild)
        assert grandchild.block_id not in store
        assert store.head.height == 0

    def test_height_must_follow_parent(self, genesis, alice):
        store = ChainStore(genesis)
        child = _child(genesis, alice)
        skipped = Block(
            header=dataclasses.replace(child.header, height=2), transactions=[]
        )
        with pytest.raises(ValidationError):
            store.add(skipped)

    def test_longest_chain_wins(self, genesis, alice):
        store = ChainStore(genesis)
        a, b = sorted(
            (_child(genesis, alice, ts=1), _child(genesis, alice, ts=2)),
            key=lambda block: block.block_id,
        )
        b2 = _child(b, alice, ts=3)
        b3 = _child(b2, alice, ts=4)
        assert store.add(a) == ([], [a])
        assert store.add(b) == ([], [])  # loses the tie: stored, not canonical
        assert store.add(b2) == ([a], [b, b2])  # the reorg diff, oldest first
        assert store.add(b3) == ([], [b3])
        assert store.head.block_id == b3.block_id
        assert store.canonical_chain() == [genesis, b, b2, b3]
        assert store.is_canonical(b) and not store.is_canonical(a)
        assert len(store) == 5

    def test_tie_broken_by_lowest_hash(self, genesis, alice):
        a, b = sorted(
            (_child(genesis, alice, ts=1), _child(genesis, alice, ts=2)),
            key=lambda block: block.block_id,
        )
        store = ChainStore(genesis)
        assert store.add(a) == ([], [a])
        assert store.add(b) == ([], [])
        assert store.head.block_id == a.block_id
        store = ChainStore(genesis)  # the other arrival order swaps the head
        assert store.add(b) == ([], [b])
        assert store.add(a) == ([b], [a])
        assert store.head.block_id == a.block_id
        assert store.block_at_height(1) is a

    def test_canonical_chain_order(self, genesis, alice):
        store = ChainStore(genesis)
        child = _child(genesis, alice)
        grandchild = _child(child, alice, ts=2000)
        store.add(child)
        store.add(grandchild)
        chain = store.canonical_chain()
        assert [block.height for block in chain] == [0, 1, 2]

    def test_block_at_height(self, genesis, alice):
        store = ChainStore(genesis)
        child = _child(genesis, alice)
        store.add(child)
        assert store.block_at_height(1).block_id == child.block_id
        assert store.block_at_height(5) is None

    def test_verify_chain_integrity_clean(self, genesis, alice):
        store = ChainStore(genesis)
        store.add(_child(genesis, alice))
        assert store.verify_chain_integrity()

    def test_unknown_block_lookup_raises(self, genesis):
        store = ChainStore(genesis)
        with pytest.raises(ChainError):
            store.get("ff" * 32)


class TestHeadersAfter:
    def _store_with_chain(self, genesis, alice, length):
        store = ChainStore(genesis)
        parent = genesis
        for i in range(length):
            parent = _child(parent, alice, ts=1000 + i)
            store.add(parent)
        return store

    def test_empty_locator_anchors_at_genesis(self, genesis, alice):
        store = self._store_with_chain(genesis, alice, 5)
        headers = store.headers_after([])
        assert [b.height for b in headers] == [1, 2, 3, 4, 5]  # oldest first

    def test_first_locator_hit_anchors_reply(self, genesis, alice):
        store = self._store_with_chain(genesis, alice, 6)
        chain = store.canonical_chain()
        locator = [chain[3].block_id, chain[1].block_id, genesis.block_id]
        headers = store.headers_after(locator)
        assert [b.height for b in headers] == [4, 5, 6]

    def test_unknown_locator_falls_back_to_genesis(self, genesis, alice):
        store = self._store_with_chain(genesis, alice, 3)
        headers = store.headers_after(["ee" * 32, "ff" * 32])
        assert [b.height for b in headers] == [1, 2, 3]

    def test_limit_clamped_and_applied(self, genesis, alice):
        store = self._store_with_chain(genesis, alice, 5)
        assert len(store.headers_after([], limit=2)) == 2
        assert len(store.headers_after([], limit=0)) == 1  # clamped up to 1
        assert len(store.headers_after([], limit=10_000)) == 5

    def test_caught_up_requester_gets_nothing(self, genesis, alice):
        store = self._store_with_chain(genesis, alice, 4)
        assert store.headers_after([store.head.block_id]) == []
