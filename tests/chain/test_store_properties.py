"""``ChainStore``'s canonical index against the walk-based oracle.

Hypothesis grows random fork trees (parents before children, equal-height
ties included) and after every ``add`` holds the index — the canonical id
list, ``block_at_height``, ``headers_after`` and the returned reorg diff —
to ``store_oracle.OracleStore``, which re-derives each answer by walking
parent links.  A plain test then pins what the index is for: the lookups
cost the size of their answer, not the length of the chain.  This file is
part of the scheduled ``ci-stress`` deep-fuzz profile.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.chain.blocks import build_block, make_genesis
from repro.chain.state import StateDB
from repro.chain.store import ChainStore
from repro.p2p.sync import build_locator
from store_oracle import OracleStore

GENESIS = make_genesis(StateDB().state_root())
UNKNOWN_IDS = ["ee" * 32, "ff" * 32]


def _child(parent, salt):
    return build_block(parent, [], parent.header.state_root, "p", timestamp_ms=salt)


@given(st.data())
def test_index_agrees_with_the_parent_walk_after_every_add(data):
    store, oracle = ChainStore(GENESIS), OracleStore(GENESIS)
    blocks = [GENESIS]
    for salt in range(data.draw(st.integers(1, 40), label="blocks")):
        parent = blocks[data.draw(st.integers(0, len(blocks) - 1), label="parent")]
        block = _child(parent, salt)
        blocks.append(block)

        assert store.add(block) == oracle.add(block)
        assert store.head is oracle.head
        chain = oracle.canonical_chain()
        assert store.canonical_chain() == chain
        assert store.canonical_ids == [b.block_id for b in chain]
        for height in range(-1, len(chain) + 1):
            assert store.block_at_height(height) is oracle.block_at_height(height)
        for candidate in blocks:
            assert store.is_canonical(candidate) == (candidate in chain)

        ids = [b.block_id for b in blocks] + UNKNOWN_IDS  # canonical, side-branch, unknown
        locator = data.draw(st.lists(st.sampled_from(ids), max_size=6), label="locator")
        for limit in (0, 1, len(blocks)):
            assert store.headers_after(locator, limit) == oracle.headers_after(locator, limit)

    again = data.draw(st.sampled_from(blocks), label="duplicate")
    assert store.add(again) == ([], [])
    assert len(store) == len(blocks)


def test_lookups_cost_their_answer_not_the_chain(monkeypatch):
    store = ChainStore(GENESIS)
    parent = GENESIS
    for salt in range(2000):
        parent = _child(parent, salt)
        store.add(parent)
    locator = build_locator(store.canonical_ids)[3:]  # a requester a few blocks behind
    steps = {"get": 0, "ancestors": 0}
    real_get, real_ancestors = ChainStore.get, ChainStore.ancestors

    def counted_get(self, block_id):
        steps["get"] += 1
        return real_get(self, block_id)

    def counted_ancestors(self, block):
        for ancestor in real_ancestors(self, block):
            steps["ancestors"] += 1
            yield ancestor

    monkeypatch.setattr(ChainStore, "get", counted_get)
    monkeypatch.setattr(ChainStore, "ancestors", counted_ancestors)
    headers = store.headers_after(locator, limit=8)
    assert [b.height for b in headers] == [1998, 1999, 2000]
    assert store.headers_after(UNKNOWN_IDS + locator[-1:], limit=8)[-1].height == 8
    assert store.block_at_height(1234).height == 1234
    assert store.block_at_height(2001) is None
    assert sum(steps.values()) <= len(locator) + 8
