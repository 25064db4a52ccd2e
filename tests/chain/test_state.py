"""StateDB tests: accounts, contract slots, snapshots, overlays, roots."""

import random

import pytest
from root_oracle import EMPTY, leaf_digest, oracle_root

from repro.chain import state as state_mod
from repro.chain.state import StateAliasingError, StateDB, set_debug_aliasing
from repro.common.errors import ChainError, SerializationError
from repro.common.hashing import hash_value


def test_get_set_round_trip():
    state = StateDB()
    state.set("k", {"nested": [1, 2]})
    assert state.get("k") == {"nested": [1, 2]}


def test_get_returns_references_under_immutable_convention():
    # get/set are zero-copy: the stored object is handed back by reference.
    # Callers must treat it as immutable (the contract host bridge copies at
    # its own boundary); debug aliasing mode exists to catch violations.
    state = StateDB()
    value = {"list": [1]}
    state.set("k", value)
    assert state.get("k") is value


def test_debug_aliasing_mode_catches_in_place_mutation():
    set_debug_aliasing(True)
    try:
        state = StateDB()
        state.set("k", {"list": [1]})
        state.get("k")["list"].append(2)  # convention violation
        with pytest.raises(StateAliasingError):
            state.state_root()
        # ...and of a value already folded into the trie, seen from a fork.
        state = StateDB({"k": {"list": [1]}, "other": 0})
        state.state_root()
        fork = state.fork()
        fork.get("k")["list"].append(2)
        with pytest.raises(StateAliasingError):
            fork.snapshot()
    finally:
        set_debug_aliasing(False)


def test_missing_key_default():
    assert StateDB().get("nope", 42) == 42


def test_delete_and_contains():
    state = StateDB()
    state.set("k", 1)
    assert state.contains("k")
    state.delete("k")
    assert not state.contains("k")


def test_keys_with_prefix_sorted():
    state = StateDB()
    for key in ["b/2", "a/1", "b/1"]:
        state.set(key, 0)
    assert state.keys_with_prefix("b/") == ["b/1", "b/2"]


class TestAccounts:
    def test_balance_starts_zero(self):
        assert StateDB().balance("addr") == 0

    def test_credit_debit(self):
        state = StateDB()
        state.credit("a", 100)
        state.debit("a", 30)
        assert state.balance("a") == 70

    def test_overdraft_rejected(self):
        state = StateDB()
        state.credit("a", 10)
        with pytest.raises(ChainError):
            state.debit("a", 11)

    def test_debit_unknown_account_rejected(self):
        with pytest.raises(ChainError):
            StateDB().debit("ghost", 1)

    def test_negative_amounts_rejected(self):
        state = StateDB()
        with pytest.raises(ChainError):
            state.credit("a", -1)
        with pytest.raises(ChainError):
            state.debit("a", -1)

    def test_nonce_bumping(self):
        state = StateDB()
        assert state.nonce("a") == 0
        assert state.bump_nonce("a") == 1
        assert state.nonce("a") == 1


class TestContractSlots:
    def test_slot_round_trip(self):
        state = StateDB()
        state.set_slot("c1", "counter", 5)
        assert state.get_slot("c1", "counter") == 5

    def test_slots_namespaced_by_contract(self):
        state = StateDB()
        state.set_slot("c1", "x", 1)
        state.set_slot("c2", "x", 2)
        assert state.get_slot("c1", "x") == 1
        assert state.get_slot("c2", "x") == 2

    def test_contract_slots_listing(self):
        state = StateDB()
        state.set_slot("c1", "a", 1)
        state.set_slot("c1", "b", 2)
        assert state.contract_slots("c1") == {"a": 1, "b": 2}


class TestSnapshots:
    def test_rollback_restores(self):
        state = StateDB()
        state.set("k", 1)
        state.snapshot()
        state.set("k", 2)
        state.rollback()
        assert state.get("k") == 1

    def test_commit_keeps_changes(self):
        state = StateDB()
        state.snapshot()
        state.set("k", 9)
        state.commit()
        assert state.get("k") == 9

    def test_nested_snapshots(self):
        state = StateDB()
        state.set("k", 1)
        state.snapshot()
        state.set("k", 2)
        state.snapshot()
        state.set("k", 3)
        state.rollback()
        assert state.get("k") == 2
        state.rollback()
        assert state.get("k") == 1

    def test_rollback_without_snapshot_rejected(self):
        with pytest.raises(ChainError):
            StateDB().rollback()

    def test_commit_without_snapshot_rejected(self):
        with pytest.raises(ChainError):
            StateDB().commit()


class TestRoots:
    def test_equal_states_equal_roots(self):
        a, b = StateDB(), StateDB()
        a.set("x", 1)
        b.set("x", 1)
        assert a.state_root() == b.state_root()

    def test_any_difference_changes_root(self):
        a, b = StateDB(), StateDB()
        a.set("x", 1)
        b.set("x", 2)
        assert a.state_root() != b.state_root()

    def test_insertion_order_irrelevant(self):
        a, b = StateDB(), StateDB()
        a.set("x", 1)
        a.set("y", 2)
        b.set("y", 2)
        b.set("x", 1)
        assert a.state_root() == b.state_root()

    def test_copy_is_independent(self):
        a = StateDB()
        a.set("x", 1)
        b = a.fork()  # the one way to copy a state
        b.set("x", 2)
        assert a.get("x") == 1
        assert a.state_root() != b.state_root()

    def test_root_is_the_trie_root_not_the_content_digest(self):
        # The root is the Merkle-trie commitment the oracle defines
        # (DESIGN.md §17), no longer sha256(canonical_bytes(full state dict)).
        state = StateDB()
        state.credit("alice", 100)
        state.set("contract/c1/s/x", {"a": [1, 2], "b": "text"})
        state.set_slot("c2", "y", [3, {"k": True}])
        state.delete("contract/c1/s/x")
        assert state.state_root() == oracle_root(state.to_dict())
        assert state.state_root() != hash_value(state.to_dict(), allow_float=False)

    def test_empty_and_single_key_roots(self):
        state = StateDB()
        assert state.state_root() == EMPTY == b"\x00" * 32
        state.set("only", [1])
        assert state.state_root() == leaf_digest("only", [1])  # no branch above it
        state.delete("only")
        assert state.state_root() == EMPTY

    def test_floats_rejected_in_committed_values(self):
        state = StateDB()
        state.set("k", 1.5)
        with pytest.raises(SerializationError):
            state.state_root()
        state.set("k", 2)
        assert state.state_root() == oracle_root({"k": 2})

    def test_root_cache_hit_after_clean_read(self):
        state = StateDB()
        state.set("x", 1)
        first = state.state_root()
        assert state.state_root() == first
        assert state.stats()["root_cache_hits"] >= 1
        state.set("x", 2)
        assert state.state_root() != first


class TestOverlay:
    def test_fork_reads_through_to_parent(self):
        base = StateDB()
        base.set("x", 1)
        overlay = base.fork()
        assert overlay.get("x") == 1
        overlay.set("x", 2)
        assert overlay.get("x") == 2
        assert base.get("x") == 1

    def test_parent_frozen_after_fork(self):
        # What a fork sees of its parent is frozen at the fork: the parent
        # stays writable, and none of it shows in the child.
        base = StateDB()
        base.set("x", 1)
        overlay = base.fork()
        base.set("x", 2)
        base.set("y", 3)
        assert overlay.get("x") == 1
        assert not overlay.contains("y")
        assert overlay.state_root() == oracle_root({"x": 1})
        assert base.state_root() == oracle_root({"x": 2, "y": 3})

    def test_parent_stays_frozen_while_any_overlay_lives(self):
        # ...for every fork, however many there are and whichever are dropped.
        base = StateDB({"x": 1, "y": 2})
        base.state_root()
        o1 = base.fork()
        o2 = base.fork()
        o1.set("x", "o1")
        del o1
        base.delete("y")
        assert dict(o2.items()) == {"x": 1, "y": 2}
        assert o2.state_root() == oracle_root({"x": 1, "y": 2})
        assert dict(base.items()) == {"x": 1}

    def test_transient_fork_leaves_parent_writable(self):
        base = StateDB()
        base.set("x", 1)
        view = base.fork()
        assert view.get("x") == 1
        base.set("x", 2)
        assert view.get("x") == 1

    def test_tombstone_hides_parent_key(self):
        base = StateDB()
        base.set("x", 1)
        base.set("y", 2)
        overlay = base.fork()
        overlay.delete("x")
        assert not overlay.contains("x")
        assert overlay.get("x", "gone") == "gone"
        assert overlay.keys_with_prefix("") == ["y"]
        assert len(overlay) == 1
        assert base.contains("x")

    def test_overlay_root_equals_flat_root(self):
        base = StateDB()
        for i in range(20):
            base.set(f"k/{i}", {"v": i})
        overlay = base.fork()
        overlay.set("k/3", {"v": 333})
        overlay.delete("k/7")
        overlay.set("new", [1, 2])
        flat = StateDB(overlay.to_dict())
        assert overlay.state_root() == flat.state_root()
        assert overlay.state_root() == oracle_root(overlay.to_dict())

    def test_chained_overlays(self):
        base = StateDB()
        base.set("a", 1)
        o1 = base.fork()
        o1.set("b", 2)
        o2 = o1.fork()
        o2.delete("a")
        o2.set("c", 3)
        assert dict(o2.items()) == {"b": 2, "c": 3}
        assert dict(o1.items()) == {"a": 1, "b": 2}

    def test_flatten_matches_effective_view(self):
        # A state rebuilt flat from another's pairs is the same state.
        base = StateDB()
        base.set("a", 1)
        overlay = base.fork()
        overlay.set("b", 2)
        overlay.delete("a")
        flat = StateDB(overlay.to_dict())
        assert dict(flat.items()) == dict(overlay.items()) == {"b": 2}
        assert len(flat) == len(overlay) == 1
        assert flat.state_root() == overlay.state_root()

    def test_flatten_root_fresh_after_overlay_shadows_cached_fragment(self):
        # The base folded a leaf for "k" into the trie, then a fork overwrote
        # "k" and was itself forked WITHOUT an intervening state_root().  The
        # grandchild starts from the base's trie, so the write to "k" must
        # travel with it as pending, or its root would commit to the old
        # value — a silent consensus-root divergence.
        base = StateDB()
        base.set("k", 1)
        base.set("other", "x")
        base.state_root()
        overlay = base.fork()
        overlay.set("k", 999)
        child = overlay.fork()
        assert child.get("k") == 999
        assert child.state_root() == oracle_root({"k": 999, "other": "x"})
        assert overlay.state_root() == child.state_root()

    def test_chained_flatten_keeps_shallowest_writer_fragment(self):
        # Three generations: the middle one's folded leaf must win over the
        # base's, and the youngest's not-yet-folded write over both.
        base = StateDB()
        base.set("a", 1)
        base.set("b", 1)
        base.state_root()
        mid = base.fork()
        mid.set("a", 2)
        mid.state_root()  # folds mid's leaf for "a"
        top = mid.fork()
        top.set("b", 3)  # shadows base's folded "b" leaf, itself pending
        assert dict(top.fork().items()) == {"a": 2, "b": 3}
        assert top.fork().state_root() == oracle_root({"a": 2, "b": 3})
        assert base.state_root() == oracle_root({"a": 1, "b": 1})

    def test_collapse_preserves_content_and_children(self):
        # Pruning is dropping a reference: with its ancestors gone a state
        # (and a child forked off it) still holds everything it held.
        base = StateDB()
        base.set("a", 1)
        mid = base.fork()
        mid.set("b", 2)
        child = mid.fork()
        child.set("c", 3)
        root_before = child.state_root()
        base.set("a", "rewritten")
        del base
        assert dict(mid.items()) == {"a": 1, "b": 2}
        del mid
        assert dict(child.items()) == {"a": 1, "b": 2, "c": 3}
        assert child.state_root() == root_before

    def test_overlay_snapshot_rollback(self):
        base = StateDB()
        base.set("x", 1)
        overlay = base.fork()
        overlay.set("x", 2)
        overlay.snapshot()
        overlay.set("x", 3)
        overlay.delete("x")
        overlay.rollback()
        assert overlay.get("x") == 2
        overlay.snapshot()
        overlay.delete("x")
        overlay.commit()
        assert overlay.get("x") is None
        assert base.get("x") == 1

    def test_fork_with_open_snapshot_rejected(self):
        state = StateDB()
        state.snapshot()
        with pytest.raises(ChainError):
            state.fork()

    def test_accounts_through_overlay(self):
        base = StateDB()
        base.credit("alice", 100)
        overlay = base.fork()
        overlay.debit("alice", 40)
        overlay.credit("bob", 40)
        assert overlay.balance("alice") == 60
        assert overlay.balance("bob") == 40
        assert base.balance("alice") == 100
        assert base.balance("bob") == 0


def _write(state, op):
    if op == "set":
        state.set("k", "written")
        state.set("fresh", 1)
    elif op == "delete":
        state.delete("k")
    else:  # a rollback re-marks the keys it restores as pending
        state.snapshot()
        state.set("k", "doomed")
        state.delete("other")
        state.state_root()  # folds the doomed writes into the writer's trie
        state.rollback()
        state.set("k", "after")


class TestCopyIsolation:
    """A fork shares only immutable trie nodes with the state it came from."""

    @pytest.mark.parametrize("rooted", [True, False], ids=["rooted", "pending"])
    @pytest.mark.parametrize("writer", ["parent", "child"])
    @pytest.mark.parametrize("op", ["set", "delete", "rollback"])
    def test_write_on_one_side_is_invisible_on_the_other(self, op, writer, rooted):
        content = {"k": {"v": 1}, "other": 2, **{f"pad/{i}": i for i in range(40)}}
        parent = StateDB(content)
        if rooted:
            parent.state_root()
        child = parent.fork()
        written, untouched = (parent, child) if writer == "parent" else (child, parent)
        _write(written, op)
        assert untouched.to_dict() == content
        assert untouched.keys_with_prefix("") == sorted(content)
        assert len(untouched) == len(content)
        assert untouched.state_root() == oracle_root(content)
        assert written.state_root() == oracle_root(written.to_dict())
        assert written.to_dict() != content
        # ...and the other way round afterwards, on the same pair.
        theirs = written.to_dict()
        _write(untouched, "set")
        assert written.to_dict() == theirs
        assert written.state_root() == oracle_root(theirs)

    def test_copy_shares_no_structure_with_parent_or_siblings(self):
        # A fork of a fork never leaks writes into the state it came from,
        # that state's parent, or a sibling fork.
        base = StateDB()
        base.set("box", {"items": [1, 2]})
        overlay = base.fork()
        overlay.set("box2", {"items": [3]})
        sibling = base.fork()
        copied = overlay.fork()
        copied.set("box", {"items": ["replaced"]})
        copied.delete("box2")
        copied.credit("alice", 5)
        assert base.get("box") == {"items": [1, 2]}
        assert overlay.get("box") == {"items": [1, 2]}
        assert sibling.get("box") == {"items": [1, 2]}
        assert overlay.get("box2") == {"items": [3]}
        assert base.balance("alice") == sibling.balance("alice") == 0
        assert not base.contains("box2") and not sibling.contains("box2")


class TestIncrementalRoot:
    """The persistently maintained trie against the from-scratch oracle."""

    def test_matches_from_scratch(self):
        state = StateDB()
        for i in range(50):
            state.set(f"k/{i}", {"v": i})
        assert state.state_root() == oracle_root(state.to_dict())
        state.set("k/10", {"v": "changed"})
        state.delete("k/20")
        state.set("brand-new", [1])
        assert state.state_root() == oracle_root(state.to_dict())

    def test_matches_reference_implementation(self):
        state = StateDB()
        state.set("a", 1)
        state.set("b", {"x": [1, 2]})
        assert state.state_root() == oracle_root({"a": 1, "b": {"x": [1, 2]}})

    def test_overlay_incremental_root(self):
        base = StateDB()
        for i in range(30):
            base.set(f"k/{i}", i)
        base.state_root()  # the overlay starts from this trie
        overlay = base.fork()
        overlay.set("k/5", "changed")
        overlay.delete("k/6")  # tombstone over a base key
        overlay.set("extra", True)
        assert overlay.state_root() == oracle_root(overlay.to_dict())
        assert overlay.state_root() != base.state_root()
        assert base.state_root() == oracle_root(base.to_dict())

    def test_detects_any_difference(self):
        a, b = StateDB(), StateDB()
        a.set("x", 1)
        b.set("x", 2)
        assert a.state_root() != b.state_root()

    def test_root_inside_open_snapshot_then_rollback(self):
        base = StateDB({"keep": 1, "gone": 2})
        overlay = base.fork()
        before = overlay.state_root()
        overlay.snapshot()
        overlay.set("keep", 10)
        overlay.set("new", 3)
        overlay.delete("gone")
        inside = overlay.state_root()  # folds the doomed writes into the trie
        assert inside == oracle_root({"keep": 10, "new": 3})
        overlay.rollback()  # every key is now absent from this layer again
        assert overlay.state_root() == before == oracle_root({"keep": 1, "gone": 2})

    def test_write_then_delete_in_one_layer(self):
        base = StateDB({"a": 1})
        base.state_root()
        overlay = base.fork()
        overlay.set("fresh", 1)
        overlay.delete("fresh")  # tombstone over nothing
        overlay.set("a", 2)
        overlay.delete("a")  # tombstone over a base key
        assert overlay.state_root() == oracle_root({}) == EMPTY
        assert base.state_root() == oracle_root({"a": 1})

    def test_shape_independent_of_write_order(self):
        pairs = {f"key/{i}": {"v": i} for i in range(200)}
        doomed = {f"doomed/{i}": i for i in range(60)}
        expected = oracle_root(pairs)
        for seed in range(4):
            rng = random.Random(seed)
            ops = [("set", k, v) for k, v in {**pairs, **doomed}.items()]
            rng.shuffle(ops)
            state = StateDB()
            live_doomed = []
            for op, key, value in ops:
                state.set(key, value)
                if key in doomed:
                    live_doomed.append(key)
                if live_doomed and rng.random() < 0.3:  # deletes interleaved
                    state.delete(live_doomed.pop(rng.randrange(len(live_doomed))))
                if rng.random() < 0.05:
                    state.state_root()  # and roots taken at random points
            for key in live_doomed:
                state.delete(key)
            assert state.state_root() == expected

    def test_ancestor_root_survives_70_rooted_descendants(self):
        # No published node is ever mutated: after 70 generations were
        # written and rooted on top of it, the ancestor's trie still hashes
        # to its own content — checked through a fresh fork that starts from
        # that trie, not through the ancestor's cached digest.
        base = StateDB({f"k/{i}": i for i in range(300)})
        base_root = base.state_root()
        rng = random.Random(7)
        layers, state = [base], base
        for depth in range(70):
            state = state.fork()
            for _ in range(8):
                key = f"k/{rng.randrange(330)}"
                if rng.random() < 0.25:
                    state.delete(key)
                else:
                    state.set(key, [depth, rng.randrange(10)])
            assert state.state_root() == oracle_root(state.to_dict())
            layers.append(state)
        assert base.state_root() == base_root == oracle_root(base.to_dict())
        mid = layers[35]
        probe = mid.fork()
        probe.set("probe", 1)
        assert probe.state_root() == oracle_root({**mid.to_dict(), "probe": 1})

    @staticmethod
    def _count_hashes(monkeypatch):
        """Every SHA-256 the state module computes from here on, as a list."""
        hashed = []
        real = state_mod.sha256
        monkeypatch.setattr(
            state_mod, "sha256", lambda data: hashed.append(1) or real(data)
        )
        return hashed

    def test_fork_copy_flatten_collapse_hash_nothing(self, monkeypatch):
        # fork() is the one operation left of the four; it hashes nothing,
        # whether or not the state it copies still has writes pending.
        base = StateDB({f"k/{i}": i for i in range(500)})
        base.state_root()
        head = base.fork()
        for i in range(10):
            head.set(f"k/{i}", "written")
        hashed = self._count_hashes(monkeypatch)
        pending_child = head.fork()
        assert hashed == []
        root = head.state_root()
        del hashed[:]

        child = head.fork()
        assert child.state_root() == root and child.stats()["root_recomputes"] == 0
        assert child.fork().state_root() == root
        assert hashed == []
        # ...and a one-key write afterwards hashes a path, not the state.
        child.set("k/0", "again")
        child.state_root()
        assert 0 < len(hashed) <= 8
        assert pending_child.state_root() == root

    def test_never_rooted_overlay_hands_on_its_parents_trie(self, monkeypatch):
        base = StateDB({f"k/{i}": i for i in range(500)})
        base.state_root()
        overlay = base.fork()
        overlay.set("k/1", "x")
        overlay.delete("k/2")
        child = overlay.fork()  # overlay itself was never rooted
        hashed = self._count_hashes(monkeypatch)
        assert child.state_root() == oracle_root(child.to_dict())
        assert len(hashed) <= 16  # two paths, not 500 leaves
