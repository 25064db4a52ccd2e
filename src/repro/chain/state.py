"""Versioned copy-on-write world-state database backing the ledger.

A flat key/value store holding account balances, account nonces, and smart
contract storage (namespaced by contract id).  The canonical state root is
the root of a 16-ary Merkle trie over the ``(key, value)`` pairs, keyed by
the nibbles of ``sha256(key)`` (DESIGN.md §17): two nodes agree on the root
iff they agree on every entry, which is the determinism property the
contract VM is property-tested against (DESIGN.md invariant 3).

The substrate is built so every hot operation costs O(writes), not O(state):

- **Journal snapshots.**  ``snapshot()`` pushes an empty undo-log frame;
  each first write of a key inside the frame records the prior local entry.
  ``rollback()`` replays the frame in O(writes since snapshot);
  ``commit()`` folds the frame into its parent frame (or discards it).
  Nothing is ever copied wholesale.

- **Zero-copy reads/writes.**  ``get``/``set`` hand out and store object
  *references* under the **immutable-value convention**: a value passed to
  ``set`` (or obtained from ``get``) must never be mutated in place
  afterwards — build a new container instead.  The contract host bridge
  enforces this at the contract boundary by copying; internal consumers
  (accounts, runtime metadata) comply by construction.  An opt-in debug
  mode (``set_debug_aliasing(True)`` or ``REPRO_STATE_DEBUG=1``)
  fingerprints every stored value and re-verifies the fingerprints at
  snapshot/fork/root boundaries, raising :class:`StateAliasingError` when a
  caller broke the convention.

- **Overlays.**  ``fork()`` returns a :class:`StateOverlay` — a chained
  diff (writes plus deletion tombstones) over an immutable parent.  Reads
  walk the chain; per-block execution forks the parent state as an O(1)
  delta instead of copying it.  ``flatten()`` materializes the effective
  view into a standalone base state; ``collapse()`` does the same in place
  (used by state pruning so retained children keep working).  Forking
  freezes the parent only while overlays are live: when the last overlay
  is discarded (garbage-collected, ``discard()``-ed, or collapsed) the
  parent accepts direct writes again.

- **One persistent commitment.**  ``state_root()`` is the digest of a
  path-copying trie whose nodes are immutable tuples.  A layer remembers
  the keys it dirtied since its last root and folds only those in, so a
  root after a block costs O(write-set · log16 state) whatever the state
  size or overlay depth; an overlay starts from its parent's trie by
  reference, and ``flatten()``/``collapse()``/``copy()`` carry the trie
  over because the content they produce is identical.  The shape depends
  only on the set of pairs (a subtree holding one key is that key's leaf),
  never on write order; ``tests/chain/root_oracle.py`` rebuilds it from a
  plain dict and the test suites hold every root to that.

Snapshots give contract execution transactional semantics: a failed call
rolls back every write it made.
"""

from __future__ import annotations

import copy
import os
import weakref
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ChainError, SerializationError
from repro.common.hashing import ZERO_HASH, sha256
from repro.common.serialize import canonical_bytes

ACCOUNT_PREFIX = "acct"
CONTRACT_PREFIX = "contract"

# Sentinels for layered lookups.  ``_MISSING`` marks "no entry in this
# layer"; ``_DELETED`` is the overlay tombstone shadowing a parent entry.
_MISSING = object()
_DELETED = object()

_DEBUG_ENV = "REPRO_STATE_DEBUG"
_debug_aliasing = os.environ.get(_DEBUG_ENV, "") not in ("", "0", "false", "no")


class StateAliasingError(ChainError):
    """A stored value was mutated in place, violating the immutable-value
    convention (caught only when debug aliasing mode is enabled)."""


def set_debug_aliasing(enabled: bool) -> None:
    """Toggle aliasing verification for *newly created* states.

    Tests flip this on to catch callers that mutate values they handed to
    (or read from) a :class:`StateDB`; production leaves it off because the
    fingerprint bookkeeping re-serializes every written value.
    """
    global _debug_aliasing
    _debug_aliasing = bool(enabled)


def debug_aliasing_enabled() -> bool:
    return _debug_aliasing


def _encode_fragment(key: str, value: Any) -> bytes:
    """Canonical ``"key":value`` bytes a leaf commits to (floats rejected)."""
    return canonical_bytes(key) + b":" + canonical_bytes(value, allow_float=False)


# -- the commitment trie (DESIGN.md §17) -------------------------------------
# Nodes are immutable tuples, shared freely between states once built:
#   leaf   = (digest, key)        digest = H(0x00 ‖ fragment)
#   branch = (digest, children)   digest = H(0x01 ‖ 16 child digests)
# ``None`` is the empty subtree and hashes as 32 zero bytes.  A key sits on
# the path spelled by the nibbles of sha256(key), and a subtree holding one
# key *is* that key's leaf, so the shape — and the root — is a function of
# the set of (key, value) pairs alone.
_Node = Optional[Tuple[bytes, Any]]
_TrieItem = Tuple[bytes, _Node]  # (path, new leaf — None deletes the key)


def _key_path(key: str) -> bytes:
    return sha256(key.encode("utf-8"))


def _is_leaf(node: _Node) -> bool:
    return type(node[1]) is str


def _branch(children: List[_Node]) -> _Node:
    digests = [ZERO_HASH if child is None else child[0] for child in children]
    return sha256(b"\x01" + b"".join(digests)), tuple(children)


def _trie_apply(node: _Node, depth: int, items: Sequence[_TrieItem]) -> _Node:
    """``node``'s subtree with ``items`` (distinct paths) folded in.

    Path-copying: every node on a touched path is built anew, exactly once
    per batch, and nothing reachable from ``node`` is modified — which is
    also why the first root of a state is just the batch of all its keys.
    """
    if node is None or _is_leaf(node):
        if node is not None:
            path = _key_path(node[1])
            if all(item[0] != path for item in items):
                items = [*items, (path, node)]
        items = [item for item in items if item[1] is not None]
        if len(items) <= 1:
            return items[0][1] if items else None
        children: List[_Node] = [None] * 16
    else:
        children = list(node[1])
    groups: Dict[int, List[_TrieItem]] = {}
    for item in items:
        byte = item[0][depth >> 1]
        groups.setdefault(byte & 15 if depth & 1 else byte >> 4, []).append(item)
    for nibble, group in groups.items():
        child = children[nibble]
        if child is None and len(group) == 1:
            children[nibble] = group[0][1]
        else:
            children[nibble] = _trie_apply(child, depth + 1, group)
    live = [child for child in children if child is not None]
    if len(live) == 1 and _is_leaf(live[0]):
        return live[0]
    return _branch(children) if live else None


class StateDB:
    """Mutable world state with journaled snapshot/rollback support."""

    def __init__(
        self,
        initial: Optional[Dict[str, Any]] = None,
        parent: Optional["StateDB"] = None,
    ):
        self._parent = parent
        self._data: Dict[str, Any] = dict(initial or {})
        if parent is not None and initial:
            raise ChainError("an overlay starts empty; write through its API")
        # Undo log: one dict per open snapshot, key -> prior local entry
        # (a value reference, _DELETED, or _MISSING when the key was absent).
        self._journal: List[Dict[str, Any]] = []
        self._frozen = False
        # Live overlays forked (with freeze) off this state.  Weak refs:
        # an overlay that is discarded simply disappears from the set, and
        # once it is empty the freeze lifts (see _assert_mutable).
        self._overlays: "weakref.WeakSet[StateDB]" = weakref.WeakSet()
        # Sorted effective keys, cached for keys_with_prefix/items/__len__.
        self._eff_keys: Optional[List[str]] = None
        # Commitment trie as of the last root, and the keys this layer wrote
        # since (None: this layer has not been rooted yet).
        self._trie: _Node = None
        self._dirty: Optional[Set[str]] = None
        self._root_hits = 0
        self._root_recomputes = 0
        # Debug aliasing fingerprints for values stored through this layer.
        self._debug = _debug_aliasing
        self._fingerprints: Dict[str, Optional[bytes]] = {}
        if self._debug:
            for key, value in self._data.items():
                self._record_fingerprint(key, value)

    # -- layered lookup ----------------------------------------------------
    def _lookup(self, key: str) -> Any:
        """Effective value for ``key`` or ``_MISSING`` (tombstones hidden)."""
        layer: Optional[StateDB] = self
        while layer is not None:
            value = layer._data.get(key, _MISSING)
            if value is not _MISSING:
                return _MISSING if value is _DELETED else value
            layer = layer._parent
        return _MISSING

    def _assert_mutable(self) -> None:
        if self._frozen and not self._overlays:
            # Every freezing overlay has been discarded (garbage-collected,
            # discard()ed, or collapse()d); direct writes are safe again.
            self._frozen = False
        if self._frozen:
            raise ChainError(
                "state is frozen (it has live overlays); fork() it instead"
            )

    # -- write plumbing ----------------------------------------------------
    def _journal_record(self, key: str) -> None:
        if not self._journal:
            return
        frame = self._journal[-1]
        if key not in frame:
            frame[key] = self._data.get(key, _MISSING)

    def _mark_dirty(self, key: str, keyset_changed: bool) -> None:
        if self._dirty is not None:
            self._dirty.add(key)
        if keyset_changed:
            self._eff_keys = None

    def _write(self, key: str, value: Any) -> None:
        self._assert_mutable()
        self._journal_record(key)
        prior = self._data.get(key, _MISSING)
        self._data[key] = value
        if self._debug:
            self._record_fingerprint(key, value)
        self._mark_dirty(key, keyset_changed=prior is _MISSING or prior is _DELETED)

    # -- raw access ------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Return the stored value *by reference* (immutable-value convention)."""
        value = self._lookup(key)
        return default if value is _MISSING else value

    def set(self, key: str, value: Any) -> None:
        self._write(key, value)

    def delete(self, key: str) -> None:
        self._assert_mutable()
        if self._parent is None:
            if key not in self._data:
                return
            self._journal_record(key)
            del self._data[key]
            self._fingerprints.pop(key, None)
            self._mark_dirty(key, keyset_changed=True)
            return
        if self._lookup(key) is _MISSING:
            return
        self._journal_record(key)
        self._data[key] = _DELETED
        self._mark_dirty(key, keyset_changed=True)

    def contains(self, key: str) -> bool:
        return self._lookup(key) is not _MISSING

    def _effective_sorted_keys(self) -> List[str]:
        if self._eff_keys is None:
            if self._parent is None:
                self._eff_keys = sorted(self._data)
            else:
                seen: Dict[str, Any] = {}
                layer: Optional[StateDB] = self
                while layer is not None:
                    for key, value in layer._data.items():
                        if key not in seen:
                            seen[key] = value
                    layer = layer._parent
                self._eff_keys = sorted(
                    key for key, value in seen.items() if value is not _DELETED
                )
        return self._eff_keys

    def keys_with_prefix(self, prefix: str) -> List[str]:
        keys = self._effective_sorted_keys()
        start = bisect_left(keys, prefix)
        out: List[str] = []
        for index in range(start, len(keys)):
            if not keys[index].startswith(prefix):
                break
            out.append(keys[index])
        return out

    def items(self) -> Iterator[Tuple[str, Any]]:
        """Sorted (key, value) pairs, values by reference (do not mutate)."""
        for key in self._effective_sorted_keys():
            yield key, self._lookup(key)

    def __len__(self) -> int:
        if self._parent is None:
            return len(self._data)
        return len(self._effective_sorted_keys())

    # -- accounts ----------------------------------------------------------
    @staticmethod
    def _account_key(address: str) -> str:
        return f"{ACCOUNT_PREFIX}/{address}"

    def balance(self, address: str) -> int:
        account = self.get(self._account_key(address))
        return account["balance"] if account else 0

    def nonce(self, address: str) -> int:
        account = self.get(self._account_key(address))
        return account["nonce"] if account else 0

    def credit(self, address: str, amount: int) -> None:
        if amount < 0:
            raise ChainError("credit amount must be non-negative")
        key = self._account_key(address)
        account = self.get(key)
        account = {"balance": 0, "nonce": 0} if account is None else dict(account)
        account["balance"] += amount
        self.set(key, account)

    def debit(self, address: str, amount: int) -> None:
        if amount < 0:
            raise ChainError("debit amount must be non-negative")
        key = self._account_key(address)
        account = self.get(key)
        if account is None or account["balance"] < amount:
            raise ChainError(f"insufficient balance for {address}")
        account = dict(account)
        account["balance"] -= amount
        self.set(key, account)

    def bump_nonce(self, address: str) -> int:
        key = self._account_key(address)
        account = self.get(key)
        account = {"balance": 0, "nonce": 0} if account is None else dict(account)
        account["nonce"] += 1
        self.set(key, account)
        return account["nonce"]

    # -- contract storage ---------------------------------------------------
    @staticmethod
    def contract_key(contract_id: str, slot: str) -> str:
        return f"{CONTRACT_PREFIX}/{contract_id}/{slot}"

    def get_slot(self, contract_id: str, slot: str, default: Any = None) -> Any:
        return self.get(self.contract_key(contract_id, slot), default)

    def set_slot(self, contract_id: str, slot: str, value: Any) -> None:
        self.set(self.contract_key(contract_id, slot), value)

    def contract_slots(self, contract_id: str) -> Dict[str, Any]:
        prefix = f"{CONTRACT_PREFIX}/{contract_id}/"
        return {
            key[len(prefix):]: copy.deepcopy(self._lookup(key))
            for key in self.keys_with_prefix(prefix)
        }

    # -- snapshots -----------------------------------------------------------
    def snapshot(self) -> int:
        """Push an undo-log frame; returns its index for sanity checks."""
        self._debug_verify()
        self._journal.append({})
        return len(self._journal) - 1

    def commit(self) -> None:
        """Discard the most recent snapshot, keeping current writes.

        With nested snapshots the committed frame's undo entries fold into
        the enclosing frame so an outer rollback still restores the state
        as of the outer snapshot.
        """
        if not self._journal:
            raise ChainError("no snapshot to commit")
        frame = self._journal.pop()
        if self._journal:
            outer = self._journal[-1]
            for key, prior in frame.items():
                outer.setdefault(key, prior)

    def rollback(self) -> None:
        """Restore the most recent snapshot, undoing writes since it."""
        if not self._journal:
            raise ChainError("no snapshot to roll back to")
        self._assert_mutable()
        frame = self._journal.pop()
        for key, prior in frame.items():
            if prior is _MISSING:
                self._data.pop(key, None)
                self._fingerprints.pop(key, None)
            else:
                self._data[key] = prior
                if self._debug and prior is not _DELETED:
                    self._record_fingerprint(key, prior)
            self._mark_dirty(key, keyset_changed=True)

    @property
    def journal_depth(self) -> int:
        return len(self._journal)

    # -- overlays ----------------------------------------------------------
    def fork(self, freeze: bool = True) -> "StateOverlay":
        """Return a :class:`StateOverlay` diff layered over this state.

        By default forking freezes this state: further direct writes raise,
        because a parent mutating underneath its overlays would silently
        change every child's effective view (and its cached roots).  The
        freeze is tied to the overlay's lifetime — once the last freezing
        overlay is discarded (garbage-collected, :meth:`StateOverlay.discard`-ed,
        or :meth:`collapse`-d into a standalone state) the parent accepts
        direct writes again.  Pass ``freeze=False`` for a *transient* fork
        (e.g. a read-only view call) that never freezes the parent; such a
        fork must be discarded before the parent is written again.
        """
        if self._journal:
            raise ChainError("cannot fork a state with open snapshots")
        self._debug_verify()
        overlay = StateOverlay(self)
        if freeze:
            self._frozen = True
            self._overlays.add(overlay)
        return overlay

    @property
    def overlay_depth(self) -> int:
        depth = 0
        layer = self._parent
        while layer is not None:
            depth += 1
            layer = layer._parent
        return depth

    def _effective_dict(self) -> Dict[str, Any]:
        """Materialize the effective view as one flat dict.

        Folded bottom-up — copy the base layer's dict, then apply each
        overlay's writes and tombstones from deepest to shallowest — so the
        cost is O(base size + sum of overlay write-sets) with a plain-dict
        constant, instead of a per-key parent-chain walk plus a sort.
        """
        layers: List[StateDB] = []
        layer: Optional[StateDB] = self
        while layer is not None:
            layers.append(layer)
            layer = layer._parent
        data = dict(layers[-1]._data)  # base layer holds no tombstones
        for overlay in reversed(layers[:-1]):
            for key, value in overlay._data.items():
                if value is _DELETED:
                    data.pop(key, None)
                else:
                    data[key] = value
        return data

    def flatten(self) -> "StateDB":
        """Materialize the effective view into a standalone base state.

        Values are shared by reference (immutable-value convention) and the
        commitment trie is carried over, so flattening the canonical head
        is cheap and its next root hashes nothing.
        """
        flat = StateDB()
        flat._data = self._effective_dict()
        flat._trie, flat._dirty = self._trie_for_same_content()
        if flat._debug:
            for key, value in flat._data.items():
                flat._record_fingerprint(key, value)
        return flat

    def collapse(self) -> "StateDB":
        """Absorb the whole parent chain into this layer, in place.

        The effective content (and therefore the trie and every root) is
        unchanged; children forked off this state keep working because they
        reference this object directly.  Used by state pruning to cut
        overlay chains at the finality boundary.
        """
        if self._parent is None:
            return self
        if self._journal:
            raise ChainError("cannot collapse a state with open snapshots")
        self._trie, self._dirty = self._trie_for_same_content()
        self._data = self._effective_dict()
        parent = self._parent
        self._parent = None
        # This layer no longer reads through its parent; lift the parent's
        # freeze if we were its last live overlay.
        parent._overlays.discard(self)
        if parent._frozen and not parent._overlays:
            parent._frozen = False
        self._eff_keys = None
        if self._debug:
            self._fingerprints = {}
            for key, value in self._data.items():
                self._record_fingerprint(key, value)
        return self

    # -- roots -------------------------------------------------------------
    def _trie_for_same_content(self) -> Tuple[_Node, Optional[Set[str]]]:
        """``(_trie, _dirty)`` for a state with this state's effective
        content: a never-rooted overlay hands on its parent's trie with its
        own writes marked dirty, so nothing is hashed here or twice later."""
        if self._dirty is not None:
            return self._trie, set(self._dirty)
        if self._parent is None:
            return None, None
        trie, dirty = self._parent._trie_for_same_content()
        return trie, None if dirty is None else dirty.union(self._data)

    def _synced_trie(self) -> _Node:
        """Bring the trie up to this layer's effective content."""
        dirty: Any = self._dirty
        if dirty is None:
            # First root of this layer: an overlay starts from its parent's
            # trie (shared by reference), a base state from the empty one,
            # and every local key is folded in as one batch.
            if self._parent is not None:
                self._trie = self._parent._synced_trie()
            dirty = self._data
        if dirty:
            items: List[_TrieItem] = []
            for key in dirty:
                # The effective value, not the local entry: a tombstone or a
                # write rolled back to "absent here" shows what is below.
                value = self._lookup(key)
                leaf = None
                if value is not _MISSING:
                    leaf = (sha256(b"\x00" + _encode_fragment(key, value)), key)
                items.append((_key_path(key), leaf))
            self._trie = _trie_apply(self._trie, 0, items)
        self._dirty = set()
        return self._trie

    def state_root(self) -> bytes:
        """Deterministic commitment to the entire effective state: the root
        digest of the trie (32 zero bytes for the empty state).  Only keys
        written since this layer's last root are re-hashed.
        """
        if self._dirty is not None and not self._dirty:
            self._root_hits += 1
        else:
            self._debug_verify()
            self._synced_trie()
            self._root_recomputes += 1
        return ZERO_HASH if self._trie is None else self._trie[0]

    def local_delta(self) -> Tuple[Dict[str, Any], List[str]]:
        """This layer's own writes and deletion tombstones.

        Returns ``(writes, deleted_keys)`` where ``writes`` maps keys to the
        stored value *references* (immutable-value convention applies) and
        ``deleted_keys`` lists tombstoned keys in sorted order.  Used by the
        parallel block scheduler to harvest a speculative overlay's effect
        as plain data that can be replayed onto (or shipped between) states.
        """
        writes: Dict[str, Any] = {}
        deletes: List[str] = []
        for key, value in self._data.items():
            if value is _DELETED:
                deletes.append(key)
            else:
                writes[key] = value
        return writes, sorted(deletes)

    # -- copies and exports ------------------------------------------------
    def copy(self) -> "StateDB":
        """Independent deep copy of the *effective* state.

        The copy shares **no mutable structure** with this state, its
        parents, or any overlay forked from it: values are deep-copied and
        the copy has no parent link and no journal frames (only the
        immutable commitment trie is carried, by reference).  Mutating the
        copy can never leak into the original (or vice versa).
        Snapshot history is not carried over.
        """
        duplicate = StateDB(copy.deepcopy(self._effective_dict()))
        duplicate._trie, duplicate._dirty = self._trie_for_same_content()
        return duplicate

    def to_dict(self) -> Dict[str, Any]:
        return copy.deepcopy(self._effective_dict())

    # -- debug aliasing verification --------------------------------------
    def _record_fingerprint(self, key: str, value: Any) -> None:
        try:
            self._fingerprints[key] = canonical_bytes(value)
        except SerializationError:
            self._fingerprints[key] = None  # unverifiable value; skip

    def verify_no_aliasing(self) -> None:
        """Re-fingerprint every tracked value; raise on any in-place change."""
        layer: Optional[StateDB] = self
        while layer is not None:
            for key, expected in layer._fingerprints.items():
                if expected is None:
                    continue
                value = layer._data.get(key, _MISSING)
                if value is _MISSING or value is _DELETED:
                    continue
                try:
                    actual = canonical_bytes(value)
                except SerializationError:
                    continue
                if actual != expected:
                    raise StateAliasingError(
                        f"value for key {key!r} was mutated in place after "
                        "being stored (immutable-value convention violated)"
                    )
            layer = layer._parent

    def _debug_verify(self) -> None:
        if self._debug:
            self.verify_no_aliasing()

    # -- introspection -----------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters for observability spans and benchmarks.

        O(1) apart from the depth walk: the node reads this on every block,
        so the key count (``len(state)``, O(state) on an overlay) stays out.
        """
        return {
            "local_keys": len(self._data),
            "journal_depth": len(self._journal),
            "overlay_depth": self.overlay_depth,
            "root_cache_hits": self._root_hits,
            "root_recomputes": self._root_recomputes,
        }


class StateOverlay(StateDB):
    """A chained diff over a frozen parent state.

    Writes and deletion tombstones live in this layer; reads fall through
    to the parent chain.  Created via :meth:`StateDB.fork`.
    """

    def __init__(self, parent: StateDB):
        if parent is None:
            raise ChainError("StateOverlay requires a parent state")
        super().__init__(parent=parent)

    @property
    def parent(self) -> StateDB:
        return self._parent

    def discard(self) -> None:
        """Explicitly release this overlay, unfreezing the parent if this
        was its last live overlay.

        Dropping the last reference to an overlay has the same effect (the
        liveness tracking is weak); ``discard()`` makes the release
        deterministic, e.g. when a speculative block loses the race and its
        overlay is thrown away.  The overlay must not be used afterwards:
        once the parent accepts new writes, this overlay's effective view
        and cached roots are undefined.
        """
        parent = self._parent
        if parent is None:
            return
        parent._overlays.discard(self)
        if parent._frozen and not parent._overlays:
            parent._frozen = False

