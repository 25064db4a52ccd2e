"""Versioned world-state database backing the ledger.

A flat key/value store holding account balances, account nonces, and smart
contract storage (namespaced by contract id).  The values live in the leaves
of a 16-ary Merkle trie keyed by the nibbles of ``sha256(key)`` (DESIGN.md
§17), whose root is the canonical state root: two nodes agree on the root
iff they agree on every entry, which is the determinism property the
contract VM is property-tested against (DESIGN.md invariant 3).

A :class:`StateDB` is three things, and every hot operation costs O(writes),
not O(state):

- **One persistent trie.**  Nodes are immutable tuples, so a trie is a
  value: whoever holds a reference to a root holds that whole version of the
  state, for as long as they keep it, at the cost of the nodes nobody else
  shares.  Folding a batch of writes in builds each touched node once
  (path-copying) and modifies nothing reachable from the old root.  The
  shape depends only on the set of pairs (a subtree holding one key is that
  key's leaf), never on write order; ``tests/chain/root_oracle.py`` rebuilds
  it from a plain dict and the test suites hold every root to that.

- **Pending writes.**  ``set``/``delete`` go to a dict of writes not yet
  folded in; a read looks there first, then descends the trie.
  ``state_root()`` folds the pending writes in — O(write-set · log16 state)
  whatever the state size — and returns the root digest.

- **Journal snapshots.**  ``snapshot()`` pushes an empty undo-log frame;
  each first write of a key inside the frame records the value it replaced.
  ``rollback()`` replays the frame in O(writes since snapshot);
  ``commit()`` folds the frame into its parent frame (or discards it).
  Snapshots give contract execution transactional semantics: a failed call
  rolls back every write it made.

``fork()`` returns a state that starts from the same trie, by reference, and
a copy of whatever is still pending (nothing, once a root has been taken).
The two share only immutable nodes, so a fork is a true snapshot: parent and
child can both keep writing and neither sees the other.

``get``/``set`` hand out and store object *references* under the
**immutable-value convention**: a value passed to ``set`` (or obtained from
``get``) must never be mutated in place afterwards — build a new container
instead.  The contract host bridge enforces this at the contract boundary by
copying; internal consumers (accounts, runtime metadata) comply by
construction.  An opt-in debug mode (``set_debug_aliasing(True)`` or
``REPRO_STATE_DEBUG=1``) re-hashes every stored value at snapshot/fork/root
boundaries, raising :class:`StateAliasingError` when a caller broke the
convention.
"""

from __future__ import annotations

import copy
import os
from bisect import bisect_left
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ChainError, SerializationError
from repro.common.hashing import ZERO_HASH, sha256
from repro.common.serialize import canonical_bytes

ACCOUNT_PREFIX = "acct"
CONTRACT_PREFIX = "contract"

# ``_MISSING`` is "no such key"; ``_DELETED`` is a pending removal of a key
# the trie may still hold.
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
    verification re-serializes every stored value.
    """
    global _debug_aliasing
    _debug_aliasing = bool(enabled)


def debug_aliasing_enabled() -> bool:
    return _debug_aliasing


# -- the trie (DESIGN.md §17) -------------------------------------------------
# Nodes are immutable tuples, shared freely between states once built:
#   leaf   = (digest, key, value)   digest = H(0x00 ‖ canonical "key":value)
#   branch = (digest, children)     digest = H(0x01 ‖ 16 child digests)
# ``None`` is the empty subtree and hashes as 32 zero bytes.  A key sits on
# the path spelled by the nibbles of sha256(key), and a subtree holding one
# key *is* that key's leaf, so the shape — and the root — is a function of
# the set of (key, value) pairs alone.
_Node = Optional[Tuple[Any, ...]]
_TrieItem = Tuple[bytes, _Node]  # (path, new leaf — None deletes the key)


def _key_path(key: str) -> bytes:
    return sha256(key.encode("utf-8"))


def _leaf_digest(key: str, value: Any) -> bytes:
    """What a leaf commits to (floats rejected)."""
    fragment = canonical_bytes(key) + b":" + canonical_bytes(value, allow_float=False)
    return sha256(b"\x00" + fragment)


def _is_leaf(node: _Node) -> bool:
    return type(node[1]) is str


def _branch(children: List[_Node]) -> _Node:
    digests = [ZERO_HASH if child is None else child[0] for child in children]
    return sha256(b"\x01" + b"".join(digests)), tuple(children)


def _trie_find(node: _Node, path: bytes) -> _Node:
    """The leaf ``path`` leads to (which may hold another key), or None."""
    depth = 0
    while node is not None and not _is_leaf(node):
        byte = path[depth >> 1]
        node = node[1][byte & 15 if depth & 1 else byte >> 4]
        depth += 1
    return node


def _trie_leaves(node: _Node) -> Iterator[Tuple[bytes, str, Any]]:
    stack = [node]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if _is_leaf(node):
            yield node
        else:
            stack.extend(node[1])


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
    """Mutable world state: a persistent trie, pending writes, a journal."""

    def __init__(self, initial: Optional[Dict[str, Any]] = None):
        self._trie: _Node = None
        # Writes since the last root: key -> value reference or _DELETED.
        self._pending: Dict[str, Any] = dict(initial or {})
        # Undo log: one dict per open snapshot, key -> the value the first
        # write inside the frame replaced (_MISSING when the key was absent).
        self._journal: List[Dict[str, Any]] = []
        # Sorted keys, cached for keys_with_prefix/items/__len__ until the
        # key set changes.  Never mutated in place, so forks share it.
        self._keys: Optional[List[str]] = None
        self._keys_folded = 0
        self._root_hits = 0
        self._root_recomputes = 0
        # Debug aliasing: leaf digests of pending values as they were stored
        # (a folded value's fingerprint is its leaf's own digest).
        self._debug = _debug_aliasing
        self._fingerprints: Dict[str, Optional[bytes]] = {}
        if self._debug:
            for key, value in self._pending.items():
                self._record_fingerprint(key, value)

    # -- raw access ------------------------------------------------------
    def _lookup(self, key: str) -> Any:
        """Value for ``key`` or ``_MISSING``: pending writes, then the trie."""
        value = self._pending.get(key, _MISSING)
        if value is _MISSING:
            leaf = _trie_find(self._trie, _key_path(key))
            return leaf[2] if leaf is not None and leaf[1] == key else _MISSING
        return _MISSING if value is _DELETED else value

    def _write(self, key: str, value: Any, prior: Any) -> None:
        if self._journal:
            self._journal[-1].setdefault(key, prior)
        self._pending[key] = value
        if self._debug:
            self._record_fingerprint(key, value)
        if prior is _MISSING or value is _DELETED:
            self._keys = None

    def get(self, key: str, default: Any = None) -> Any:
        """Return the stored value *by reference* (immutable-value convention)."""
        value = self._lookup(key)
        return default if value is _MISSING else value

    def set(self, key: str, value: Any) -> None:
        self._write(key, value, self._lookup(key))

    def delete(self, key: str) -> None:
        prior = self._lookup(key)
        if prior is not _MISSING:
            self._write(key, _DELETED, prior)

    def contains(self, key: str) -> bool:
        return self._lookup(key) is not _MISSING

    def _pairs(self) -> Dict[str, Any]:
        """Every (key, value reference): a leaf walk plus the pending writes."""
        pairs = {key: value for _, key, value in _trie_leaves(self._trie)}
        for key, value in self._pending.items():
            if value is _DELETED:
                pairs.pop(key, None)
            else:
                pairs[key] = value
        return pairs

    def _sorted_keys(self) -> List[str]:
        if self._keys is None:
            self._keys = sorted(self._pairs())
        return self._keys

    def keys_with_prefix(self, prefix: str) -> List[str]:
        keys = self._sorted_keys()
        start = bisect_left(keys, prefix)
        out: List[str] = []
        for index in range(start, len(keys)):
            if not keys[index].startswith(prefix):
                break
            out.append(keys[index])
        return out

    def items(self) -> Iterator[Tuple[str, Any]]:
        """Sorted (key, value) pairs, values by reference (do not mutate)."""
        return iter(sorted(self._pairs().items()))

    def __len__(self) -> int:
        return len(self._sorted_keys())

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
        """Restore the most recent snapshot, undoing writes since it.

        The undone keys go back to pending with the values they had: a root
        taken inside the snapshot may have folded the doomed writes in.
        """
        if not self._journal:
            raise ChainError("no snapshot to roll back to")
        for key, prior in self._journal.pop().items():
            self._pending[key] = _DELETED if prior is _MISSING else prior
            if self._debug:
                self._record_fingerprint(key, prior)
            self._keys = None

    @property
    def journal_depth(self) -> int:
        return len(self._journal)

    # -- forks and roots -----------------------------------------------------
    def fork(self) -> "StateDB":
        """An independent state with this state's content.

        O(pending writes) — O(1) once a root has been taken, which is where
        the node forks: a block's post-state is rooted before any child
        builds on it.  Nothing mutable is shared, so writes, deletes and
        rollbacks on either side never show on the other.
        """
        return self._fork_into(StateDB())

    def _fork_into(self, child: "StateDB") -> "StateDB":
        if self._journal:
            raise ChainError("cannot fork a state with open snapshots")
        self._debug_verify()
        child._trie = self._trie
        child._pending = dict(self._pending)
        child._keys = self._keys
        if child._debug:
            child._fingerprints = dict(self._fingerprints)
        return child

    def state_root(self) -> bytes:
        """Deterministic commitment to the entire state: the root digest of
        the trie (32 zero bytes for the empty state), after folding in the
        keys written since the last root.
        """
        if self._pending:
            self._debug_verify()
            items: List[_TrieItem] = [
                (
                    _key_path(key),
                    None if value is _DELETED else (_leaf_digest(key, value), key, value),
                )
                for key, value in self._pending.items()
            ]
            self._trie = _trie_apply(self._trie, 0, items)
            self._keys_folded += len(items)
            self._pending = {}
            self._fingerprints = {}
            self._root_recomputes += 1
        else:
            self._root_hits += 1
        return ZERO_HASH if self._trie is None else self._trie[0]

    def to_dict(self) -> Dict[str, Any]:
        return copy.deepcopy(self._pairs())

    # -- debug aliasing verification --------------------------------------
    def _record_fingerprint(self, key: str, value: Any) -> None:
        try:
            self._fingerprints[key] = _leaf_digest(key, value)
        except SerializationError:
            self._fingerprints[key] = None  # a float, a removal: nothing to verify

    def verify_no_aliasing(self) -> None:
        """Re-hash every stored value; raise on any in-place change."""
        pending = (
            (self._fingerprints.get(key), key, value)
            for key, value in self._pending.items()
        )
        for expected, key, value in chain(pending, _trie_leaves(self._trie)):
            if expected is None:
                continue
            try:
                unchanged = _leaf_digest(key, value) == expected
            except SerializationError:
                unchanged = False
            if not unchanged:
                raise StateAliasingError(
                    f"value for key {key!r} was mutated in place after "
                    "being stored (immutable-value convention violated)"
                )

    def _debug_verify(self) -> None:
        if self._debug:
            self.verify_no_aliasing()

    # -- introspection -----------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """O(1) counters for observability spans and benchmarks (the node
        reads this on every block, so ``len(state)`` stays out)."""
        return {
            "journal_depth": len(self._journal),
            "keys_folded": self._keys_folded,
            "root_cache_hits": self._root_hits,
            "root_recomputes": self._root_recomputes,
        }
