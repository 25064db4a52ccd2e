"""The state commitment, rebuilt from a plain dict: the oracle for ``state_root()``.

``StateDB`` maintains its Merkle trie persistently — path-copied per block,
shared between overlays, carried through ``flatten()``/``collapse()``/
``copy()``.  This module is the definition that machinery is held to
(DESIGN.md §17), written the slow obvious way: no node objects, no sharing,
no caching, one recursive pass over the whole dict per call.  It is test
code: nothing under ``src/`` imports it, and it imports nothing from
``repro.chain.state``.

- path of a key   = the 64 hex nibbles of ``sha256(key)``
- leaf            = ``H(0x00 ‖ canonical "key":value)`` (floats rejected)
- branch          = ``H(0x01 ‖ 16 child digests)``
- empty subtree   = 32 zero bytes (so the empty state's root is 32 zero bytes)
- a subtree holding exactly one key is that key's leaf, at whatever depth
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

from repro.common.serialize import canonical_bytes

_NIBBLES = "0123456789abcdef"
EMPTY = b"\x00" * 32


def _h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def leaf_digest(key: str, value: Any) -> bytes:
    fragment = canonical_bytes(key) + b":" + canonical_bytes(value, allow_float=False)
    return _h(b"\x00" + fragment)


def _subtree(pairs: List[Tuple[str, bytes]], depth: int) -> bytes:
    if not pairs:
        return EMPTY
    if len(pairs) == 1:
        return pairs[0][1]
    children = [
        _subtree([pair for pair in pairs if pair[0][depth] == nibble], depth + 1)
        for nibble in _NIBBLES
    ]
    return _h(b"\x01" + b"".join(children))


def oracle_root(data: Dict[str, Any]) -> bytes:
    """Root of the trie holding exactly ``data``'s pairs."""
    pairs = [
        (hashlib.sha256(key.encode("utf-8")).hexdigest(), leaf_digest(key, value))
        for key, value in data.items()
    ]
    return _subtree(pairs, 0)
