"""Canonical, deterministic serialization.

Blockchain consensus requires every node to compute the *same* bytes for the
same logical value, so hashing must run over a canonical encoding.  We use
JSON with sorted keys, no whitespace, and explicit handling of bytes (hex)
and dataclasses.  Floats are rejected inside consensus-critical payloads
(transactions, blocks) because float formatting is platform-dependent; use
:func:`encode_decimal` to carry fixed-point values instead.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from typing import Any

from repro.common.errors import SerializationError

_FIXED_POINT_SCALE = 10**9


def encode_decimal(value: float, scale: int = _FIXED_POINT_SCALE) -> int:
    """Encode a float as a fixed-point integer safe for consensus payloads."""
    return int(round(value * scale))


def decode_decimal(value: int, scale: int = _FIXED_POINT_SCALE) -> float:
    """Invert :func:`encode_decimal`."""
    return value / scale


#: Types a container may hold for the walks below to finish it at C speed:
#: ``set(map(type, items)) <= leaves``.  Exact types only; a subclass of one
#: (an ``IntEnum``, a ``str`` subclass) takes the per-item path.
LEAVES = frozenset({type(None), bool, int, str})
FLOAT_LEAVES = LEAVES | {float}
_STR_KEYS = frozenset({str})
_SEQUENCES = frozenset({list, tuple})
#: Exact container types: never a scalar, bytes or a dataclass, so the walks
#: go straight to their container branch.
_CONTAINERS = frozenset({dict, list, tuple})

_FLOAT_ERROR = "floats are not allowed in consensus-critical payloads; use encode_decimal()"


def _rows_of_leaves(value: Any, types: set, leaves: frozenset) -> bool:
    """Whether ``value``, whose items have ``types``, is a sequence of exact
    lists / tuples of leaves only (a matrix): judged without a Python step per row."""
    return types <= _SEQUENCES and set(map(type, itertools.chain.from_iterable(value))) <= leaves


def to_jsonable(value: Any, allow_float: bool = True) -> Any:
    """Recursively convert ``value`` into plain JSON-compatible types.

    Supports dataclasses, dicts, lists/tuples, bytes (hex-encoded with a
    ``"0x"`` prefix), and scalars.  Set ``allow_float=False`` for
    consensus-critical payloads.
    """
    if type(value) not in _CONTAINERS:
        if value is None or isinstance(value, (bool, int, str)):
            return value
        if isinstance(value, float):
            if not allow_float:
                raise SerializationError(_FLOAT_ERROR)
            return value
        if isinstance(value, (bytes, bytearray)):
            return "0x" + bytes(value).hex()
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {
                field.name: to_jsonable(getattr(value, field.name), allow_float)
                for field in dataclasses.fields(value)
            }
    leaves = FLOAT_LEAVES if allow_float else LEAVES
    if isinstance(value, dict):
        if set(map(type, value)) <= _STR_KEYS and set(map(type, value.values())) <= leaves:
            return dict(value)
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(f"dict keys must be str, got {type(key).__name__}")
            out[key] = to_jsonable(item, allow_float)
        return out
    if isinstance(value, (list, tuple)):
        types = set(map(type, value))
        if types <= leaves:
            return list(value)
        if _rows_of_leaves(value, types, leaves):
            return [list(row) for row in value]
        return [to_jsonable(item, allow_float) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [to_jsonable(item, allow_float) for item in value]
        try:
            return sorted(items)
        except TypeError as exc:
            raise SerializationError("sets must contain sortable items") from exc
    raise SerializationError(f"cannot serialize {type(value).__name__}")


def _check(value: Any, leaves: frozenset) -> None:
    """Raise what :func:`to_jsonable` would raise for ``value``, building nothing.

    Visits what ``to_jsonable`` visits, in its order, so the first fault
    found is the one it reports; a container of leaves only (or of rows of
    leaves only) is passed over without a Python-level step per item.
    """
    if type(value) not in _CONTAINERS:
        if value is None or isinstance(value, (bool, int, str)):
            return
        if isinstance(value, float):
            if float not in leaves:
                raise SerializationError(_FLOAT_ERROR)
            return
        if isinstance(value, (bytes, bytearray)):
            return
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            for field in dataclasses.fields(value):
                _check(getattr(value, field.name), leaves)
            return
    if isinstance(value, dict):
        if set(map(type, value)) <= _STR_KEYS:
            if not set(map(type, value.values())) <= leaves:
                for item in value.values():
                    if type(item) not in leaves:
                        _check(item, leaves)
            return
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(f"dict keys must be str, got {type(key).__name__}")
            _check(item, leaves)
        return
    if isinstance(value, (list, tuple)):
        types = set(map(type, value))
        if not (types <= leaves or _rows_of_leaves(value, types, leaves)):
            for item in value:
                if type(item) not in leaves:
                    _check(item, leaves)
        return
    if isinstance(value, (set, frozenset)):
        to_jsonable(value, float in leaves)  # its items' faults, then their order
        return
    raise SerializationError(f"cannot serialize {type(value).__name__}")


def _encode_default(value: Any) -> Any:
    """What the C encoder cannot write itself, as :func:`to_jsonable` renders it."""
    if isinstance(value, (bytes, bytearray)):
        return "0x" + bytes(value).hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    if isinstance(value, (set, frozenset)):
        return to_jsonable(value)
    raise SerializationError(f"cannot serialize {type(value).__name__}")


# ``json``'s C encoder, built once: what ``JSONEncoder(sort_keys=True,
# separators=(",", ":"), default=_encode_default).encode`` builds on every
# call.  No circular-reference markers: ``_check`` has walked the whole value
# before the encoder sees it.  It keeps no state between calls, so one
# instance serves every thread.
_ENCODE = json.encoder.c_make_encoder(
    None, _encode_default, json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True
)


def canonical_json(value: Any, allow_float: bool = True) -> str:
    """Render ``value`` as canonical JSON text (sorted keys, no whitespace).

    The text is ``json.dumps(to_jsonable(value), sort_keys=True,
    separators=(",", ":"))``, got without the copy: ``value`` is checked in
    place, then written by ``json``'s C encoder.
    """
    _check(value, FLOAT_LEAVES if allow_float else LEAVES)
    return "".join(_ENCODE(value, 0))


def canonical_bytes(value: Any, allow_float: bool = True) -> bytes:
    """Canonical JSON encoded as UTF-8 bytes, ready for hashing."""
    return canonical_json(value, allow_float).encode("utf-8")


def from_json(text: str) -> Any:
    """Parse JSON text produced by :func:`canonical_json`."""
    try:
        return json.loads(text)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc


def decode_hex_fields(value: Any) -> Any:
    """Recursively decode ``"0x..."`` strings back into bytes."""
    if isinstance(value, str) and value.startswith("0x"):
        try:
            return bytes.fromhex(value[2:])
        except ValueError:
            return value
    if isinstance(value, dict):
        return {key: decode_hex_fields(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_hex_fields(item) for item in value]
    return value
