"""The canonical encoder and the two payload checks, written the obvious way.

``repro.common.serialize.canonical_json`` checks a value in place and hands it
to ``json``'s C encoder; ``_encodes_as_utf8`` (``repro.chain.transactions``)
and ``_data_fault`` (``repro.contracts.vm``) finish a container of leaves
without a step per item.  This module is the definition those are held to: a
full converted copy of the value, then ``json.dumps``, and one recursive call
per item in each check.  It is test code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Optional

from repro.common.errors import SerializationError

MAX_VALUE_DEPTH = 32


def to_jsonable(value: Any, allow_float: bool = True) -> Any:
    """Recursively convert ``value`` into plain JSON-compatible types."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not allow_float:
            raise SerializationError(
                "floats are not allowed in consensus-critical payloads; "
                "use encode_decimal()"
            )
        return value
    if isinstance(value, (bytes, bytearray)):
        return "0x" + bytes(value).hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name), allow_float)
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(f"dict keys must be str, got {type(key).__name__}")
            out[key] = to_jsonable(item, allow_float)
        return out
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item, allow_float) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [to_jsonable(item, allow_float) for item in value]
        try:
            return sorted(items)
        except TypeError as exc:
            raise SerializationError("sets must contain sortable items") from exc
    raise SerializationError(f"cannot serialize {type(value).__name__}")


def canonical_json(value: Any, allow_float: bool = True) -> str:
    """Render ``value`` as canonical JSON text (sorted keys, no whitespace)."""
    jsonable = to_jsonable(value, allow_float)
    return json.dumps(jsonable, sort_keys=True, separators=(",", ":"))


def encodes_as_utf8(value: Any) -> bool:
    """Whether every string in ``value`` — keys included, at any depth —
    encodes as UTF-8."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return True
    if isinstance(value, dict):
        return all(
            encodes_as_utf8(key) and encodes_as_utf8(item)
            for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return all(map(encodes_as_utf8, value))
    return True


def data_fault(value: Any, depth: int = 0, checked: Optional[set] = None) -> str:
    """Why ``value`` is not a MedScript value every node agrees on ("" when it is)."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return ""
    if not isinstance(value, (list, tuple, dict)):
        return f"a {type(value).__name__} is not data"
    checked = set() if checked is None else checked
    if id(value) in checked:  # shared sub-structure: walk it once
        return ""
    if depth >= MAX_VALUE_DEPTH:
        return f"nested deeper than {MAX_VALUE_DEPTH}"
    items = value
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            return "dict keys must be str"
        items = value.values()
    for item in items:
        fault = data_fault(item, depth + 1, checked)
        if fault:
            return fault
    checked.add(id(value))
    return ""
