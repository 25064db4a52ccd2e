"""The shipped canonical encoder and payload checks, held to their oracle.

``serialize_oracle`` keeps the encoder and the two checks as they were
written first: a converted copy of the value, then ``json.dumps``; one call
per item in ``_encodes_as_utf8`` and ``_data_fault``.  For every generated
value, under both ``allow_float`` settings, the shipped encoder must give the
same bytes or raise the same exception type with the same message, and the
shipped checks must give the same verdicts.

One message is compared by its prefix only: a ``RecursionError`` (a list
that contains itself) names whichever call hit the limit, and that differs
between any two walks, the oracle's own included.
"""

from __future__ import annotations

import dataclasses
import enum
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain.transactions import _encodes_as_utf8
from repro.common.serialize import canonical_bytes, canonical_json, to_jsonable
from repro.contracts.vm import MAX_VALUE_DEPTH, _data_fault

import serialize_oracle as oracle


class Tag(str):
    """A ``str`` subclass: encoded as its text."""


class Count(int):
    """An ``int`` subclass: encoded as its number."""


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Opaque:
    """Not data to any of the walks."""


@dataclasses.dataclass(frozen=True)
class Record:
    blob: bytes
    count: int
    label: str


@dataclasses.dataclass
class Envelope:
    record: Record
    items: list
    meta: dict


def _self_containing(items):
    items = list(items)
    items.append(items)
    return items


def _nested(depth, leaf=1):
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


_SURROGATES = st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"])
_text = st.text(alphabet=st.one_of(st.characters(), _SURROGATES), max_size=8)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**70), max_value=2**70),
    _text,
    _text.map(Tag),
    st.integers(min_value=-5, max_value=5).map(Count),
    st.sampled_from(list(Level)),
    _floats,
)
_blobs = st.one_of(st.binary(max_size=8), st.binary(max_size=8).map(bytearray))
_hashable = st.one_of(st.integers(), _text, st.binary(max_size=4), st.booleans())
_sets = st.one_of(
    st.sets(_hashable, max_size=4),
    st.frozensets(st.integers(), max_size=4),
    st.sets(st.tuples(st.integers(), st.integers()), max_size=3),
    st.sets(st.floats(allow_nan=False), max_size=3),
)
_records = st.builds(Record, st.binary(max_size=6), st.integers(), _text)
_unknown = st.sampled_from([Opaque(), range(3), 1j, memoryview(b"ab"), Record, iter(())])
_keys = st.one_of(
    _text,
    _text,
    _text.map(Tag),
    st.integers(),
    st.booleans(),
    st.none(),
    st.binary(max_size=3),
)


def _containers(children):
    rows = st.lists(st.lists(st.integers(), max_size=4), max_size=4)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_text, children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
        rows,
        rows.map(lambda matrix: tuple(map(tuple, matrix))),
        st.builds(Envelope, _records, st.lists(children, max_size=3),
                  st.dictionaries(_text, children, max_size=3)),
        st.lists(children, max_size=3).map(_self_containing),
        st.builds(_nested, st.integers(MAX_VALUE_DEPTH - 2, MAX_VALUE_DEPTH + 2), children),
    )


VALUES = st.recursive(
    st.one_of(_scalars, _blobs, _sets, _records, _unknown), _containers, max_leaves=24
)


def _outcome(fn, *args):
    """What ``fn(*args)`` returned, or the type and message of what it raised."""
    try:
        return ("returned", fn(*args))
    except RecursionError as exc:
        assert str(exc).startswith("maximum recursion depth exceeded")
        return ("raised", RecursionError, "maximum recursion depth exceeded")
    except Exception as exc:  # the exception is the outcome under comparison
        return ("raised", type(exc), str(exc))


def _shape(jsonable):
    """A converted value with every type in it, comparable (a NaN equals itself)."""
    if isinstance(jsonable, dict):
        return [(type(key), key, _shape(item)) for key, item in jsonable.items()]
    if isinstance(jsonable, list):
        return (type(jsonable), [_shape(item) for item in jsonable])
    return (type(jsonable), repr(jsonable))


@settings(deadline=None)
@given(VALUES, st.booleans())
@example(_nested(MAX_VALUE_DEPTH), False)
@example(_nested(MAX_VALUE_DEPTH + 1), False)
@example({"k": [[1, 2], [3, 1.5]]}, False)
@example({"k": [[1, 2], [3, "\ud800"]]}, True)
@example([Record(b"\x00", 1, "a"), {Level.LOW, 3}], False)
def test_shipped_encoder_and_checks_agree_with_the_oracle(value, allow_float):
    expected = _outcome(oracle.canonical_json, value, allow_float)
    assert _outcome(canonical_json, value, allow_float) == expected
    encoded = _outcome(canonical_bytes, value, allow_float)
    if expected[0] == "returned":
        assert encoded == ("returned", expected[1].encode("utf-8"))
    else:
        assert encoded == expected
    converted = _outcome(to_jsonable, value, allow_float)
    reference = _outcome(oracle.to_jsonable, value, allow_float)
    if reference[0] == "returned":
        assert converted[0] == "returned"
        assert _shape(converted[1]) == _shape(reference[1])
    else:
        assert converted == reference
    assert _outcome(_encodes_as_utf8, value) == _outcome(oracle.encodes_as_utf8, value)
    assert _outcome(_data_fault, value) == _outcome(oracle.data_fault, value)


def test_a_shared_row_deep_down_keeps_the_first_verdict():
    """``_data_fault`` walks a shared container once: met again past the depth
    bound it is not re-judged, whether or not it holds leaves only."""
    row = [1, 2, 3]
    value = [row, _nested(MAX_VALUE_DEPTH - 1, row)]
    assert _data_fault(value) == oracle.data_fault(value) == ""
    fresh = [[1, 2, 3], _nested(MAX_VALUE_DEPTH - 1, [1, 2, 3])]
    assert _data_fault(fresh) == oracle.data_fault(fresh) == f"nested deeper than {MAX_VALUE_DEPTH}"
