"""Columnar filter + aggregate tools against their record-by-record oracle."""

from __future__ import annotations

from typing import Any, Dict, List

import tool_oracle
from hypothesis import example, given, settings, strategies as st

from repro.analytics.tools import STANDARD_TOOLS
from repro.common.hashing import hash_value_hex
from repro.datamgmt.columns import Table

SHIPPED = {spec.tool_id: spec.fn for spec in STANDARD_TOOLS if spec.tool_id in tool_oracle.TOOLS}

# Ints, bools and floats side by side (and the odd value float() or a
# comparison refuses), so each record the columns cannot take is exercised.
_NUMBER = st.one_of(
    st.integers(-3, 300),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 2**52, 2**60, 10**400]),
)
_ODD = st.sampled_from(["150", "abc", None, [1.0], {"x": 1}])
_VALUE = st.one_of(_NUMBER, _NUMBER, _NUMBER, _ODD)
# Every kind a column can hold, evenly: strings (decided by code), plain
# numbers (in float64), ints past 2**52 and floats of the same value (as
# Python objects), and containers and None (as Python objects).
_MIXED = st.one_of(
    st.sampled_from(["F", "M", "A", ""]),
    st.integers(-2, 2),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, float("nan"), 2.0**52, 2.0**60]),
    st.sampled_from([2**52, 2**52 + 1, 2**60, 10**400]),
    st.sampled_from([None, {"x": 1}, [1], [1.0], ["F"]]),
)

_RECORD = st.fixed_dictionaries(
    # A column of strings only, held by every record.
    {"ward": st.sampled_from(["A", "B", "C"])},
    # Every other key may be missing: a missing path must raise (dotted
    # paths, ``birth_year``) or default (``outcomes``, ``diagnoses``) as it did.
    optional={
        "birth_year": st.one_of(
            st.integers(1930, 2010), st.booleans(), st.floats(1900, 2020), st.just(10**400), _ODD
        ),
        "sex": st.sampled_from(["F", "M", 1, None]),
        "diagnoses": st.one_of(
            st.lists(st.sampled_from(["I10", "E11", 1, True]), max_size=3), st.just("I10")
        ),
        "outcomes": st.one_of(
            st.dictionaries(st.sampled_from(["stroke", "diabetes"]), _NUMBER, max_size=2),
            st.just([1]),
        ),
        "lifestyle": st.fixed_dictionaries({}, optional={"smoker": _VALUE}),
        "vitals": st.fixed_dictionaries({}, optional={"sbp": _VALUE, "bmi": _VALUE}),
        "mixed": _MIXED,
    },
)

# A wanted value of every type, and a string that no record holds: what a
# filter or a compared group asks for.
_WANTED = st.sampled_from(
    [
        0, 1, 40, 70, 2**52, 2**53 + 1, 2**60, 2**60 + 1, True, False,
        1.5, -0.0, 2.0**60, float("nan"),
        "F", "A", "I10", "nobody", None, [1], ["F"], {"x": 1},
    ]
)

_FILTERS = st.dictionaries(
    st.sampled_from(
        [
            "age_min", "age_max", "diagnosis", "has_outcome_stroke", "has_outcome_cancer",
            "sex", "lifestyle.smoker", "vitals.sbp", "vitals.nope", "sex.deeper",
            "ward", "mixed", "mixed", "mixed",
        ]
    ),
    _WANTED,
    max_size=3,
)

_FIELDS = st.sampled_from(
    ["vitals.sbp", "vitals.bmi", "lifestyle.smoker", "birth_year", "vitals.nope"]
)

_PARAMS = st.fixed_dictionaries(
    {"filters": _FILTERS},
    optional={
        "field": _FIELDS,
        "outcome": st.sampled_from(["stroke", "diabetes", "cancer"]),
        "low": st.sampled_from([-1e308, 0.0, 15.0, 100.0]),
        "high": st.sampled_from([1.0, 55.0, 200.0, 1e308]),
        "bins": st.integers(0, 8),
        "group_field": st.sampled_from(
            ["sex", "lifestyle.smoker", "vitals.nope", "mixed", "mixed", "ward"]
        ),
        "group_values": st.lists(
            st.one_of(st.sampled_from(["F", "M", 0, 1, True, None]), _WANTED),
            min_size=2,
            max_size=2,
        ),
    },
)


def _answer(tool, records: List[Dict[str, Any]], params: Dict[str, Any]) -> Any:
    """The result (its hash and repr: ``repr`` tells 1 from 1.0 and -0.0
    from 0.0, and NaN from nothing), or which error stopped the tool."""
    try:
        result = tool(records, dict(params))
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        return (type(exc).__name__, str(exc))
    return (hash_value_hex(result), repr(result))


_BASE = {"birth_year": 1950, "sex": "F", "vitals": {"sbp": 150.0}}
_MIXED_COLUMN = [
    {"ward": "A", "mixed": value}
    for value in (2.0**60, 2**60, "F", None, 1, True, float("nan"), [1], "")
]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SHIPPED)), st.lists(_RECORD, max_size=6), _PARAMS)
# The first record's error wins, even when a later record's comes first in
# filter order: record 0 passes sex and stops at ``age_min``'s string bound.
@example("count", [_BASE, {"sex": "F"}], {"filters": {"sex": "F", "age_min": "x"}})
# Sums add left to right from 0.0: -0.0 alone sums to 0.0, and 1e16 then
# fifteen 1.0s stays 1e16, where np.sum's pairwise blocks give 1e16 + 14.
@example("numeric_summary", [{"vitals": {"sbp": -0.0}}], {"filters": {}, "field": "vitals.sbp"})
@example(
    "numeric_summary",
    [{"vitals": {"sbp": v}} for v in [1e16] + [1.0] * 15],
    {"filters": {}, "field": "vitals.sbp"},
)
# Out-of-range values clamp to the end bins (1e308's index is finite, and
# huge); int() refuses an infinite bin index.
@example(
    "histogram",
    [{"vitals": {"bmi": v}} for v in (14.5, -0.5, 55.0, 1e308)],
    {"filters": {}, "field": "vitals.bmi", "low": 15.0, "high": 55.0, "bins": 8},
)
@example(
    "histogram",
    [{"vitals": {"bmi": 20.0}}, {"vitals": {"bmi": float("inf")}}],
    {"filters": {}, "field": "vitals.bmi", "low": 15.0, "high": 55.0, "bins": 8},
)
# Equality by type: an int past 2**52 is compared as a Python object, so
# 2**60 + 1 equals no float and 2.0**60 equals the int 2**60; a string no
# record holds equals nothing, a number no string.
@example("count", _MIXED_COLUMN, {"filters": {"mixed": 2**60 + 1}})
@example("count", _MIXED_COLUMN, {"filters": {"mixed": 2.0**60}})
@example("count", _MIXED_COLUMN, {"filters": {"mixed": "nobody"}})
@example("count", _MIXED_COLUMN, {"filters": {"mixed": True, "ward": "A"}})
@example("count", _MIXED_COLUMN, {"filters": {"mixed": "F"}})
# Group membership by type, as the filters: strings by code, plain numbers
# in float64, the rest (an int past 2**52, None, a list) as Python objects.
@example(
    "compare_groups",
    [dict(row, vitals={"sbp": 120.0}) for row in _MIXED_COLUMN],
    {"filters": {}, "field": "vitals.sbp", "group_field": "mixed", "group_values": ["F", 1]},
)
@example(
    "compare_groups",
    [dict(row, vitals={"sbp": 120.0}) for row in _MIXED_COLUMN],
    {"filters": {}, "field": "vitals.sbp", "group_field": "mixed", "group_values": [2**60, None]},
)
@example(
    "compare_groups",
    [dict(row, vitals={"sbp": 120.0}) for row in _MIXED_COLUMN],
    {"filters": {}, "field": "vitals.sbp", "group_field": "mixed", "group_values": [[1], 2.0**60]},
)
@example(
    "compare_groups",
    [{"ward": "A", "mixed": v, "vitals": {"sbp": 120.0}} for v in (1, 1.5, 2, -0.0, True)],
    {"filters": {}, "field": "vitals.sbp", "group_field": "mixed", "group_values": [1.5, 0]},
)
def test_shipped_tool_agrees_with_the_oracle(
    tool_id: str, records: List[Dict[str, Any]], params: Dict[str, Any]
) -> None:
    expected = _answer(tool_oracle.TOOLS[tool_id], records, params)
    assert _answer(SHIPPED[tool_id], records, params) == expected
    # A site's cached table answers the same, with its columns cold and warm.
    table = Table(records)
    for _ in range(2):
        assert _answer(SHIPPED[tool_id], table, params) == expected


def test_the_oracle_covers_six_shipped_tools():
    assert sorted(SHIPPED) == sorted(tool_oracle.TOOLS) and len(SHIPPED) == 6
