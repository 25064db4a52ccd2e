"""Compiled record filters against the per-record oracle; tools leave records alone."""

from __future__ import annotations

from typing import Any, Dict, List

from filter_oracle import matches
from hypothesis import example, given, settings, strategies as st

from repro.analytics.tools import STANDARD_TOOLS, _filtered, tool_local_train
from repro.common.errors import QueryError
from repro.common.hashing import hash_value_hex
from repro.datamgmt.store import HospitalDataStore

_RECORDS = st.lists(
    st.fixed_dictionaries(
        {
            "birth_year": st.integers(1930, 2010),
            "sex": st.sampled_from(["F", "M"]),
            "diagnoses": st.lists(st.sampled_from(["I10", "E11", "C50"]), max_size=3),
            "lifestyle": st.fixed_dictionaries({"smoker": st.integers(0, 1)}),
        },
        # Some records lack what a filter reads: missing fields must raise
        # (dotted paths) or default (outcomes) exactly as the oracle does.
        optional={
            "outcomes": st.dictionaries(
                st.sampled_from(["stroke", "diabetes"]), st.integers(0, 1), max_size=2
            ),
            "vitals": st.fixed_dictionaries({"sbp": st.sampled_from([110.0, 150.0])}),
        },
    ),
    max_size=8,
)

_FILTERS = st.dictionaries(
    st.sampled_from(
        [
            "age_min", "age_max", "diagnosis", "has_outcome_stroke", "has_outcome_cancer",
            "sex", "lifestyle.smoker", "vitals.sbp", "vitals.nope", "sex.deeper", "ghost",
        ]
    ),
    st.sampled_from([0, 1, 40, 70, "F", "I10", 150.0, True, None]),
    max_size=4,
)


def _outcome(run) -> Any:
    """The matching records, or which error (an unknown dotted path, a range
    bound of the wrong type) stopped the scan."""
    try:
        return run()
    except (QueryError, TypeError) as exc:
        return (type(exc).__name__, str(exc))


_BASE = {"birth_year": 1950, "sex": "F", "diagnoses": [], "lifestyle": {"smoker": 0}}


@settings(max_examples=300, deadline=None)
@given(_RECORDS, _FILTERS)
# Filters are applied record by record, not filter by filter: the first record
# passes ``vitals.sbp`` and stops at ``ghost``; a filter-major scan would stop
# at the second record's missing ``vitals`` instead.
@example(
    [{**_BASE, "vitals": {"sbp": 150.0}}, _BASE],
    {"vitals.sbp": 150.0, "ghost": 1},
)
def test_compiled_filter_agrees_with_the_oracle(
    records: List[Dict[str, Any]], filters: Dict[str, Any]
) -> None:
    expected = _outcome(lambda: [r for r in records if matches(r, filters)])
    assert _outcome(lambda: _filtered(records, {"filters": filters})) == expected


def test_no_standard_tool_mutates_the_records_it_is_given(small_cohort) -> None:
    """The canonical view is shared by every reader of the store."""
    store = HospitalDataStore("h0")
    store.add_canonical("ds", small_cohort, fmt="hl7v2")
    before = hash_value_hex(store.get_records("ds"))
    trained = tool_local_train(store.get_records("ds"), {"outcome": "stroke"})
    params = {
        "filters": {"age_min": 30},
        "field": "vitals.sbp",
        "outcome": "stroke",
        "low": 80.0,
        "high": 220.0,
        "bins": 7,
        "group_field": "sex",
        "group_values": ["F", "M"],
        "global_params": trained["params"],
    }
    for spec in STANDARD_TOOLS:
        spec.fn(store.get_records("ds"), dict(params))
        assert hash_value_hex(store.get_records("ds")) == before, spec.tool_id
