"""The filter + aggregate site tools as they shipped record by record, kept as the oracle.

``repro.analytics.tools`` answers these six tools from per-field columns:
one mask per filter, array aggregates, and the per-record step only on a
record the columns cannot decide.  These are the loops it replaced.  They
define a tool's answer to the bit (sums added left to right from ``0.0``,
``int()`` truncation in the histogram) and which error stops it on which
record, and ``test_tool_oracle.py`` holds the shipped tools to them.  It is
test code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from filter_oracle import matches

from repro.analytics.stats import describe
from repro.common.errors import OracleError
from repro.datamgmt.virtual import NumericSummary, field_getter

Records = List[Dict[str, Any]]


def _filtered(records: Records, params: Dict[str, Any]) -> Records:
    filters = params.get("filters") or {}
    return [record for record in records if matches(record, filters)]


def tool_count(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    return {"count": len(_filtered(records, params))}


def tool_numeric_summary(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    path = params.get("field")
    if not path:
        raise OracleError("numeric_summary requires params['field']")
    field = field_getter(path)
    summary = NumericSummary()
    for record in _filtered(records, params):
        summary.add(field(record))
    return {"field": path, "summary": summary.to_dict()}


def tool_prevalence(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    outcome = params.get("outcome")
    if not outcome:
        raise OracleError("prevalence requires params['outcome']")
    matching = _filtered(records, params)
    positives = sum(
        1 for record in matching if record.get("outcomes", {}).get(outcome, 0)
    )
    return {"outcome": outcome, "n": len(matching), "positives": positives}


def tool_histogram(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    path = params.get("field")
    low = float(params.get("low", 0.0))
    high = float(params.get("high", 1.0))
    bins = int(params.get("bins", 10))
    if not path or bins <= 0 or high <= low:
        raise OracleError("histogram requires field, low < high, bins > 0")
    field = field_getter(path)
    counts = [0] * bins
    width = (high - low) / bins
    for record in _filtered(records, params):
        value = float(field(record))
        index = int((value - low) / width)
        counts[min(max(index, 0), bins - 1)] += 1
    return {"field": path, "low": low, "high": high, "counts": counts}


def tool_describe(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    path = params.get("field")
    if not path:
        raise OracleError("describe requires params['field']")
    field = field_getter(path)
    values = [field(record) for record in _filtered(records, params)]
    return {"field": path, "stats": describe(values)}


def tool_compare_groups(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    field_path = params.get("field")
    group_field = params.get("group_field")
    group_values = params.get("group_values") or []
    if not field_path or not group_field or len(group_values) != 2:
        raise OracleError("compare_groups requires field, group_field, 2 group_values")
    field = field_getter(field_path)
    group = field_getter(group_field)
    summaries = [NumericSummary(), NumericSummary()]
    for record in _filtered(records, params):
        try:
            group_value = group(record)
        except Exception:
            continue
        for index, wanted in enumerate(group_values):
            if group_value == wanted:
                summaries[index].add(field(record))
    return {
        "field": field_path,
        "group_field": group_field,
        "group_values": list(group_values),
        "groups": [summary.to_dict() for summary in summaries],
    }


TOOLS = {
    "count": tool_count,
    "numeric_summary": tool_numeric_summary,
    "prevalence": tool_prevalence,
    "histogram": tool_histogram,
    "describe": tool_describe,
    "compare_groups": tool_compare_groups,
}
