"""``repro.query.parser`` as it shipped before its patterns were compiled
once at import, kept as the oracle.

The shipped parser compiles every pattern at import and finds the outcome
with one alternation; this module rebuilds and re-escapes each pattern per
call and tries the outcome synonyms one by one, in the dict's order.  It
defines which vector (or which ``QueryError``) a text parses to, and
``test_parser_oracle.py`` holds the shipped parser to it.  It is test code:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional

from repro.common.errors import QueryError
from repro.query.vector import QueryVector

_OUTCOME_SYNONYMS = {
    "stroke": "stroke",
    "strokes": "stroke",
    "cva": "stroke",
    "diabetes": "diabetes",
    "diabetic": "diabetes",
    "t2d": "diabetes",
    "cancer": "cancer",
    "tumor": "cancer",
    "malignancy": "cancer",
}

_FIELD_SYNONYMS = {
    "systolic blood pressure": "vitals.sbp",
    "systolic": "vitals.sbp",
    "sbp": "vitals.sbp",
    "blood pressure": "vitals.sbp",
    "diastolic": "vitals.dbp",
    "dbp": "vitals.dbp",
    "bmi": "vitals.bmi",
    "body mass index": "vitals.bmi",
    "heart rate": "vitals.heart_rate",
    "glucose": "labs.glucose",
    "blood sugar": "labs.glucose",
    "ldl": "labs.ldl",
    "cholesterol": "labs.ldl",
    "hdl": "labs.hdl",
    "hba1c": "labs.hba1c",
    "a1c": "labs.hba1c",
    "creatinine": "labs.creatinine",
    "alcohol": "lifestyle.alcohol_units_week",
    "exercise": "lifestyle.exercise_hours_week",
}

#: Longest-first so "systolic blood pressure" wins over "blood pressure".
_FIELD_KEYS = sorted(_FIELD_SYNONYMS, key=len, reverse=True)

_INTENT_PATTERNS = (
    ("compare", r"\bcompare\b|\bdifference in\b|\bdiffer between\b"),
    ("prevalence", r"\bprevalence|\bhow common|\brate of\b"),
    ("count", r"\bhow many\b|\bcount\b|\bnumber of\b"),
    ("histogram", r"\bhistogram\b|\bdistribution of\b"),
    ("mean", r"\baverage\b|\bmean\b|\btypical\b"),
    ("describe", r"\bdescribe\b|\bsummary of\b|\bsummarize\b"),
    ("train", r"\btrain\b|\bbuild a? ?model\b|\bpredict\b|\blearn\b"),
    ("cluster", r"\bcluster\b|\bsubtypes?\b|\bstratify\b"),
)


def _detect_intent(text: str) -> str:
    for intent, pattern in _INTENT_PATTERNS:
        if re.search(pattern, text):
            return intent
    raise QueryError(f"could not detect an intent in {text!r}")


def _detect_outcome(text: str) -> str:
    for synonym, outcome in _OUTCOME_SYNONYMS.items():
        if re.search(rf"\b{re.escape(synonym)}\b", text):
            return outcome
    return ""


def _detect_field(text: str) -> str:
    for key in _FIELD_KEYS:
        if key in text:
            return _FIELD_SYNONYMS[key]
    return ""


def _detect_filters(text: str) -> Dict[str, Any]:
    filters: Dict[str, Any] = {}
    age_min = re.search(
        r"(?:over|older than|at least|>=?)\s*(\d{2})\b(?!\s*and\s*\d)", text
    )
    if age_min:
        filters["age_min"] = int(age_min.group(1))
    age_max = re.search(r"(?:under|younger than|at most|<=?)\s*(\d{2})\b", text)
    if age_max:
        filters["age_max"] = int(age_max.group(1))
    between = re.search(r"aged?\s*(\d{2})\s*(?:-|to)\s*(\d{2})", text)
    if between:
        filters["age_min"] = int(between.group(1))
        filters["age_max"] = int(between.group(2))
    if re.search(r"\bnon-?smokers?\b", text):
        filters["lifestyle.smoker"] = 0
    elif re.search(r"\bsmokers?\b|\bsmoking\b", text):
        filters["lifestyle.smoker"] = 1
    if re.search(r"\bwomen\b|\bfemales?\b", text):
        filters["sex"] = "F"
    elif re.search(r"\bmen\b|\bmales?\b", text):
        filters["sex"] = "M"
    # The query text is lowercased upstream, so match codes like "i63.9".
    diagnosis = re.search(r"\bdiagnos(?:ed with|is)\s+([a-z]\d{2}\.?\d*)", text)
    if diagnosis:
        filters["diagnosis"] = diagnosis.group(1).upper()
    return filters


def parse_query(text: str, purpose: str = "research") -> QueryVector:
    """Parse a natural-language research question into a query vector."""
    if not text or not text.strip():
        raise QueryError("empty query text")
    lowered = text.lower().strip()
    intent = _detect_intent(lowered)
    outcome = _detect_outcome(lowered)
    target_field = _detect_field(lowered)
    filters = _detect_filters(lowered)
    vector = QueryVector(
        intent=intent,
        outcome=outcome,
        target_field=target_field,
        filters=filters,
        purpose=purpose,
    )
    # Intent-specific defaults and clean-ups.
    if intent == "count" and outcome and not target_field:
        vector.filters[f"has_outcome_{outcome}"] = 1
        vector.outcome = ""
    if intent == "histogram":
        value_range = re.search(
            r"between\s+(\d+(?:\.\d+)?)\s+and\s+(\d+(?:\.\d+)?)", lowered
        )
        if value_range:
            vector.value_range = [
                float(value_range.group(1)),
                float(value_range.group(2)),
            ]
        else:
            vector.value_range = _default_range(vector.target_field)
        bins = re.search(r"(\d+)\s+bins?", lowered)
        if bins:
            vector.bins = int(bins.group(1))
    if intent == "train":
        if re.search(r"\bmlp\b|\bneural\b|\bdeep\b", lowered):
            vector.model = "mlp"
        rounds = re.search(r"(\d+)\s+rounds?", lowered)
        if rounds:
            vector.rounds = int(rounds.group(1))
    if intent == "cluster":
        k = re.search(r"(\d+)\s+(?:clusters?|subtypes?|groups?)", lowered)
        vector.bins = int(k.group(1)) if k else 3
    if intent == "compare":
        vector.group_field, vector.group_values = _detect_groups(lowered)
        # Group membership must not also appear as a filter.
        vector.filters.pop(vector.group_field, None)
        if vector.group_field == "sex":
            vector.filters.pop("sex", None)
    vector.validate()
    return vector


#: (regex over the lowered text) -> (group_field, [group_a, group_b])
_GROUP_PAIRS = (
    (r"\bmen\b.*\bwomen\b|\bmales?\b.*\bfemales?\b", ("sex", ["M", "F"])),
    (r"\bwomen\b.*\bmen\b|\bfemales?\b.*\bmales?\b", ("sex", ["F", "M"])),
    (r"\bnon-?smokers\b.*\bsmokers\b", ("lifestyle.smoker", [0, 1])),
    (r"\bsmokers\b", ("lifestyle.smoker", [1, 0])),
    (r"\bdiabetics?\b", ("outcomes.diabetes", [1, 0])),
)


def _detect_groups(text: str):
    for pattern, (field, values) in _GROUP_PAIRS:
        if re.search(pattern, text):
            return field, list(values)
    raise QueryError(
        "compare query needs recognizable groups "
        "(men/women, smokers/non-smokers, diabetics/non-diabetics)"
    )


_DEFAULT_RANGES = {
    "vitals.sbp": [90.0, 220.0],
    "vitals.dbp": [50.0, 130.0],
    "vitals.bmi": [15.0, 55.0],
    "vitals.heart_rate": [40.0, 140.0],
    "labs.glucose": [60.0, 350.0],
    "labs.ldl": [40.0, 250.0],
    "labs.hdl": [20.0, 110.0],
    "labs.hba1c": [4.0, 13.0],
    "labs.creatinine": [0.4, 4.0],
}


def _default_range(field: str) -> Optional[list]:
    return list(_DEFAULT_RANGES.get(field, [0.0, 100.0]))
