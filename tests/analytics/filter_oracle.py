"""The record filter as the site tools shipped it, kept as the oracle.

``repro.analytics.tools`` compiles ``params["filters"]`` to a list of checks
once per call; this is the per-record, per-key dispatch it replaced.  It
defines what a filter dict means — which records match, and which error an
unknown dotted path raises on which record — and ``test_filters.py`` holds
the compiled form to it.  It is test code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.datamgmt.virtual import get_field


def matches(record: Dict[str, Any], filters: Dict[str, Any]) -> bool:
    """Simple equality/range filter: ``{"sex": "F", "age_min": 50}``."""
    for key, wanted in filters.items():
        if key == "age_min":
            if 2018 - record["birth_year"] < wanted:
                return False
        elif key == "age_max":
            if 2018 - record["birth_year"] > wanted:
                return False
        elif key == "diagnosis":
            if wanted not in record.get("diagnoses", []):
                return False
        elif key.startswith("has_outcome_"):
            outcome = key[len("has_outcome_"):]
            if bool(record.get("outcomes", {}).get(outcome, 0)) != bool(wanted):
                return False
        else:
            if get_field(record, key) != wanted:
                return False
    return True
