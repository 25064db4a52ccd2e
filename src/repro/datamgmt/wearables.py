"""Wearable-device data streams (paper section II).

The paper's heterogeneous data inventory includes "personal activity record
with analytic tools for environments and lifestyles" and "wearable device
health data ... hosted virtually everywhere".  This module generates
per-patient daily wearable series (steps, resting heart rate, sleep hours)
consistent with the patient's canonical lifestyle fields, plus mergeable
summaries so wearable analytics run through the same decompose/compose path
as EMR analytics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.common.errors import DataFormatError
from repro.datamgmt.cohort import clip_scalar
from repro.datamgmt.virtual import NumericSummary


@dataclass
class WearableSeries:
    """One patient's daily wearable stream."""

    patient_id: str
    days: int
    steps: List[int]
    resting_hr: List[float]
    sleep_hours: List[float]

    def validate(self) -> None:
        lengths = {len(self.steps), len(self.resting_hr), len(self.sleep_hours)}
        if lengths != {self.days}:
            raise DataFormatError(
                f"series lengths {lengths} do not match days={self.days}"
            )

    def to_record(self) -> Dict[str, Any]:
        """Flat dict form (anchorable / exchangeable like any record)."""
        return {
            "patient_id": self.patient_id,
            "days": self.days,
            "steps": list(self.steps),
            "resting_hr": list(self.resting_hr),
            "sleep_hours": list(self.sleep_hours),
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "WearableSeries":
        series = cls(
            patient_id=record["patient_id"],
            days=int(record["days"]),
            steps=[int(v) for v in record["steps"]],
            resting_hr=[float(v) for v in record["resting_hr"]],
            sleep_hours=[float(v) for v in record["sleep_hours"]],
        )
        series.validate()
        return series

    def summary(self) -> Dict[str, Any]:
        """Per-patient mergeable summary."""
        return {
            "patient_id": self.patient_id,
            "steps": NumericSummary.from_values(self.steps).to_dict(),
            "resting_hr": NumericSummary.from_values(self.resting_hr).to_dict(),
            "sleep_hours": NumericSummary.from_values(self.sleep_hours).to_dict(),
            "active_days": sum(1 for s in self.steps if s >= 8000),
        }


class WearableGenerator:
    """Generates wearable streams consistent with canonical EMR records.

    Exercise hours raise step counts; smoking and high resting-risk raise
    resting heart rate; the series carry weekly periodicity and noise so
    they look like real device exports.
    """

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def series_for(self, record: Dict[str, Any], days: int = 28) -> WearableSeries:
        rng = self.rng
        lifestyle = record.get("lifestyle", {})
        vitals = record.get("vitals", {})
        exercise = float(lifestyle.get("exercise_hours_week", 2.0))
        smoker = int(lifestyle.get("smoker", 0))
        base_steps = 4000 + 1400 * exercise
        base_hr = float(vitals.get("heart_rate", 72.0)) - 8 + 4 * smoker
        base_sleep = 7.2 - 0.3 * smoker
        steps, resting_hr, sleep_hours = [], [], []
        for day in range(days):
            weekend = day % 7 in (5, 6)
            step_mean = base_steps * (1.15 if weekend else 1.0)
            steps.append(int(max(0, rng.normal(step_mean, step_mean * 0.25))))
            resting_hr.append(float(clip_scalar(rng.normal(base_hr, 2.5), 38, 130)))
            sleep_hours.append(float(clip_scalar(rng.normal(base_sleep, 0.8), 3, 12)))
        series = WearableSeries(
            patient_id=record["patient_id"],
            days=days,
            steps=steps,
            resting_hr=resting_hr,
            sleep_hours=sleep_hours,
        )
        series.validate()
        return series

    def cohort_streams(
        self, records: Sequence[Dict[str, Any]], days: int = 28
    ) -> List[Dict[str, Any]]:
        """Wearable records (dict form) for a whole cohort."""
        return [self.series_for(record, days).to_record() for record in records]


def tool_wearable_summary(
    records: Sequence[Dict[str, Any]], params: Dict[str, Any]
) -> Dict[str, Any]:
    """Site tool: mergeable cohort-level wearable summary.

    ``records`` are wearable records (``WearableSeries.to_record`` form).
    Returns merged moments for each stream plus the active-day fraction,
    so per-site partials compose exactly like ``numeric_summary``.
    """
    merged = {
        "steps": NumericSummary(),
        "resting_hr": NumericSummary(),
        "sleep_hours": NumericSummary(),
    }
    active_days = 0
    total_days = 0
    for raw in records:
        series = WearableSeries.from_record(raw)
        for value in series.steps:
            merged["steps"].add(value)
        for value in series.resting_hr:
            merged["resting_hr"].add(value)
        for value in series.sleep_hours:
            merged["sleep_hours"].add(value)
        active_days += sum(1 for s in series.steps if s >= 8000)
        total_days += series.days
    return {
        "patients": len(records),
        "steps": merged["steps"].to_dict(),
        "resting_hr": merged["resting_hr"].to_dict(),
        "sleep_hours": merged["sleep_hours"].to_dict(),
        "active_day_fraction": active_days / total_days if total_days else 0.0,
    }


def merge_wearable_summaries(
    partials: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Compose per-site wearable summaries into the global one."""
    merged = {
        "steps": NumericSummary(),
        "resting_hr": NumericSummary(),
        "sleep_hours": NumericSummary(),
    }
    patients = 0
    active_weighted = 0.0
    total_days = 0.0
    for partial in partials:
        patients += int(partial["patients"])
        for key in merged:
            merged[key] = merged[key].merge(
                NumericSummary.from_dict_parts(partial[key])
            )
        days = partial["steps"]["count"]
        active_weighted += partial["active_day_fraction"] * days
        total_days += days
    return {
        "patients": patients,
        "steps": merged["steps"].to_dict(),
        "resting_hr": merged["resting_hr"].to_dict(),
        "sleep_hours": merged["sleep_hours"].to_dict(),
        "active_day_fraction": active_weighted / total_days if total_days else 0.0,
    }
