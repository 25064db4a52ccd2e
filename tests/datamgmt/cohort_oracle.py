"""The demo-record generators as they were first written.

``CohortGenerator.generate_patient`` (``repro.datamgmt.cohort``) clips each
scalar draw in plain Python and derives a patient's features once, setting
``diabetic`` before each outcome; ``WearableGenerator.series_for``
(``repro.datamgmt.wearables``) clips the same way.  The subclasses here keep
the original bodies -- ``np.clip`` on every scalar and a fresh
``_derive_features`` per outcome -- and are the definition the shipped
generators are held to: the same records, leaf for leaf.  It is test code:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.common.hashing import sha256_hex
from repro.datamgmt.cohort import CohortGenerator, SiteProfile, latent_factors
from repro.datamgmt.schema import VARIANT_PANEL, empty_record
from repro.datamgmt.wearables import WearableGenerator, WearableSeries


class OracleCohortGenerator(CohortGenerator):
    """``CohortGenerator`` with the original per-patient draw."""

    def _derive_features(self, record: Dict[str, Any]) -> Dict[str, float]:
        age = self.current_year - record["birth_year"]
        vitals = record["vitals"]
        labs = record["labs"]
        lifestyle = record["lifestyle"]
        genomics = record["genomics"]
        base = {
            "age_decades": age / 10.0,
            "sbp_per10": (vitals["sbp"] - 120.0) / 10.0,
            "bmi_excess": max(0.0, vitals["bmi"] - 25.0),
            "smoker": float(lifestyle["smoker"]),
            "alcohol_per5": lifestyle["alcohol_units_week"] / 5.0,
            "exercise_deficit": max(0.0, 3.0 - lifestyle["exercise_hours_week"]),
            "glucose_per10": (labs["glucose"] - 100.0) / 10.0,
            "diabetic": float(record["outcomes"].get("diabetes", 0)),
        }
        base.update({rsid: float(genomics.get(rsid, 0)) for rsid in VARIANT_PANEL})
        base.update(latent_factors(base))
        return base

    def generate_patient(self, profile: SiteProfile) -> Dict[str, Any]:
        """One canonical record drawn from a site's population."""
        self._counter += 1
        rng = self.rng
        record = empty_record()
        national_id = f"NID{self._counter:09d}"
        record["patient_id"] = f"{profile.name}-p{self._counter:06d}"
        record["national_id_hash"] = sha256_hex(
            ("medchain-salt:" + national_id).encode()
        )[:32]
        record["birth_year"] = int(
            np.clip(
                rng.normal(profile.mean_birth_year, profile.birth_year_sd), 1920, 2000
            )
        )
        record["sex"] = "F" if rng.random() < 0.52 else "M"
        record["zip3"] = profile.zip3
        record["site"] = profile.name
        record["vitals"] = {
            "sbp": float(np.clip(rng.normal(128, 18), 90, 220)),
            "dbp": float(np.clip(rng.normal(80, 11), 50, 130)),
            "bmi": float(np.clip(rng.normal(profile.mean_bmi, 4.5), 15, 55)),
            "heart_rate": float(np.clip(rng.normal(72, 10), 40, 140)),
        }
        record["labs"] = {
            "glucose": float(np.clip(rng.normal(104, 22), 60, 350)),
            "ldl": float(np.clip(rng.normal(118, 30), 40, 250)),
            "hdl": float(np.clip(rng.normal(52, 13), 20, 110)),
            "hba1c": float(np.clip(rng.normal(5.7, 0.9), 4.0, 13.0)),
            "creatinine": float(np.clip(rng.normal(0.95, 0.25), 0.4, 4.0)),
        }
        record["lifestyle"] = {
            "smoker": int(rng.random() < profile.smoking_rate),
            "alcohol_units_week": float(np.clip(rng.gamma(2.0, 2.0), 0, 40)),
            "exercise_hours_week": float(np.clip(rng.gamma(2.0, 1.2), 0, 20)),
        }
        record["genomics"] = {
            rsid: int(
                rng.binomial(
                    2,
                    float(
                        np.clip(
                            self.variant_frequencies.get(rsid, 0.2)
                            + profile.variant_freq_shift,
                            0.01,
                            0.95,
                        )
                    ),
                )
            )
            for rsid in VARIANT_PANEL
        }
        # Outcomes are sampled in dependency order (diabetes feeds stroke).
        record["outcomes"] = {}
        for outcome in ("diabetes", "stroke", "cancer"):
            model = self.models[outcome]
            probability = model.probability(self._derive_features(record))
            record["outcomes"][outcome] = int(rng.random() < probability)
        if record["outcomes"]["diabetes"]:
            record["diagnoses"].append("E11.9")
            record["medications"].append("metformin")
        if record["outcomes"]["stroke"]:
            record["diagnoses"].append("I63.9")
        if record["outcomes"]["cancer"]:
            record["diagnoses"].append("C80.1")
        if record["vitals"]["sbp"] > 140:
            record["diagnoses"].append("I10")
            record["medications"].append("lisinopril")
        if record["labs"]["ldl"] > 160:
            record["medications"].append("atorvastatin")
        return record


class OracleWearableGenerator(WearableGenerator):
    """``WearableGenerator`` with the original per-day draw."""

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
            resting_hr.append(float(np.clip(rng.normal(base_hr, 2.5), 38, 130)))
            sleep_hours.append(float(np.clip(rng.normal(base_sleep, 0.8), 3, 12)))
        series = WearableSeries(
            patient_id=record["patient_id"],
            days=days,
            steps=steps,
            resting_hr=resting_hr,
            sleep_hours=sleep_hours,
        )
        series.validate()
        return series
