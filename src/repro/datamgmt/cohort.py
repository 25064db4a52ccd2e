"""Synthetic patient-cohort generator.

Stands in for the hospital EMR / TCGA / wearable data the paper assumes
(see DESIGN.md substitutions).  The generator produces canonical records
with a *learnable* disease signal: each outcome is drawn from a logistic
model over demographics, vitals, labs, lifestyle, and the genomic variant
panel, with published-epidemiology-flavoured effect directions (age, blood
pressure and smoking raise stroke risk; TCF7L2 raises diabetes risk; the
atrial-fibrillation variant interacts with treatment response for the
precision-medicine trial experiment E11).

Sites draw from shifted demographic distributions so per-site data is
non-IID — the realistic setting for federated learning (E8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.common.hashing import sha256_hex
from repro.datamgmt.schema import VARIANT_PANEL, empty_record


@dataclass
class SiteProfile:
    """Demographic shifts of one hospital's catchment population."""

    name: str
    mean_birth_year: float = 1960.0
    birth_year_sd: float = 15.0
    smoking_rate: float = 0.25
    mean_bmi: float = 26.0
    variant_freq_shift: float = 0.0  # added to risk-allele frequencies
    zip3: str = "100"


DEFAULT_VARIANT_FREQUENCIES = {
    "rs4977574": 0.45,
    "rs2200733": 0.12,
    "rs7903146": 0.30,
    "rs429358": 0.15,
    "rs1333049": 0.48,
    "rs10757278": 0.44,
}


@dataclass
class DiseaseModel:
    """Logistic outcome model: P(outcome) = sigmoid(intercept + sum(w*x))."""

    name: str
    intercept: float
    weights: Dict[str, float]

    def probability(self, features: Dict[str, float]) -> float:
        logit = self.intercept + sum(
            weight * features.get(key, 0.0) for key, weight in self.weights.items()
        )
        return 1.0 / (1.0 + math.exp(-logit))


def default_disease_models() -> Dict[str, DiseaseModel]:
    """Outcome models for the three diseases the project targets (section IV).

    Each outcome loads on shared *latent risk factors* (metabolic, vascular,
    inflammatory) that are nonlinear interactions of the raw measurements --
    see :meth:`CohortGenerator._derive_features`.  The shared nonlinear
    structure is what makes a pretrained core model transferable across
    diseases (the paper's section III.A/III.C claim, exercised by E9): a
    hidden layer that learned "metabolic risk" from stroke and cancer data
    has a head start on diabetes.
    """
    return {
        "stroke": DiseaseModel(
            name="stroke",
            intercept=-3.6,
            weights={
                "latent_vascular": 3.4,
                "latent_metabolic": 1.2,
                "age_decades": 0.12,
                "diabetic": 0.5,
            },
        ),
        "diabetes": DiseaseModel(
            name="diabetes",
            intercept=-2.7,
            weights={
                "latent_metabolic": 4.2,
                "latent_vascular": 0.6,
                "age_decades": 0.06,
            },
        ),
        "cancer": DiseaseModel(
            name="cancer",
            intercept=-3.0,
            weights={
                "latent_inflammatory": 1.5,
                "latent_metabolic": 0.4,
                "age_decades": 0.22,
            },
        ),
    }


def clip_scalar(value, low, high):
    """``value`` bounded to ``[low, high]``: ``np.clip`` on one scalar, without
    the array round trip.  Returns ``value``, ``low`` or ``high`` itself (a
    NaN passes through, as it does ``np.clip``); callers convert the result."""
    return low if value < low else high if value > high else value


def latent_factors(base: Dict[str, float]) -> Dict[str, float]:
    """Shared nonlinear latent risk factors.

    These are interactions and threshold effects over the raw measurements:
    a *linear* model over the raw features cannot represent them, so a
    hidden layer that learns them on one disease carries real information to
    the others (the transferable "core features" of section III.A).
    """
    metabolic = math.tanh(
        0.35 * (base["bmi_excess"] / 4.0) * max(0.0, base["glucose_per10"])
        + 0.55 * base.get("rs7903146", 0.0) * (1.0 if base["glucose_per10"] > 0.5 else 0.0)
        + 0.30 * base["exercise_deficit"] / 3.0 * (base["bmi_excess"] / 6.0)
    )
    vascular = math.tanh(
        0.30 * max(0.0, base["sbp_per10"]) * (base["age_decades"] / 6.0)
        + 0.50 * base["smoker"] * (base["age_decades"] / 6.0)
        + 0.35
        * (base.get("rs2200733", 0.0) + base.get("rs10757278", 0.0))
        / 2.0
        * (1.0 if base["sbp_per10"] > 1.0 else 0.0)
    )
    inflammatory = math.tanh(
        0.45 * base["smoker"] * base["alcohol_per5"] / 2.0
        + 0.25 * (base["age_decades"] / 6.0) ** 2
        + 0.30 * base.get("rs4977574", 0.0) * base["smoker"]
    )
    return {
        "latent_metabolic": metabolic,
        "latent_vascular": vascular,
        "latent_inflammatory": inflammatory,
    }


class CohortGenerator:
    """Deterministic generator of canonical patient records."""

    def __init__(
        self,
        seed: int = 7,
        models: Optional[Dict[str, DiseaseModel]] = None,
        variant_frequencies: Optional[Dict[str, float]] = None,
        current_year: int = 2018,
    ):
        self.rng = np.random.default_rng(seed)
        self.models = models or default_disease_models()
        self.variant_frequencies = dict(
            variant_frequencies or DEFAULT_VARIANT_FREQUENCIES
        )
        self.current_year = current_year
        self._counter = 0

    # -- feature derivation ------------------------------------------------
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

    # -- patient generation --------------------------------------------------
    def generate_patient(self, profile: SiteProfile) -> Dict[str, Any]:
        """One canonical record drawn from a site's population.

        The features are derived once: only ``diabetic`` differs between
        the outcomes, and the latent factors do not read it.  Every draw
        keeps its place in the stream, so a seed gives the same records as
        ever (``tests/datamgmt/test_cohort_oracle.py``).
        """
        self._counter += 1
        rng = self.rng
        record = empty_record()
        national_id = f"NID{self._counter:09d}"
        record["patient_id"] = f"{profile.name}-p{self._counter:06d}"
        record["national_id_hash"] = sha256_hex(
            ("medchain-salt:" + national_id).encode()
        )[:32]
        record["birth_year"] = int(
            clip_scalar(rng.normal(profile.mean_birth_year, profile.birth_year_sd), 1920, 2000)
        )
        record["sex"] = "F" if rng.random() < 0.52 else "M"
        record["zip3"] = profile.zip3
        record["site"] = profile.name
        record["vitals"] = {
            "sbp": float(clip_scalar(rng.normal(128, 18), 90, 220)),
            "dbp": float(clip_scalar(rng.normal(80, 11), 50, 130)),
            "bmi": float(clip_scalar(rng.normal(profile.mean_bmi, 4.5), 15, 55)),
            "heart_rate": float(clip_scalar(rng.normal(72, 10), 40, 140)),
        }
        record["labs"] = {
            "glucose": float(clip_scalar(rng.normal(104, 22), 60, 350)),
            "ldl": float(clip_scalar(rng.normal(118, 30), 40, 250)),
            "hdl": float(clip_scalar(rng.normal(52, 13), 20, 110)),
            "hba1c": float(clip_scalar(rng.normal(5.7, 0.9), 4.0, 13.0)),
            "creatinine": float(clip_scalar(rng.normal(0.95, 0.25), 0.4, 4.0)),
        }
        record["lifestyle"] = {
            "smoker": int(rng.random() < profile.smoking_rate),
            "alcohol_units_week": float(clip_scalar(rng.gamma(2.0, 2.0), 0, 40)),
            "exercise_hours_week": float(clip_scalar(rng.gamma(2.0, 1.2), 0, 20)),
        }
        frequencies = self.variant_frequencies
        shift = profile.variant_freq_shift
        record["genomics"] = {
            rsid: int(
                rng.binomial(
                    2, float(clip_scalar(frequencies.get(rsid, 0.2) + shift, 0.01, 0.95))
                )
            )
            for rsid in VARIANT_PANEL
        }
        # Outcomes are sampled in dependency order (diabetes feeds stroke).
        record["outcomes"] = {}
        features = self._derive_features(record)
        for outcome in ("diabetes", "stroke", "cancer"):
            model = self.models[outcome]
            features["diabetic"] = float(record["outcomes"].get("diabetes", 0))
            probability = model.probability(features)
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

    def generate_cohort(
        self, profile: SiteProfile, size: int
    ) -> List[Dict[str, Any]]:
        """``size`` patients from one site."""
        return [self.generate_patient(profile) for _ in range(size)]

    def generate_multi_site(
        self, profiles: Sequence[SiteProfile], size_per_site: int
    ) -> Dict[str, List[Dict[str, Any]]]:
        """Site-keyed cohorts with per-site demographic shifts (non-IID)."""
        return {
            profile.name: self.generate_cohort(profile, size_per_site)
            for profile in profiles
        }


def default_site_profiles(count: int) -> List[SiteProfile]:
    """Deterministic heterogeneous site profiles (paper: hospitals differ)."""
    profiles = []
    for index in range(count):
        profiles.append(
            SiteProfile(
                name=f"hospital-{index}",
                mean_birth_year=1950.0 + 6.0 * (index % 4),
                birth_year_sd=12.0 + 2.0 * (index % 3),
                smoking_rate=0.15 + 0.07 * (index % 4),
                mean_bmi=24.5 + 1.2 * (index % 5),
                variant_freq_shift=0.03 * ((index % 3) - 1),
                zip3=f"{100 + 37 * index % 900:03d}",
            )
        )
    return profiles


def shared_patients(
    generator: CohortGenerator,
    profiles: Sequence[SiteProfile],
    count: int,
    sites_per_patient: int = 2,
) -> List[List[Dict[str, Any]]]:
    """Patients who visit multiple hospitals (for record linkage, E6).

    Returns, per patient, one record per visited site: same person (same
    national-id hash, birth year, sex) but site-local patient ids and
    re-measured vitals/labs.
    """
    out: List[List[Dict[str, Any]]] = []
    rng = generator.rng
    for __ in range(count):
        base_profile = profiles[int(rng.integers(0, len(profiles)))]
        base = generator.generate_patient(base_profile)
        visited = rng.choice(
            len(profiles), size=min(sites_per_patient, len(profiles)), replace=False
        )
        copies = []
        for site_index in visited:
            profile = profiles[int(site_index)]
            copy = {key: _deep_copy(value) for key, value in base.items()}
            generator._counter += 1
            copy["patient_id"] = f"{profile.name}-p{generator._counter:06d}"
            copy["site"] = profile.name
            copy["zip3"] = profile.zip3 if rng.random() < 0.2 else base["zip3"]
            # Re-measured values drift between visits.
            copy["vitals"] = {
                key: float(value + rng.normal(0, 2.0))
                for key, value in base["vitals"].items()
            }
            copy["labs"] = {
                key: float(max(0.1, value + rng.normal(0, value * 0.05)))
                for key, value in base["labs"].items()
            }
            copies.append(copy)
        out.append(copies)
    return out


def _deep_copy(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _deep_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_deep_copy(item) for item in value]
    return value
