"""The shipped record generators, held to their original form.

``cohort_oracle`` keeps ``generate_patient`` / ``_derive_features`` and
``series_for`` as first written: ``np.clip`` on every scalar, features
derived once per outcome.  For every generated seed, size and set of site
profiles, the shipped generators must give equal records with the same type
on every leaf (``type(v) is float``, never ``numpy.float64``) and the same
canonical bytes.

Profiles are shifted past the clip bounds they feed (birth year, BMI, the
variant frequencies past 0.01 and 0.95).  The fixed-mean draws (vitals,
labs, lifestyle, the wearable series) are widened by ``WideRng`` -- the
same seeded stream with each normal and gamma scale multiplied -- so their
bounds are hit from both sides too (a gamma draw's lower bound, 0, excepted:
no draw reaches it); ``test_every_clip_bound_is_hit_from_both_sides`` checks
that the strategies reach them.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.serialize import canonical_bytes
from repro.datamgmt import cohort
from repro.datamgmt.cohort import CohortGenerator, SiteProfile, clip_scalar, default_site_profiles
from repro.datamgmt.schema import VARIANT_PANEL
from repro.datamgmt.wearables import WearableGenerator

import cohort_oracle as oracle


class WideRng:
    """A seeded ``numpy`` generator whose normal and gamma draws are
    ``spread`` times wider; every other draw is passed through."""

    def __init__(self, seed: int, spread: float):
        self._rng = np.random.default_rng(seed)
        self.spread = spread

    def normal(self, loc, scale):
        return self._rng.normal(loc, scale * self.spread)

    def gamma(self, shape, scale):
        return self._rng.gamma(shape, scale * self.spread)

    def random(self):
        return self._rng.random()

    def binomial(self, n, p):
        return self._rng.binomial(n, p)


def assert_identical(shipped, original, path="record"):
    """Equal values, the same container shapes and the same leaf types."""
    assert type(shipped) is type(original), (path, type(shipped), type(original))
    if isinstance(original, dict):
        assert list(shipped) == list(original), path
        for key in original:
            assert_identical(shipped[key], original[key], f"{path}[{key!r}]")
    elif isinstance(original, list):
        assert len(shipped) == len(original), path
        for index, (a, b) in enumerate(zip(shipped, original)):
            assert_identical(a, b, f"{path}[{index}]")
    else:
        assert type(original) in (str, int, float), (path, type(original))
        assert repr(shipped) == repr(original), path


profiles = st.builds(
    SiteProfile,
    name=st.sampled_from(["hospital-0", "clinic", "site-x"]),
    mean_birth_year=st.floats(1850.0, 2070.0),
    birth_year_sd=st.floats(0.0, 60.0),
    smoking_rate=st.floats(0.0, 1.0),
    mean_bmi=st.floats(0.0, 80.0),
    variant_freq_shift=st.floats(-0.6, 0.9),
    zip3=st.sampled_from(["100", "137", "999"]),
)
frequencies = st.none() | st.dictionaries(
    st.sampled_from(VARIANT_PANEL), st.floats(-0.5, 1.5), max_size=len(VARIANT_PANEL)
)
EXTREME = [
    SiteProfile("low", mean_birth_year=1880.0, mean_bmi=5.0, variant_freq_shift=-0.6),
    SiteProfile("high", mean_birth_year=2050.0, mean_bmi=70.0, variant_freq_shift=0.9),
]


def _pair(seed, spread, variant_frequencies):
    shipped = CohortGenerator(seed=seed, variant_frequencies=variant_frequencies)
    original = oracle.OracleCohortGenerator(seed=seed, variant_frequencies=variant_frequencies)
    if spread != 1.0:
        shipped.rng, original.rng = WideRng(seed, spread), WideRng(seed, spread)
    return shipped, original


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 8),
    site_profiles=st.lists(profiles, min_size=1, max_size=3, unique_by=lambda p: p.name),
    spread=st.sampled_from([1.0, 4.0, 12.0]),
    variant_frequencies=frequencies,
)
@example(seed=2026, size=50, site_profiles=default_site_profiles(3), spread=1.0,
         variant_frequencies=None)
@example(seed=7, size=40, site_profiles=EXTREME, spread=12.0, variant_frequencies=None)
def test_records_equal_the_original_generator(seed, size, site_profiles, spread,
                                              variant_frequencies):
    shipped, original = _pair(seed, spread, variant_frequencies)
    got = shipped.generate_multi_site(site_profiles, size)
    want = original.generate_multi_site(site_profiles, size)
    assert got == want
    assert_identical(got, want)
    assert canonical_bytes(got) == canonical_bytes(want)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    days=st.integers(0, 40),
    spread=st.sampled_from([1.0, 4.0, 12.0]),
    heart_rate=st.floats(20.0, 160.0),
    smoker=st.integers(0, 1),
    exercise=st.floats(0.0, 20.0),
)
def test_wearable_series_equal_the_original_generator(seed, days, spread, heart_rate,
                                                      smoker, exercise):
    record = {
        "patient_id": "p1",
        "vitals": {"heart_rate": heart_rate},
        "lifestyle": {"smoker": smoker, "exercise_hours_week": exercise},
    }
    shipped, original = WearableGenerator(), oracle.OracleWearableGenerator()
    shipped.rng, original.rng = WideRng(seed, spread), WideRng(seed, spread)
    got = shipped.series_for(record, days).to_record()
    want = original.series_for(record, days).to_record()
    assert_identical(got, want)
    assert canonical_bytes(got) == canonical_bytes(want)


@given(
    value=st.floats(allow_nan=True, allow_infinity=True) | st.integers(-10**6, 10**6),
    bounds=st.sampled_from([(1920, 2000), (90, 220), (4.0, 13.0), (0, 40), (0.01, 0.95),
                            (38, 130), (3, 12)]),
)
def test_clip_scalar_is_np_clip_on_one_scalar(value, bounds):
    low, high = bounds
    got, want = clip_scalar(value, low, high), np.clip(value, low, high)
    if math.isnan(want):
        assert math.isnan(got)
        return
    assert float(got) == float(want) and repr(float(got)) == repr(float(want))
    if not math.isinf(want):
        assert int(got) == int(want)


def test_every_clip_bound_is_hit_from_both_sides(monkeypatch):
    """The strategies above reach each bound from below and from above: the
    extreme profiles for the profile-driven draws, a 12x spread for the rest."""
    sides = {}

    def recording(value, low, high):
        seen = sides.setdefault((low, high), set())
        if value < low:
            seen.add("low")
        elif value > high:
            seen.add("high")
        return clip_scalar(value, low, high)

    monkeypatch.setattr(cohort, "clip_scalar", recording)
    shipped, _ = _pair(7, 12.0, None)
    shipped.generate_multi_site(EXTREME, 40)
    wearables = WearableGenerator()
    wearables.rng = WideRng(7, 12.0)
    monkeypatch.setattr("repro.datamgmt.wearables.clip_scalar", recording)
    wearables.series_for({"patient_id": "p1"}, 40)
    assert len(sides) == 15  # 13 bound pairs in a patient, 2 in a wearable day
    # A gamma draw is never below 0: its lower bound is unreachable by any input.
    gamma_bounds = {(0, 40): {"high"}, (0, 20): {"high"}}
    short = {bounds: seen for bounds, seen in sides.items() if seen != {"low", "high"}}
    assert short == gamma_bounds
