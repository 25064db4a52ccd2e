"""Shared fixtures.

The full platform is expensive to boot, so integration-oriented fixtures
are module-scoped; tests that mutate platform state build their own.
"""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

from repro.common.ids import reset_ids
from repro.common.signatures import KeyPair
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles


# Hypothesis profiles: "default" keeps local/CI runs fast; "ci-stress" is
# the scheduled deep-fuzz profile (see the cron job in ci.yml).  Tests that
# pin explicit @settings keep their own example counts; profile selection
# applies to bare @given tests.
hypothesis_settings.register_profile("default", hypothesis_settings())
hypothesis_settings.register_profile(
    "ci-stress",
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def _fresh_id_namespaces():
    reset_ids()
    yield
    reset_ids()


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


@pytest.fixture(scope="session")
def lower_quartile_pair():
    """Timing for ratio gates on a shared host: ``(trials, first, second)`` ->
    the ``(first_s, second_s)`` pair whose second/first ratio is the lower quartile.

    The two sides run alternately in back-to-back pairs, so a burst from
    another tenant spoils the pairs it lands on and leaves the rest alone
    (``tests/obs/test_overhead.py`` has the measurements behind this).
    """

    def measure(trials, first, second):
        pairs = [(_timed(first), _timed(second)) for __ in range(trials)]
        pairs.sort(key=lambda pair: pair[1] / pair[0])
        return pairs[trials // 4]

    return measure


@pytest.fixture(scope="session")
def alice() -> KeyPair:
    return KeyPair.generate("alice")


@pytest.fixture(scope="session")
def bob() -> KeyPair:
    return KeyPair.generate("bob")


@pytest.fixture(scope="session")
def small_cohort():
    """60 canonical records from one site (session-wide, read-only)."""
    generator = CohortGenerator(seed=101)
    profile = default_site_profiles(1)[0]
    return generator.generate_cohort(profile, 60)


@pytest.fixture(scope="session")
def multi_site_cohorts():
    """3 sites x 120 records (session-wide, read-only)."""
    generator = CohortGenerator(seed=202)
    profiles = default_site_profiles(3)
    return generator.generate_multi_site(profiles, 120)
