"""One demo site drawn on its own holds what the whole demo network holds."""

from __future__ import annotations

import pytest

from repro.common.serialize import canonical_bytes
from repro.datamgmt.cohort import CohortGenerator
from repro.rpc.demo import demo_cohorts, demo_site_records
from repro.rpc.site_server import build_site


@pytest.mark.parametrize("site_count", [1, 3, 5])
def test_each_site_alone_holds_its_records_of_the_whole_stream(site_count):
    cohorts = demo_cohorts(site_count, 30, 2026)
    for site, records in cohorts.items():
        alone = demo_site_records(site, site_count, 30, 2026)
        assert canonical_bytes(alone) == canonical_bytes(records)


def test_a_site_server_holds_the_platform_copy_of_its_records():
    records = demo_cohorts(3, 25, 11)["hospital-2"]
    site = build_site("hospital-2", 3, 25, 11)
    assert site.store.get_records("emr-hospital-2") == records


def test_an_unknown_site_fails_before_any_patient_is_drawn(monkeypatch):
    drawn = []
    generate_patient = CohortGenerator.generate_patient
    monkeypatch.setattr(
        CohortGenerator,
        "generate_patient",
        lambda self, profile: drawn.append(1) or generate_patient(self, profile),
    )
    with pytest.raises(SystemExit) as failure:
        build_site("hospital-3", 3, 1000, 2026)
    assert str(failure.value) == (
        "unknown site 'hospital-3'; have ['hospital-0', 'hospital-1', 'hospital-2']"
    )
    with pytest.raises(ValueError, match="unknown site 'clinic'"):
        demo_site_records("clinic", 3, 1000, 2026)
    assert drawn == []
