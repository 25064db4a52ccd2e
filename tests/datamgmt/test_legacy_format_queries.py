"""E10's query suite over its three legacy-format stores, pinned.

The stores serve a canonical view that is parsed once per dataset; these are
the answers the suite gave when every access re-parsed, so any drift in the
view — a dropped record, a float accumulated in another order — moves a hash
here.  The wire sizes are each site's ``site.query`` params plus its partial.
"""

from __future__ import annotations

from repro.common.hashing import hash_value_hex
from repro.common.signatures import KeyPair
from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
from repro.core.queryservice import GlobalQueryService
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles

#: query text -> (sha256 prefix of the composed result, bytes on the wire)
PINNED = {
    "how many patients have diabetes": ("1447346367c2f79a", 1053),
    "prevalence of stroke among smokers": ("8eac409468e2a08c", 1164),
    "average systolic blood pressure for women over 50": ("1af722adfcb19ec0", 1446),
    "histogram of bmi between 15 and 55 with 8 bins": ("b5b2ce88877c11c8", 1233),
    "how many men aged 40 to 60 have cancer": ("19f8817224a7a074", 1152),
}


def test_e10_answers_over_hl7v2_fhirjson_legacycsv_are_unchanged():
    cohorts = CohortGenerator(seed=44).generate_multi_site(default_site_profiles(3), 200)
    platform = MedicalBlockchainNetwork(
        PlatformConfig(site_count=3, consensus="poa", include_fda=False, seed=10)
    )
    for (site, records), fmt in zip(
        sorted(cohorts.items()), ["hl7v2", "fhirjson", "legacycsv"]
    ):
        platform.register_dataset(site, f"emr-{site}", records, fmt=fmt)
    researcher = KeyPair.generate("e10-researcher")
    for site in platform.site_names:
        platform.grant_access(site, f"emr-{site}", researcher.address, "research")
    service = GlobalQueryService(platform, researcher)
    for text, pinned in PINNED.items():
        answer = service.ask(text)
        assert (hash_value_hex(answer.result)[:16], answer.bytes_on_wire) == pinned, text
        assert len(answer.site_partials) == 3
