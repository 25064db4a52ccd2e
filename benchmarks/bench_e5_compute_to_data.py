"""E5 — Move compute to data vs move data to compute (paper section IV).

Claim: "the huge size of the medical data set renders the operations of
copying or moving data around for the analytics computing very expensive
and impossible most of the time ... move the computing engine to the data".

Workload: the same prevalence query answered two ways over a 3-site
platform while the per-site data size grows: (a) compute-to-data — per-site
contract tasks, only aggregates return; (b) data-to-compute — every record
pulled through the (grant-enforcing, encrypting) HIE exchange to the
requester, then computed centrally.  Reported per data size: bytes on the
wire and simulated completion time for both, plus the ratio.
"""

from __future__ import annotations

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, format_table, human_bytes, json_main

from repro.common.signatures import KeyPair
from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
from repro.core.queryservice import GlobalQueryService
from repro.core.strategies import compute_to_data, data_to_compute
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.query.vector import QueryVector
from repro.sim.network import LinkSpec

RECORDS_PER_SITE = (50, 200, 800, 3200)
SITES = 3


def run_size(records_per_site: int, seed: int = 33):
    generator = CohortGenerator(seed=5)
    profiles = default_site_profiles(SITES)
    platform = MedicalBlockchainNetwork(
        PlatformConfig(
            site_count=SITES,
            consensus="poa",
            include_fda=False,
            seed=seed,
            link=LinkSpec(latency_s=0.03, bandwidth_bps=50e6),  # WAN-ish
        )
    )
    for index, site in enumerate(platform.site_names):
        cohort = generator.generate_cohort(profiles[index], records_per_site)
        platform.register_dataset(site, f"emr-{site}", cohort)
    researcher = KeyPair.generate("e5-researcher")
    for site in platform.site_names:
        platform.grant_access(site, f"emr-{site}", researcher.address, "research")
    service = GlobalQueryService(platform, researcher)
    vector = QueryVector(intent="prevalence", outcome="stroke", purpose="research")
    to_data = compute_to_data(service, vector)
    to_compute = data_to_compute(platform, researcher, vector)
    assert to_data.result["positives"] == to_compute.result["positives"]
    return {
        "records_per_site": records_per_site,
        "ctd_bytes": to_data.bytes_moved,
        "dtc_bytes": to_compute.bytes_moved,
        "bytes_ratio": to_compute.bytes_moved / max(to_data.bytes_moved, 1),
        "ctd_seconds": to_data.sim_seconds,
        "dtc_seconds": to_compute.sim_seconds,
    }


def run_experiment():
    return [run_size(size) for size in RECORDS_PER_SITE]


def report(rows):
    table = format_table(
        "E5: compute-to-data (CTD) vs data-to-compute (DTC), 3 sites",
        ["records/site", "CTD bytes", "DTC bytes", "DTC/CTD bytes",
         "CTD sim s", "DTC sim s"],
        [
            [r["records_per_site"], human_bytes(r["ctd_bytes"]),
             human_bytes(r["dtc_bytes"]), r["bytes_ratio"],
             r["ctd_seconds"], r["dtc_seconds"]]
            for r in rows
        ],
    )
    emit("e5_compute_to_data", table)
    return rows


def test_e5_compute_to_data(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(rows)
    for row in rows:
        assert row["bytes_ratio"] > 10  # CTD always moves far fewer bytes
    # The gap widens with data size: CTD bytes are ~constant, DTC grows.
    assert rows[-1]["bytes_ratio"] > 4 * rows[0]["bytes_ratio"]
    first, last = rows[0], rows[-1]
    assert last["ctd_bytes"] < 3 * first["ctd_bytes"]
    assert last["dtc_bytes"] > 10 * first["dtc_bytes"]
    # Time crossover: with small data DTC's raw copy is quicker than chain
    # coordination; as data grows DTC time rises toward (and past) CTD's
    # flat coordination floor.
    assert last["dtc_seconds"] > 10 * first["dtc_seconds"]
    assert abs(last["ctd_seconds"] - first["ctd_seconds"]) < 1.0


def main(argv=None):
    return json_main(
        argv, __doc__, "e5_compute_to_data",
        {"sites": SITES, "records_per_site": list(RECORDS_PER_SITE)},
        lambda: {"rows": report(run_experiment())},
    )


if __name__ == "__main__":
    sys.exit(main())
