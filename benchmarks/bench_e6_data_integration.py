"""E6 — Heterogeneous data integration and record linkage (Figure 3, §III.A).

Claim: blockchain-managed distributed data management can compose "a large
size core initial training data set" out of per-hospital silos in different
legacy formats, including re-linking the records of patients who visited
several hospitals.

Workload: 4 sites storing cohorts in hl7v2 / fhirjson / legacycsv /
canonical formats, plus 80 patients who visited two hospitals each.
Reported: (a) the virtual-cohort size vs the largest single silo,
(b) schema-mapping fidelity on every access path, and (c) linkage
precision/recall as the fraction of records carrying a national id falls.
"""

from __future__ import annotations

import sys

import numpy as np

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, format_table, json_main

from repro.datamgmt.cohort import CohortGenerator, default_site_profiles, shared_patients
from repro.datamgmt.linkage import RecordLinker, evaluate_linkage
from repro.datamgmt.store import HospitalDataStore
from repro.datamgmt.virtual import DatasetRef, VirtualCohort

SITES = 4
RECORDS_PER_SITE = 150
SHARED_PATIENTS = 80
MASK_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
FORMATS = ("hl7v2", "fhirjson", "legacycsv", "canonical")


def build_silos():
    generator = CohortGenerator(seed=66)
    profiles = default_site_profiles(SITES)
    cohorts = generator.generate_multi_site(profiles, RECORDS_PER_SITE)
    stores = {}
    virtual = VirtualCohort(lambda site: stores[site])
    for index, (site, records) in enumerate(sorted(cohorts.items())):
        store = HospitalDataStore(site)
        store.add_canonical(f"emr-{site}", records, fmt=FORMATS[index])
        stores[site] = store
        virtual.add_ref(DatasetRef(site, f"emr-{site}", len(records)))
    return generator, profiles, cohorts, stores, virtual


def linkage_rows(generator, profiles):
    groups = shared_patients(generator, profiles, SHARED_PATIENTS, 2)
    rows = []
    for fraction in MASK_FRACTIONS:
        rng = np.random.default_rng(int(fraction * 100))
        records = []
        for person, group in enumerate(groups):
            for record in group:
                copy = dict(record)
                copy["_person"] = person
                if rng.random() < fraction:
                    copy["national_id_hash"] = ""
                records.append(copy)
        result = RecordLinker().link(records)
        metrics = evaluate_linkage(result)
        rows.append(
            {
                "masked": fraction,
                "precision": metrics["precision"],
                "recall": metrics["recall"],
                "f1": metrics["f1"],
                "deterministic_links": result.deterministic_links,
                "probabilistic_links": result.probabilistic_links,
            }
        )
    return rows


def run_experiment():
    generator, profiles, cohorts, stores, virtual = build_silos()
    # Virtual cohort vs silos.
    silo_sizes = {site: len(records) for site, records in cohorts.items()}
    composition = {
        "virtual_total": virtual.total_records,
        "largest_silo": max(silo_sizes.values()),
        "scale_factor": virtual.total_records / max(silo_sizes.values()),
        "stroke_prevalence": virtual.prevalence("stroke"),
        "mean_sbp": virtual.numeric_summary("vitals.sbp").mean,
    }
    # Mapping fidelity: every silo's canonical view validates and matches.
    fidelity = 0
    checked = 0
    from repro.datamgmt.schema import is_canonical

    for site, records in cohorts.items():
        accessed = stores[site].get_records(f"emr-{site}")
        for original, mapped in zip(records, accessed):
            checked += 1
            if is_canonical(mapped) and mapped["birth_year"] == original["birth_year"]:
                fidelity += 1
    composition["mapping_fidelity"] = fidelity / checked
    return composition, linkage_rows(generator, profiles)


def report(result):
    composition, rows = result
    table_a = format_table(
        "E6a: virtual cohort composed across 4 legacy-format silos",
        ["virtual records", "largest silo", "scale factor",
         "stroke prevalence", "mean SBP", "mapping fidelity"],
        [[composition["virtual_total"], composition["largest_silo"],
          composition["scale_factor"], composition["stroke_prevalence"],
          composition["mean_sbp"], composition["mapping_fidelity"]]],
    )
    table_b = format_table(
        "E6b: cross-site record linkage vs national-id masking",
        ["masked frac", "precision", "recall", "F1",
         "deterministic links", "probabilistic links"],
        [
            [r["masked"], r["precision"], r["recall"], r["f1"],
             r["deterministic_links"], r["probabilistic_links"]]
            for r in rows
        ],
    )
    emit("e6_data_integration", table_a + "\n\n" + table_b)
    return result


def test_e6_data_integration(benchmark):
    composition, rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report((composition, rows))
    assert composition["scale_factor"] >= SITES - 0.01
    assert composition["mapping_fidelity"] == 1.0
    assert rows[0]["recall"] == 1.0  # full ids -> every true pair found
    assert all(row["f1"] > 0.75 for row in rows)  # genomics keep it strong


def main(argv=None):
    def metrics():
        composition, rows = report(run_experiment())
        return {"composition": composition, "linkage_rows": rows}

    return json_main(
        argv, __doc__, "e6_data_integration",
        {"sites": SITES, "records_per_site": RECORDS_PER_SITE,
         "shared_patients": SHARED_PATIENTS,
         "mask_fractions": list(MASK_FRACTIONS)},
        metrics,
    )


if __name__ == "__main__":
    sys.exit(main())
