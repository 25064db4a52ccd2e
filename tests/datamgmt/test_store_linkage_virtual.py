"""Hospital store, record linkage, and virtual cohort tests."""

import numpy as np
import pytest

from repro.common.errors import DataFormatError, OracleError
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles, shared_patients
from repro.datamgmt.linkage import (
    LinkageWeights,
    RecordLinker,
    evaluate_linkage,
    pair_score,
)
from repro.datamgmt.store import HospitalDataStore
from repro.datamgmt.virtual import DatasetRef, NumericSummary, VirtualCohort, get_field


def _site_query(store, text):
    import asyncio

    from repro.offchain.site import assemble_site
    from repro.query.parser import parse_query
    from repro.rpc.methods import build_site_registry, vector_to_wire

    handler = build_site_registry(assemble_site("h0", store)).get("site.query").handler
    answer = asyncio.run(handler(vector=vector_to_wire(parse_query(text)), dataset_ids=["ds"]))
    return answer["result"]


def _stroke_prevalence(store):
    return _site_query(store, "prevalence of stroke")["positives"]


def _highest_sbp(store):
    return _site_query(store, "describe systolic blood pressure")["stats"]["max"]


class TestHospitalDataStore:
    def test_add_and_read_canonical(self, small_cohort):
        store = HospitalDataStore("h0")
        store.add_canonical("ds", small_cohort)
        assert store.has_dataset("ds")
        assert store.get_records("ds") == list(small_cohort)

    def test_legacy_format_round_trip_on_access(self, small_cohort):
        store = HospitalDataStore("h0")
        store.add_canonical("ds", small_cohort, fmt="hl7v2")
        records = store.get_records("ds")
        assert records[0]["birth_year"] == small_cohort[0]["birth_year"]
        assert store.dataset_format("ds") == "hl7v2"

    def test_duplicate_dataset_rejected(self, small_cohort):
        store = HospitalDataStore("h0")
        store.add_canonical("ds", small_cohort)
        with pytest.raises(OracleError):
            store.add_canonical("ds", small_cohort)

    def test_unknown_format_rejected(self, small_cohort):
        store = HospitalDataStore("h0")
        with pytest.raises(DataFormatError):
            store.add_canonical("ds", small_cohort, fmt="nope")

    def test_missing_dataset_raises(self):
        with pytest.raises(OracleError):
            HospitalDataStore("h0").get_records("ghost")

    def test_anchor_detects_tampering(self, small_cohort):
        store = HospitalDataStore("h0")
        store.add_canonical("ds", small_cohort, fmt="legacycsv")
        anchor = store.anchor("ds")
        store.tamper("ds", 3, "bp_sys", 999.0)
        from repro.offchain.anchoring import verify_dataset

        assert not verify_dataset(store.get_records("ds"), anchor.root_hex)

    def test_record_count(self, small_cohort):
        store = HospitalDataStore("h0")
        store.add_canonical("ds", small_cohort)
        assert store.record_count("ds") == len(small_cohort)

    def test_tamper_reaches_every_reader_of_a_cached_view(self, small_cohort):
        """The canonical view is parsed once, and its columns projected once;
        ``tamper`` must drop both."""
        from repro.offchain.anchoring import verify_dataset

        store = HospitalDataStore("h0")
        store.add_canonical("ds", small_cohort, fmt="hl7v2")
        anchor = store.anchor("ds")  # parses, and caches, the view
        assert verify_dataset(store.get_records("ds"), anchor.root_hex)
        before = _stroke_prevalence(store)  # projects, and caches, the columns
        flipped = 1 - small_cohort[7]["outcomes"]["stroke"]
        store.tamper("ds", 7, "ZOC", {**small_cohort[7]["outcomes"], "stroke": flipped})
        assert store.get_records("ds")[7]["outcomes"]["stroke"] == flipped
        assert store.anchor("ds").root_hex != anchor.root_hex
        assert not verify_dataset(store.get_records("ds"), anchor.root_hex)
        assert _stroke_prevalence(store) == before + (1 if flipped else -1)

    def test_tamper_that_breaks_the_schema_is_rejected_on_the_next_read(self, small_cohort):
        import copy

        store = HospitalDataStore("h0")
        # fmt="canonical": the view aliases the stored dicts, so it is dropping
        # the view that makes the next read validate again.
        store.add_canonical("ds", copy.deepcopy(small_cohort[:5]))
        store.get_records("ds")
        store.tamper("ds", 0, "sex", "X")
        with pytest.raises(DataFormatError):
            store.get_records("ds")

    def test_get_records_hands_out_a_list_of_its_own(self, small_cohort):
        store = HospitalDataStore("h0")
        store.add_canonical("ds", small_cohort, fmt="fhirjson")
        first = store.get_records("ds")
        first.reverse()
        del first[10:]
        again = store.get_records("ds")
        assert len(again) == len(small_cohort)
        assert [r["patient_id"] for r in again] == [r["patient_id"] for r in small_cohort]

    def test_legacy_records_are_parsed_once_per_content(self, small_cohort, monkeypatch):
        from repro.datamgmt import store as store_module

        parsed = []
        real = store_module.parse_record
        monkeypatch.setattr(
            store_module, "parse_record", lambda raw, fmt: parsed.append(1) or real(raw, fmt)
        )
        store = HospitalDataStore("h0")
        store.add_canonical("ds", small_cohort, fmt="legacycsv")
        store.get_records("ds"), store.anchor("ds"), store.get_records("ds")
        assert len(parsed) == len(small_cohort)
        store.tamper("ds", 3, "bp_sys", 999.0)
        store.get_records("ds")
        assert len(parsed) == 2 * len(small_cohort)

    def test_readers_racing_a_writer_never_keep_a_stale_view(self, small_cohort):
        """RPC handlers read the store from worker threads: a view parsed, or
        a column projected, from the old content must not outlive the
        ``tamper`` that replaced it."""
        import sys
        import threading

        store = HospitalDataStore("h0")
        store.add_canonical("ds", small_cohort, fmt="legacycsv")
        done = threading.Event()
        seen = [[] for __ in range(6)]

        def read(mine, look):
            while not done.is_set():
                mine.append(look())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        looks = [lambda: store.get_records("ds")[3]["vitals"]["sbp"], lambda: _highest_sbp(store)]
        readers = [
            threading.Thread(target=read, args=(mine, looks[index % 2]))
            for index, mine in enumerate(seen)
        ]
        try:
            for reader in readers:
                reader.start()
            for value in range(1000, 1200):  # above any generated pressure
                store.tamper("ds", 3, "bp_sys", float(value))
                assert store.get_records("ds")[3]["vitals"]["sbp"] == float(value)
                assert _highest_sbp(store) == float(value)
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        for mine in seen:  # the writer only counts up: no reader went back in time
            assert mine == sorted(mine)

    def test_catalog_version_follows_the_listing_not_the_content(self, small_cohort):
        store = HospitalDataStore("h0")
        empty = store.catalog_version()
        store.add_canonical("ds", small_cohort, fmt="legacycsv")
        one = store.catalog_version()
        store.tamper("ds", 3, "bp_sys", 999.0)
        assert store.catalog_version() == one
        store.add_raw("more", store.get_raw("ds")[:5], "legacycsv")
        assert len({empty, one, store.catalog_version()}) == 3
        twin = HospitalDataStore("elsewhere")
        twin.add_canonical("ds", small_cohort)
        assert twin.catalog_version() == one


class TestLinkage:
    def _records(self, mask_fraction, count=40, seed=0):
        generator = CohortGenerator(seed=13)
        profiles = default_site_profiles(3)
        groups = shared_patients(generator, profiles, count, sites_per_patient=2)
        rng = np.random.default_rng(seed)
        records = []
        for person, group in enumerate(groups):
            for record in group:
                record["_person"] = person
                if rng.random() < mask_fraction:
                    record["national_id_hash"] = ""
                records.append(record)
        return records

    def test_deterministic_linkage_perfect_with_ids(self):
        records = self._records(mask_fraction=0.0)
        result = RecordLinker().link(records)
        metrics = evaluate_linkage(result)
        assert metrics["precision"] == 1.0
        assert metrics["recall"] == 1.0

    def test_probabilistic_linkage_with_masked_ids(self):
        records = self._records(mask_fraction=1.0)
        result = RecordLinker().link(records)
        metrics = evaluate_linkage(result)
        assert metrics["f1"] > 0.8  # genomics panel makes matching strong
        assert result.probabilistic_links > 0

    def test_partial_masking_mixes_mechanisms(self):
        records = self._records(mask_fraction=0.5)
        result = RecordLinker().link(records)
        assert result.deterministic_links > 0
        metrics = evaluate_linkage(result)
        assert metrics["f1"] > 0.8

    def test_pair_score_higher_for_same_person(self):
        records = self._records(mask_fraction=0.0, count=10)
        same = [r for r in records if r["_person"] == 0]
        different = [records[0], next(r for r in records if r["_person"] == 5)]
        assert pair_score(same[0], same[1]) > pair_score(different[0], different[1])

    def test_threshold_controls_aggressiveness(self):
        records = self._records(mask_fraction=1.0)
        strict = RecordLinker(LinkageWeights(threshold=50.0)).link(records)
        loose = RecordLinker(LinkageWeights(threshold=3.0)).link(records)
        assert strict.probabilistic_links <= loose.probabilistic_links

    def test_unrelated_records_not_linked(self, multi_site_cohorts):
        records = [
            {**record, "_person": index}
            for index, record in enumerate(
                [r for cohort in multi_site_cohorts.values() for r in cohort][:100]
            )
        ]
        for record in records:
            record["national_id_hash"] = ""
        result = RecordLinker().link(records)
        # Probabilistic matching has a small inherent false-positive rate
        # (two strangers can agree on every quasi-identifier); what matters
        # is that it stays rare relative to the candidate-pair count.
        assert result.deterministic_links == 0
        assert result.probabilistic_links <= 0.05 * len(records)


class TestNumericSummary:
    def test_merge_equals_pooled(self):
        values_a = [1.0, 2.0, 3.0]
        values_b = [10.0, 20.0]
        merged = NumericSummary.from_values(values_a).merge(
            NumericSummary.from_values(values_b)
        )
        pooled = NumericSummary.from_values(values_a + values_b)
        assert merged.count == pooled.count
        assert merged.mean == pytest.approx(pooled.mean)
        assert merged.variance == pytest.approx(pooled.variance)
        assert merged.minimum == pooled.minimum
        assert merged.maximum == pooled.maximum

    def test_dict_round_trip(self):
        summary = NumericSummary.from_values([2.0, 4.0, 6.0])
        restored = NumericSummary.from_dict_parts(summary.to_dict())
        assert restored.mean == pytest.approx(summary.mean)
        assert restored.count == summary.count

    def test_empty_summary(self):
        summary = NumericSummary()
        assert summary.mean == 0.0
        assert summary.variance == 0.0


class TestVirtualCohort:
    def _cohort(self, multi_site_cohorts):
        stores = {}
        cohort = VirtualCohort(lambda site: stores[site])
        for site, records in multi_site_cohorts.items():
            store = HospitalDataStore(site)
            store.add_canonical(f"ds-{site}", records)
            stores[site] = store
            cohort.add_ref(DatasetRef(site, f"ds-{site}", len(records)))
        return cohort

    def test_total_records(self, multi_site_cohorts):
        cohort = self._cohort(multi_site_cohorts)
        expected = sum(len(records) for records in multi_site_cohorts.values())
        assert cohort.total_records == expected

    def test_distributed_mean_equals_pooled(self, multi_site_cohorts):
        cohort = self._cohort(multi_site_cohorts)
        pooled = [
            record["vitals"]["sbp"]
            for records in multi_site_cohorts.values()
            for record in records
        ]
        summary = cohort.numeric_summary("vitals.sbp")
        assert summary.mean == pytest.approx(np.mean(pooled))
        assert summary.count == len(pooled)

    def test_count_where_matches_pooled(self, multi_site_cohorts):
        cohort = self._cohort(multi_site_cohorts)
        pooled = sum(
            1
            for records in multi_site_cohorts.values()
            for record in records
            if record["sex"] == "F"
        )
        assert cohort.count_where(lambda record: record["sex"] == "F") == pooled

    def test_prevalence(self, multi_site_cohorts):
        cohort = self._cohort(multi_site_cohorts)
        prevalence = cohort.prevalence("stroke")
        assert 0.0 <= prevalence <= 1.0

    def test_get_field_nested(self, small_cohort):
        assert get_field(small_cohort[0], "vitals.sbp") == small_cohort[0]["vitals"]["sbp"]

    def test_get_field_missing(self, small_cohort):
        from repro.common.errors import QueryError

        with pytest.raises(QueryError):
            get_field(small_cohort[0], "vitals.missing")
