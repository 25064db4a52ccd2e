"""Query layer tests: vectors, parser, decompose/compose."""

import numpy as np
import pytest

from repro.analytics.tools import (
    tool_count,
    tool_histogram,
    tool_numeric_summary,
    tool_prevalence,
)
from repro.common.errors import QueryError
from repro.datamgmt.virtual import DatasetRef
from repro.query.compose import compose, decompose
from repro.query.parser import parse_query
from repro.query.vector import QueryVector


class TestQueryVector:
    def test_validation_ok(self):
        QueryVector(intent="prevalence", outcome="stroke").validate()

    def test_unknown_intent_rejected(self):
        with pytest.raises(QueryError):
            QueryVector(intent="teleport").validate()

    def test_prevalence_needs_outcome(self):
        with pytest.raises(QueryError):
            QueryVector(intent="prevalence").validate()

    def test_mean_needs_field(self):
        with pytest.raises(QueryError):
            QueryVector(intent="mean").validate()

    def test_histogram_needs_range(self):
        with pytest.raises(QueryError):
            QueryVector(intent="histogram", target_field="vitals.sbp").validate()

    def test_query_id_stable_and_content_addressed(self):
        a = QueryVector(intent="count", filters={"sex": "F"})
        b = QueryVector(intent="count", filters={"sex": "F"})
        c = QueryVector(intent="count", filters={"sex": "M"})
        assert a.query_id == b.query_id
        assert a.query_id != c.query_id

    def test_query_id_hashes_the_twelve_fields(self):
        """The id is the hash of the vector's canonical bytes, which are
        those of its twelve fields by name: the bytes a gateway sends."""
        from repro.common.hashing import hash_value_hex

        for text in ("how many patients have diabetes", "compare bmi of smokers",
                     "histogram of bmi between 15 and 55 with 4 bins", "train a stroke model"):
            vector = parse_query(text)
            fields = (
                "intent", "outcome", "target_field", "filters", "model", "rounds", "bins",
                "value_range", "purpose", "requested_schema", "group_field", "group_values",
            )
            expected = "q-" + hash_value_hex({name: getattr(vector, name) for name in fields})[:16]
            assert vector.query_id == expected, text

    def test_tool_mapping(self):
        assert QueryVector(intent="mean", target_field="vitals.sbp").tool_id() == "numeric_summary"
        assert QueryVector(intent="train", outcome="stroke").tool_id() == "local_train"

    def test_fetch_has_no_tool(self):
        with pytest.raises(QueryError):
            QueryVector(intent="fetch").tool_id()

    def test_tool_params_push_filters_down(self):
        vector = QueryVector(
            intent="prevalence", outcome="stroke", filters={"age_min": 60}
        )
        params = vector.tool_params()
        assert params["filters"] == {"age_min": 60}
        assert params["outcome"] == "stroke"


class TestParser:
    def test_prevalence_query(self):
        vector = parse_query("What is the prevalence of stroke among smokers over 60?")
        assert vector.intent == "prevalence"
        assert vector.outcome == "stroke"
        assert vector.filters["lifestyle.smoker"] == 1
        assert vector.filters["age_min"] == 60

    def test_count_query_with_outcome(self):
        vector = parse_query("How many patients have diabetes?")
        assert vector.intent == "count"
        assert vector.filters.get("has_outcome_diabetes") == 1

    def test_mean_query_with_sex_filter(self):
        vector = parse_query("average systolic blood pressure for women over 50")
        assert vector.intent == "mean"
        assert vector.target_field == "vitals.sbp"
        assert vector.filters["sex"] == "F"
        assert vector.filters["age_min"] == 50

    def test_histogram_with_explicit_range(self):
        vector = parse_query("histogram of bmi between 15 and 50 with 7 bins")
        assert vector.intent == "histogram"
        assert vector.target_field == "vitals.bmi"
        assert vector.value_range == [15.0, 50.0]
        assert vector.bins == 7

    def test_histogram_default_range(self):
        vector = parse_query("distribution of glucose")
        assert vector.value_range == [60.0, 350.0]

    def test_train_query(self):
        vector = parse_query("train a stroke model with 12 rounds")
        assert vector.intent == "train"
        assert vector.outcome == "stroke"
        assert vector.rounds == 12
        assert vector.model == "logistic"

    def test_train_mlp_variant(self):
        vector = parse_query("train a deep neural model to predict diabetes")
        assert vector.model == "mlp"
        assert vector.outcome == "diabetes"

    def test_cluster_query(self):
        vector = parse_query("cluster patients into 4 subtypes")
        assert vector.intent == "cluster"
        assert vector.bins == 4

    def test_synonyms(self):
        assert parse_query("rate of cva in men").outcome == "stroke"
        assert parse_query("how common is t2d").outcome == "diabetes"
        assert parse_query("average a1c for non-smokers").filters["lifestyle.smoker"] == 0

    def test_age_range(self):
        vector = parse_query("how many patients aged 40 to 60 have cancer")
        assert vector.filters["age_min"] == 40
        assert vector.filters["age_max"] == 60

    def test_diagnosis_code(self):
        vector = parse_query("count patients diagnosed with I10")
        assert vector.filters["diagnosis"] == "I10"

    def test_unparseable_rejected(self):
        with pytest.raises(QueryError):
            parse_query("hello there")

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            parse_query("   ")


class TestDecompose:
    CATALOG = [
        DatasetRef("h0", "ds0", 100),
        DatasetRef("h0", "ds0b", 50),
        DatasetRef("h1", "ds1", 200),
    ]

    def test_one_task_per_site(self):
        vector = QueryVector(intent="count")
        tasks = decompose(vector, self.CATALOG)
        assert len(tasks) == 2
        by_site = {task.site: task for task in tasks}
        assert by_site["h0"].dataset_ids == ["ds0", "ds0b"]
        assert by_site["h1"].dataset_ids == ["ds1"]

    def test_task_ids_unique(self):
        tasks = decompose(QueryVector(intent="count"), self.CATALOG)
        assert len({task.task_id for task in tasks}) == len(tasks)

    def test_empty_catalog_rejected(self):
        with pytest.raises(QueryError):
            decompose(QueryVector(intent="count"), [])

    def test_params_pushed_down(self):
        vector = QueryVector(intent="prevalence", outcome="stroke", filters={"sex": "F"})
        tasks = decompose(vector, self.CATALOG)
        assert all(task.params["filters"] == {"sex": "F"} for task in tasks)


class TestCompose:
    """Composition invariant: composed == pooled for mergeable intents."""

    def _split(self, multi_site_cohorts):
        return list(multi_site_cohorts.values())

    def test_count_composition_exact(self, multi_site_cohorts):
        shards = self._split(multi_site_cohorts)
        pooled = [record for shard in shards for record in shard]
        vector = QueryVector(intent="count", filters={"sex": "F"})
        partials = [tool_count(shard, vector.tool_params()) for shard in shards]
        assert compose(vector, partials)["count"] == tool_count(
            pooled, vector.tool_params()
        )["count"]

    def test_prevalence_composition_exact(self, multi_site_cohorts):
        shards = self._split(multi_site_cohorts)
        pooled = [record for shard in shards for record in shard]
        vector = QueryVector(intent="prevalence", outcome="stroke")
        partials = [tool_prevalence(shard, vector.tool_params()) for shard in shards]
        composed = compose(vector, partials)
        reference = tool_prevalence(pooled, vector.tool_params())
        assert composed["positives"] == reference["positives"]
        assert composed["n"] == reference["n"]

    def test_mean_composition_exact(self, multi_site_cohorts):
        shards = self._split(multi_site_cohorts)
        pooled = [record for shard in shards for record in shard]
        vector = QueryVector(intent="mean", target_field="vitals.sbp")
        partials = [tool_numeric_summary(shard, vector.tool_params()) for shard in shards]
        composed = compose(vector, partials)
        values = [record["vitals"]["sbp"] for record in pooled]
        assert composed["mean"] == pytest.approx(np.mean(values))
        assert composed["count"] == len(values)
        assert composed["variance"] == pytest.approx(np.var(values))

    def test_histogram_composition_exact(self, multi_site_cohorts):
        shards = self._split(multi_site_cohorts)
        pooled = [record for shard in shards for record in shard]
        vector = QueryVector(
            intent="histogram",
            target_field="vitals.bmi",
            bins=8,
            value_range=[15.0, 55.0],
        )
        partials = [tool_histogram(shard, vector.tool_params()) for shard in shards]
        composed = compose(vector, partials)
        reference = tool_histogram(pooled, vector.tool_params())
        assert composed["counts"] == reference["counts"]

    def test_train_composition_weighted(self, multi_site_cohorts):
        from repro.analytics.tools import tool_local_train

        shards = self._split(multi_site_cohorts)
        vector = QueryVector(intent="train", outcome="stroke")
        partials = [
            tool_local_train(shard, {**vector.tool_params(), "epochs": 1})
            for shard in shards
        ]
        composed = compose(vector, partials)
        assert composed["n"] == sum(partial["n"] for partial in partials)
        assert len(composed["params"]) == 2

    def test_compose_empty_rejected(self):
        with pytest.raises(QueryError):
            compose(QueryVector(intent="count"), [])


class TestSitePruning:
    CATALOG = [
        DatasetRef("h0", "ds0", 100),
        DatasetRef("h1", "ds1", 200),
        DatasetRef("h2", "ds2", 50),
    ]

    def test_site_filter_prunes_dispatch(self):
        vector = QueryVector(intent="count", filters={"site": "h1"})
        tasks = decompose(vector, self.CATALOG)
        assert len(tasks) == 1
        assert tasks[0].site == "h1"
        # The predicate still travels with the task (harmless double check).
        assert tasks[0].params["filters"] == {"site": "h1"}

    def test_unknown_site_rejected(self):
        vector = QueryVector(intent="count", filters={"site": "ghost"})
        with pytest.raises(QueryError):
            decompose(vector, self.CATALOG)

    def test_no_site_filter_fans_out(self):
        tasks = decompose(QueryVector(intent="count"), self.CATALOG)
        assert len(tasks) == 3
