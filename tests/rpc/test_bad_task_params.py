"""Malformed ``site.run_task`` params and ``site.query`` vectors are refused
as the caller's fault, never answered as a server fault.

Each shape below used to escape a tool as ``AttributeError`` or
``MemoryError`` (answered INTERNAL_ERROR, −32603) or as a ``LearningError``
(the generic −32000), though the request, not the site, is at fault.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict

import pytest

from repro.analytics.tools import MAX_HISTOGRAM_BINS
from repro.rpc.errors import INVALID_PARAMS, ORACLE_ERROR
from repro.rpc.methods import build_site_registry
from repro.rpc.server import RpcServer
from repro.rpc.site_server import build_site


@pytest.fixture(scope="module")
def server() -> RpcServer:
    return RpcServer(build_site_registry(build_site("hospital-0", 3, 60, 2026)))


def answer_of(server: RpcServer, method: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """The answer to one request, as a client reads it off the wire."""
    request = {"jsonrpc": "2.0", "id": 1, "method": method, "params": params}
    return json.loads(asyncio.run(server.dispatch_raw(json.dumps(request).encode())))


def run_task(server: RpcServer, tool_id: str, params: Any) -> Dict[str, Any]:
    """The ``site.run_task`` answer."""
    params = {"task_id": "t", "tool_id": tool_id, "params": params}
    return answer_of(server, "site.run_task", params)


@pytest.mark.parametrize("tool_id", ["count", "local_train", "cluster", "numeric_summary"])
@pytest.mark.parametrize("filters", [3, "sex", [["sex", "F"]]])
def test_filters_that_are_not_an_object(server, tool_id, filters):
    answer = run_task(server, tool_id, {"filters": filters, "field": "vitals.sbp"})
    assert answer["error"]["code"] == INVALID_PARAMS
    assert "filters must be an object" in answer["error"]["message"]


@pytest.mark.parametrize(
    "tool_id, params, key",
    [
        ("histogram", {"field": 3, "low": 15.0, "high": 55.0}, "field"),
        ("numeric_summary", {"field": 3}, "field"),
        ("describe", {"field": ["vitals", "sbp"]}, "field"),
        ("compare_groups", {"field": 3, "group_field": "sex", "group_values": ["F", "M"]}, "field"),
        ("compare_groups", {"field": "vitals.sbp", "group_field": 3, "group_values": ["F", "M"]}, "group_field"),
        ("numeric_summary", {"field": 0}, "field"),
        ("describe", {"field": []}, "field"),
    ],
)
def test_a_field_that_is_not_a_string(server, tool_id, params, key):
    answer = run_task(server, tool_id, params)
    assert answer["error"]["code"] == INVALID_PARAMS
    assert f"{key} must be a dotted path string" in answer["error"]["message"]


@pytest.mark.parametrize("method", ["site.run_task", "site.query"])
@pytest.mark.parametrize("dataset_ids", ["emr-hospital-0", ["emr-hospital-0", 3], {"emr-hospital-0": 1}])
def test_dataset_ids_that_are_not_a_list_of_strings(server, method, dataset_ids):
    params = {"task_id": "t", "tool_id": "count"} if method == "site.run_task" else {
        "vector": {"intent": "count"}
    }
    answer = answer_of(server, method, {**params, "dataset_ids": dataset_ids})
    assert answer["error"] == {
        "code": INVALID_PARAMS,
        "message": "dataset_ids must be a list of strings",
    }


@pytest.mark.parametrize("dataset_ids", [None, [], ["emr-hospital-0"], ["emr-hospital-0"] * 2])
def test_dataset_ids_that_name_the_sites_data_still_answer(server, dataset_ids):
    params = {"task_id": "t", "tool_id": "count", "dataset_ids": dataset_ids}
    assert answer_of(server, "site.run_task", params)["result"]["result"] == {"count": 60}


def test_local_train_on_an_outcome_no_record_holds(server):
    answer = run_task(server, "local_train", {"outcome": "no-such-outcome"})
    assert answer["error"] == {
        "code": INVALID_PARAMS,
        "message": "records lack outcome 'no-such-outcome'",
    }


@pytest.mark.parametrize(
    "model, global_params",
    [("logistic", [[1.0, 2.0], [0.0]]), ("logistic", [[0.0]]), ("mlp", [[1.0]])],
)
def test_local_train_with_global_params_of_the_wrong_shape(server, model, global_params):
    answer = run_task(server, "local_train", {"model": model, "global_params": global_params})
    assert answer["error"]["code"] == INVALID_PARAMS
    assert "parameter shape mismatch" in answer["error"]["message"]


def test_evaluate_model_with_global_params_of_the_wrong_shape(server):
    answer = run_task(server, "evaluate_model", {"global_params": [[0.0]]})
    assert answer["error"]["code"] == INVALID_PARAMS


def test_a_well_formed_task_still_answers(server):
    answer = run_task(server, "count", {"filters": {"sex": "F"}})
    assert set(answer["result"]["result"]) == {"count"}


@pytest.mark.parametrize("target_field", [5, ["vitals", "sbp"], {"a": 1}, None])
@pytest.mark.parametrize("intent", ["mean", "describe"])
def test_site_query_with_a_target_field_that_is_not_a_string(server, intent, target_field):
    vector = {"intent": intent, "target_field": target_field}
    answer = answer_of(server, "site.query", {"vector": vector})
    assert answer["error"] == {
        "code": INVALID_PARAMS,
        "message": "vector target_field must be a dotted path string",
    }


@pytest.mark.parametrize("group_field", [3, ["sex"]])
def test_site_query_with_a_group_field_that_is_not_a_string(server, group_field):
    vector = {
        "intent": "compare",
        "target_field": "vitals.sbp",
        "group_field": group_field,
        "group_values": [1, 0],
    }
    answer = answer_of(server, "site.query", {"vector": vector})
    assert answer["error"] == {
        "code": INVALID_PARAMS,
        "message": "vector group_field must be a dotted path string",
    }


@pytest.mark.parametrize("bins", [MAX_HISTOGRAM_BINS + 1, 10**12])
def test_site_query_histogram_with_too_many_bins(server, bins):
    """Refused before numpy is asked for one count per bin."""
    vector = {
        "intent": "histogram",
        "target_field": "vitals.bmi",
        "value_range": [15.0, 55.0],
        "bins": bins,
    }
    answer = answer_of(server, "site.query", {"vector": vector})
    assert answer["error"]["code"] == ORACLE_ERROR
    assert f"bins <= {MAX_HISTOGRAM_BINS}" in answer["error"]["message"]


def test_site_query_histogram_at_the_bin_limit_answers(server):
    vector = {
        "intent": "histogram",
        "target_field": "vitals.bmi",
        "value_range": [15.0, 55.0],
        "bins": MAX_HISTOGRAM_BINS,
    }
    counts = answer_of(server, "site.query", {"vector": vector})["result"]["result"]["counts"]
    assert len(counts) == MAX_HISTOGRAM_BINS and sum(counts) == 60


@pytest.mark.parametrize(
    "method, params, reason",
    [
        ("site.run_task", {"task_id": "t", "tool": "count"}, "missing a required argument: 'tool_id'"),
        ("site.run_task", {"task_id": "t", "tool_id": "count", "tool": "x"}, "got an unexpected keyword argument 'tool'"),
        ("site.query", {"vectr": {"intent": "count"}}, "missing a required argument: 'vector'"),
    ],
)
def test_params_that_do_not_fit_the_method_name_it(server, method, params, reason):
    answer = answer_of(server, method, params)
    assert answer["error"]["code"] == INVALID_PARAMS
    assert answer["error"]["message"] == f"{method}: {reason}"


@pytest.mark.parametrize("params", [3, "seed", [["seed", 1]], True])
def test_site_query_with_params_that_are_not_an_object(server, params):
    answer = answer_of(server, "site.query", {"vector": {"intent": "count"}, "params": params})
    assert answer["error"] == {
        "code": INVALID_PARAMS,
        "message": "site.query: params must be an object",
    }


def test_site_query_with_global_params_of_the_wrong_shape(server):
    vector = {"intent": "train", "outcome": "stroke"}
    params = {"vector": vector, "params": {"global_params": [[0.0]]}}
    answer = answer_of(server, "site.query", params)
    assert answer["error"]["code"] == INVALID_PARAMS
    assert "parameter shape mismatch" in answer["error"]["message"]


def test_site_query_merges_params_over_the_vectors_tool_params(server):
    vector = {"intent": "count", "filters": {"sex": "F"}}
    everyone = answer_of(server, "site.query", {"vector": vector, "params": {"filters": {}}})
    women = answer_of(server, "site.query", {"vector": vector, "params": {}})
    assert everyone["result"]["result"] == {"count": 60}
    assert women["result"]["result"]["count"] < 60
