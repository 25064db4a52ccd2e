"""Malformed ``site.run_task`` params answer INVALID_PARAMS, never a server fault.

Each shape below used to escape a tool as ``AttributeError`` (answered
INTERNAL_ERROR, −32603) or as a ``LearningError`` (the generic −32000),
though the request, not the site, is at fault.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict

import pytest

from repro.rpc.errors import INVALID_PARAMS
from repro.rpc.methods import build_site_registry
from repro.rpc.server import RpcServer
from repro.rpc.site_server import build_site


@pytest.fixture(scope="module")
def server() -> RpcServer:
    return RpcServer(build_site_registry(build_site("hospital-0", 3, 60, 2026)))


def run_task(server: RpcServer, tool_id: str, params: Any) -> Dict[str, Any]:
    """The ``site.run_task`` answer, as a client reads it off the wire."""
    request = {
        "jsonrpc": "2.0",
        "id": 1,
        "method": "site.run_task",
        "params": {"task_id": "t", "tool_id": tool_id, "params": params},
    }
    return json.loads(asyncio.run(server.dispatch_raw(json.dumps(request).encode())))


@pytest.mark.parametrize("tool_id", ["count", "local_train", "cluster", "numeric_summary"])
@pytest.mark.parametrize("filters", [3, "sex", [["sex", "F"]]])
def test_filters_that_are_not_an_object(server, tool_id, filters):
    answer = run_task(server, tool_id, {"filters": filters, "field": "vitals.sbp"})
    assert answer["error"]["code"] == INVALID_PARAMS
    assert "filters must be an object" in answer["error"]["message"]


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
