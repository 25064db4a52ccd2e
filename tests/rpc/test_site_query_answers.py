"""What ``site.query`` answers: the benchmark's five shapes, pinned to the hash."""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional

import pytest

from repro.analytics.tools import STANDARD_TOOLS
from repro.offchain.tasks import ToolRegistry, ToolSpec
from repro.query.parser import parse_query
from repro.rpc.methods import build_site_registry, vector_to_wire
from repro.rpc.site_server import build_site

#: The five query shapes of the E22 ``federated_query`` workload.
SHAPES = (
    "how many patients have diabetes",
    "prevalence of stroke among smokers",
    "average systolic blood pressure for women over 50",
    "histogram of bmi between 15 and 55 with 8 bins",
    "how many women over 60 have hypertension",
)

#: ``result_hash`` per shape at each demo site (1000 records, seed 2026), as
#: the record-by-record tools answered before the scans became columnar.
PINNED = {
    "hospital-0": [
        "7223eabda0e81d3cc2931281f784ca85a5669dc5e95801e1dfc9b2849ca8ad8a",
        "3de1d2594b9f14fa13aad4aabf54ccd4f1f54bfd3ca72fd7c1d62ba32d6e12cc",
        "0f69ff08306637b9f0f1af56cb8c7cb0741b47731c6b44f9f7cc0bf8907a3601",
        "50e5dca4f0f5e2d6303da6453a77f5a59191c8fda1d697a46f4e1deb3e3ef7fd",
        "eaf60d77a74ff6e8ee86be7befa71f94ba66f3b646bcab19a9f9bb6fa6752927",
    ],
    "hospital-1": [
        "5f0dede5530fc50d9fa9236ec0b03391f815b1e77bc483835f749da08f1e32d8",
        "8853be48e8dff7a3348b16819f2b12c4b9103adb4705be9b70f20973120191bd",
        "e772aa3c705587f19be6835bf40a613b0c7a5dcb522a0e7f037c8bbf08ec2a45",
        "cdeae14cfd8e58ca910d6eb8446c3dfa351101f48cf1bca375837ff86c0996ac",
        "c2975e3307641284e4a7b923cf65ce1cf54d2c79ea21668771a18c566fa68295",
    ],
    "hospital-2": [
        "1b14e83740ff616575f3dce221a113a8db70bd5153d0d868776ff8b2640d35dd",
        "72444316443afc7e424558f84a990ebe854b3708b4e50516c34ed4ecbb541999",
        "4e1c4ca5f9693ef87515226b481a174cd6c8de8cccdaa3c90e4ab45257023fcd",
        "5c6128c40ec434ae409503ee480493cb481e750c2b4b83b24dfaeebe232aa670",
        "27da490f4ca4775a02520404bf53704943d1dd0de52ee85501adb7e4b716f4b1",
    ],
}


def site_query(site, text: str, dataset_ids: Optional[List[str]] = None) -> Dict[str, Any]:
    """``site.query`` on a data-only site, through its method registry."""
    handler = build_site_registry(site).get("site.query").handler
    ids = dataset_ids if dataset_ids is not None else [f"emr-{site.name}"]
    return asyncio.run(handler(vector=vector_to_wire(parse_query(text)), dataset_ids=ids))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_the_five_shapes_answer_as_pinned(name):
    site = build_site(name, 3, 1000, 2026)
    assert [site_query(site, text)["result_hash"] for text in SHAPES] == PINNED[name]
    # Warm: the second pass reads the columns the first one projected.
    assert [site_query(site, text)["result_hash"] for text in SHAPES] == PINNED[name]


def test_a_dataset_named_twice_is_counted_once():
    """Regression: ``dataset_ids=[ds, ds]`` read ``ds`` twice (count 142
    instead of 71 on this site, ``records_used`` 400)."""
    site = build_site("hospital-0", 3, 200, 2026)
    once = site_query(site, SHAPES[0])
    twice = site_query(site, SHAPES[0], ["emr-hospital-0", "emr-hospital-0"])
    assert twice["records_used"] == once["records_used"] == 200
    assert twice["result_hash"] == once["result_hash"]


def test_made_up_paths_leave_no_columns_behind():
    """A column is kept only for a path some record holds, so the filter
    keys and fields a client names cannot grow a site's memory."""
    site = build_site("hospital-0", 3, 200, 2026)
    run_task = build_site_registry(site).get("site.run_task").handler
    for text in SHAPES:
        site_query(site, text)
    table = site.store.table(["emr-hospital-0"])
    kept, counted = dict(table._columns), dict(site.store.column_projections)
    unknown = {f"made.up{index}": 1 for index in range(500)}
    outcomes = {f"has_outcome_made_up{index}": 0 for index in range(500)}
    assert run_task("t0", "count", params={"filters": outcomes})["result"]["count"] == 200
    for tool_id, params in [
        ("count", {"filters": unknown}),
        ("numeric_summary", {"field": "made.up"}),
        ("prevalence", {"outcome": "made_up"}),
        ("compare_groups", {"field": "made.up", "group_field": "made.up", "group_values": [0, 1]}),
    ]:
        try:
            run_task("t1", tool_id, params=params)
        except Exception:  # a missing path raises, as the record loop did
            pass
    assert site.store.table(["emr-hospital-0"]) is table
    assert dict(table._columns).keys() == kept.keys()
    assert dict(site.store.column_projections) == counted


def test_aggregates_run_on_the_event_loop_and_model_fits_in_a_worker():
    """A column scan is answered on the loop that received the query; a
    model fit is handed to a worker thread so it cannot stall that loop."""
    site = build_site("hospital-0", 3, 50, 2026)
    threads: Dict[str, int] = {}
    registry = ToolRegistry()
    for spec in STANDARD_TOOLS:

        def spy(records, params, spec=spec):
            threads[spec.tool_id] = threading.get_ident()
            return spec.fn(records, params)

        registry.register(ToolSpec(spec.tool_id, spy, spec.description, spec.flops_per_record))
    site.runner.registry = registry
    handler = build_site_registry(site).get("site.query").handler

    async def ask(text: str) -> int:
        vector = vector_to_wire(parse_query(text))
        await handler(vector=vector, dataset_ids=["emr-hospital-0"])
        return threading.get_ident()

    assert asyncio.run(ask(SHAPES[0])) == threads["count"]
    assert asyncio.run(ask("train a stroke model")) != threads["local_train"]


def test_site_query_answers_in_run_task_shape():
    """``site.query`` answers what ``site.run_task`` answers for the vector's
    tool and params; the query is named by ``task_id`` alone."""
    site = build_site("hospital-0", 3, 50, 2026)
    registry = build_site_registry(site)
    vector = parse_query(SHAPES[2])
    outcome = asyncio.run(
        registry.get("site.query").handler(
            vector=vector_to_wire(vector), dataset_ids=["emr-hospital-0"], task_id="q-s0"
        )
    )
    ran = registry.get("site.run_task").handler(
        "q-s0", vector.tool_id(), ["emr-hospital-0"], vector.tool_params(), vector.purpose
    )
    assert outcome == ran
