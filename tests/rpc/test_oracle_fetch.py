"""``oracle.fetch`` served: a chain-bound site answers its three data-oracle
endpoints over the wire; a data-only site says it serves no oracle."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.rpc.demo import build_demo_network, build_inproc_gateway
from repro.rpc.errors import INVALID_PARAMS, ORACLE_ERROR, RpcError
from repro.rpc.methods import build_site_registry
from repro.rpc.server import RpcServer
from repro.rpc.site_server import build_site

RECORDS = 30


@pytest.fixture(scope="module")
def platform():
    platform, _ = build_demo_network(site_count=2, records_per_site=RECORDS, seed=45)
    return platform


def fetch(gateway, site, endpoint, request=None):
    return gateway.call(site, "oracle.fetch", {"endpoint": endpoint, "request": request})


def test_a_platform_site_serves_its_oracle(platform):
    gateway = build_inproc_gateway(platform)
    try:
        for site in platform.site_names:
            dataset = {"dataset_id": f"emr-{site}"}
            assert fetch(gateway, site, "list_datasets") == {"dataset_ids": [f"emr-{site}"]}
            assert fetch(gateway, site, "record_count", dataset) == {"count": RECORDS}
            assert fetch(gateway, site, "verify_dataset", dataset) == {
                **dataset, "registered": True, "intact": True,
            }
        store = platform.sites["hospital-1"].store
        born = store.get_records("emr-hospital-1")[0]["birth_year"]
        store.tamper("emr-hospital-1", 0, "birth_year", born + 1)
        assert fetch(gateway, "hospital-1", "verify_dataset", {"dataset_id": "emr-hospital-1"}) == {
            "dataset_id": "emr-hospital-1", "registered": True, "intact": False,
        }
        assert fetch(gateway, "hospital-0", "verify_dataset", {"dataset_id": "ghost"}) == {
            "dataset_id": "ghost", "registered": False, "intact": False,
        }
        with pytest.raises(RpcError) as err:
            fetch(gateway, "hospital-0", "no_such_endpoint")
        assert err.value.code == ORACLE_ERROR
    finally:
        gateway.close()


def test_a_data_only_site_serves_no_oracle():
    server = RpcServer(build_site_registry(build_site("hospital-0", 2, 10, 45)))
    request = {
        "jsonrpc": "2.0", "id": 1, "method": "oracle.fetch",
        "params": {"endpoint": "list_datasets"},
    }
    answer = json.loads(asyncio.run(server.dispatch_raw(json.dumps(request).encode())))
    assert answer["error"] == {
        "code": INVALID_PARAMS, "message": "site 'hospital-0' serves no oracle",
    }

