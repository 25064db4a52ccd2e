"""da.put_chunk / da.get_chunk / da.sample conformance over BOTH transports.

Mirrors the submit-tx conformance suite: the same handler code serves a
real TCP socket and the in-process dispatch path, so the wire contract —
result shapes, hex encodings, and the stable ``DA_UNAVAILABLE`` /
``INVALID_PARAMS`` codes — must be transport-invariant.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.da.clients import RpcSiteClient
from repro.da.dispersal import Retriever
from repro.da.manifest import encode_blob, proof_to_wire
from repro.datamgmt.store import HospitalDataStore
from repro.offchain.site import assemble_site
from repro.rpc import codec
from repro.rpc.client import RpcClient
from repro.rpc.errors import (
    DA_UNAVAILABLE,
    INVALID_PARAMS,
    RpcError,
    error_from_wire,
)
from repro.rpc.methods import build_site_registry
from repro.rpc.server import RpcServer

TRANSPORTS = ["inproc", "tcp"]

BLOB = bytes((i * 11) % 256 for i in range(4000))


def _encoded(placement=("site-a",) * 4):
    return encode_blob(BLOB, chunk_size=200, k=2, n=4, placement=list(placement))


def run_da(transport, scenario):
    """Boot a chunk-serving site server, run ``scenario(call, store)``."""

    async def main():
        site = assemble_site("site-a", HospitalDataStore("site-a"))
        store = site.chunks
        server = RpcServer(build_site_registry(site), name="site-a")
        if transport == "tcp":
            host, port = await server.start()
            client = await RpcClient.connect(host, port)

            async def call(method, params):
                return await client.call(method, params)

        else:

            async def call(method, params):
                request = codec.encode_payload(
                    {"jsonrpc": "2.0", "id": 1, "method": method, "params": params}
                )
                raw = await server.dispatch_raw(request)
                payload = codec.decode_payload(raw)
                if "error" in payload:
                    raise error_from_wire(payload["error"])
                return payload["result"]

        try:
            await scenario(call, store)
        finally:
            if transport == "tcp":
                await client.close()
            await server.close()

    asyncio.run(main())


async def _put(call, manifest, shares, stripe, share):
    index = manifest.leaf_index(stripe, share)
    return await call(
        "da.put_chunk",
        {
            "blob_id": manifest.blob_id,
            "root": manifest.root_hex,
            "index": index,
            "data": shares[share][stripe].hex(),
            "proof": proof_to_wire(manifest.proof(index)),
        },
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_put_get_sample_round_trip(transport):
    manifest, shares = _encoded()

    async def scenario(call, store):
        reply = await _put(call, manifest, shares, 0, 1)
        assert reply == {"stored": True, "site": "site-a", "index": manifest.leaf_index(0, 1)}
        again = await _put(call, manifest, shares, 0, 1)
        assert again["stored"] is False  # idempotent re-put

        got = await call(
            "da.get_chunk",
            {"blob_id": manifest.blob_id, "index": manifest.leaf_index(0, 1)},
        )
        assert bytes.fromhex(got["data"]) == shares[1][0]
        assert got["proof"]["index"] == manifest.leaf_index(0, 1)

        sampled = await call(
            "da.sample",
            {
                "blob_id": manifest.blob_id,
                "indices": [manifest.leaf_index(0, 1), manifest.leaf_index(0, 2)],
            },
        )
        held, missing = sampled["chunks"]
        assert bytes.fromhex(held["data"]) == shares[1][0]
        assert missing is None

    run_da(transport, scenario)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_missing_chunk_maps_to_da_unavailable(transport):
    manifest, _ = _encoded()

    async def scenario(call, store):
        with pytest.raises(RpcError) as err:
            await call(
                "da.get_chunk", {"blob_id": manifest.blob_id, "index": 0}
            )
        assert err.value.code == DA_UNAVAILABLE

    run_da(transport, scenario)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_bad_proof_maps_to_invalid_params(transport):
    manifest, shares = _encoded()

    async def scenario(call, store):
        wrong = proof_to_wire(manifest.proof(manifest.leaf_index(0, 0)))
        with pytest.raises(RpcError) as err:
            await call(
                "da.put_chunk",
                {
                    "blob_id": manifest.blob_id,
                    "root": manifest.root_hex,
                    "index": manifest.leaf_index(0, 1),
                    "data": shares[1][0].hex(),
                    "proof": wrong,
                },
            )
        assert err.value.code == INVALID_PARAMS
        assert store.indices(manifest.blob_id) == []

        with pytest.raises(RpcError) as err:
            await call(
                "da.put_chunk",
                {
                    "blob_id": manifest.blob_id,
                    "root": manifest.root_hex,
                    "index": manifest.leaf_index(0, 1),
                    "data": "not-hex!!",
                    "proof": proof_to_wire(manifest.proof(manifest.leaf_index(0, 1))),
                },
            )
        assert err.value.code == INVALID_PARAMS

    run_da(transport, scenario)


def test_rpc_site_client_drives_retriever_end_to_end():
    """RpcSiteClient + Retriever over a registry-backed synchronous caller."""
    manifest, shares = _encoded()
    registry = build_site_registry(assemble_site("site-a", HospitalDataStore("site-a")))

    class DirectCaller:
        def call(self, method, params):
            return registry.get(method).handler(**params)

    client = RpcSiteClient(DirectCaller(), "site-a")
    for share in range(3):
        for stripe in range(manifest.stripes):
            index = manifest.leaf_index(stripe, share)
            assert client.put_chunk(
                manifest.blob_id,
                manifest.root_hex,
                index,
                shares[share][stripe],
                manifest.proof(index),
            )
    assert Retriever({"site-a": client}).retrieve(manifest) == BLOB
    data, proof = client.get_chunk(manifest.blob_id, 0)
    assert data == shares[0][0] and proof.index == 0
