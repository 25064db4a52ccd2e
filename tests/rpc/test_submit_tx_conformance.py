"""node.submit_tx / mempool.status conformance over BOTH transports.

Every :class:`AdmissionResult` variant must surface identically whether
the call travels through a real TCP socket or the in-process dispatch
path (``RpcServer.dispatch_raw``): same result shape on admit, same
stable integer error code and machine-usable ``data`` on refusal.  The
two paths share the server's dispatch code by construction — this suite
pins the *wire contract* so client SDKs can branch on codes alone.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.chain.blocks import make_genesis
from repro.chain.mempool import Mempool, MempoolConfig
from repro.chain.state import StateDB
from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.consensus.node import BlockchainNode, NodeConfig
from repro.consensus.poa import ProofOfAuthority
from repro.p2p.transport import SimTransport
from repro.p2p.wire import tx_to_wire
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network
from repro.rpc import codec
from repro.rpc.client import RpcClient
from repro.rpc.errors import (
    OVERLOADED,
    RATE_LIMITED,
    STALE_NONCE,
    TX_UNDERPRICED,
    OverloadedError,
    RateLimitedError,
    RpcError,
    StaleNonceError,
    TxUnderpricedError,
    error_from_wire,
)
from repro.rpc.methods import SiteService, build_site_registry
from repro.rpc.server import RpcServer

TRANSPORTS = ["inproc", "tcp"]


class _DataStore:
    def dataset_ids(self):
        return []

    def get_records(self, dataset_id):
        return []


class _PoolNode:
    """The slice of a blockchain node the submit path needs."""

    def __init__(self, config=None):
        self.mempool = Mempool(config=config)
        self.nonces = {}

    def submit_tx(self, tx):
        return self.mempool.add(tx, account_nonce=self.nonces.get(tx.sender, 0))


def _real_node(config=None):
    """A full :class:`BlockchainNode` on a one-node sim network.

    The stub above pins the pool's admission codes; this pins the *node*
    layer stacked in front of it (duplicate gating, gossip suppression,
    retry-after-rejection), which is what production RPC servers serve.
    """
    kernel = Kernel(seed=0)
    network = Network(kernel, MetricsRegistry())
    state = StateDB()
    genesis = make_genesis(state.state_root())
    engine = ProofOfAuthority(
        ["site-a"], {"site-a": KeyPair.generate("site-a")}, block_interval_s=0.5
    )
    return BlockchainNode(
        kernel,
        SimTransport(network, "site-a"),
        "site-a",
        genesis,
        state,
        engine,
        config=NodeConfig(mempool=config),
    )


def _paid(keypair, nonce, fee, amount=1):
    return make_transfer(
        keypair,
        "sink",
        amount,
        nonce=nonce,
        max_fee_per_gas=fee,
        priority_fee_per_gas=fee,
    )


def run_conformance(transport, scenario, config=None, node_factory=_PoolNode):
    """Boot a site server, run ``scenario(call, node)``, tear down."""

    async def main():
        node = node_factory(config)
        service = SiteService(
            name="site-a", store=_DataStore(), runner=None, node=node
        )
        server = RpcServer(build_site_registry(service), name="site-a")
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
            await scenario(call, node)
        finally:
            if transport == "tcp":
                await client.close()
            await server.close()

    asyncio.run(main())


def submit(call, tx):
    return call("node.submit_tx", {"tx": tx_to_wire(tx)})


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_accepted_and_duplicate(transport, alice):
    async def scenario(call, node):
        tx = _paid(alice, 0, fee=1)
        reply = await submit(call, tx)
        assert reply == {"accepted": True, "status": "accepted", "tx_id": tx.tx_id}
        again = await submit(call, tx)
        assert again == {"accepted": False, "status": "duplicate", "tx_id": tx.tx_id}

    run_conformance(transport, scenario)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_replaced_reports_displaced_tx(transport, alice):
    async def scenario(call, node):
        old = _paid(alice, 0, fee=100)
        new = _paid(alice, 0, fee=110, amount=2)
        await submit(call, old)
        reply = await submit(call, new)
        assert reply["accepted"] is True
        assert reply["status"] == "replaced"
        assert reply["tx_id"] == new.tx_id
        assert reply["replaced_tx_id"] == old.tx_id

    run_conformance(transport, scenario)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_underpriced_quotes_fee_floor(transport, alice):
    async def scenario(call, node):
        with pytest.raises(TxUnderpricedError) as err:
            await submit(call, _paid(alice, 0, fee=3))
        assert err.value.code == TX_UNDERPRICED == -32015
        assert err.value.data["fee_floor"] == 10

    run_conformance(
        transport, scenario, config=MempoolConfig(min_fee_per_gas=10)
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_pool_full_maps_to_overloaded(transport, alice, bob):
    async def scenario(call, node):
        await submit(call, _paid(bob, 0, fee=5))
        with pytest.raises(OverloadedError) as err:
            await submit(call, _paid(alice, 0, fee=5))
        assert err.value.code == OVERLOADED == -32001
        assert err.value.data["reason"] == "at capacity"
        assert err.value.data["fee_floor"] == 6

    run_conformance(
        transport,
        scenario,
        config=MempoolConfig(max_size=1, high_watermark=1.0, low_watermark=0.5),
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_shedding_maps_to_overloaded(transport, alice, bob):
    async def scenario(call, node):
        for nonce in range(5):
            await submit(call, _paid(bob, nonce, fee=10))
        with pytest.raises(OverloadedError) as err:
            await submit(call, _paid(alice, 0, fee=0))
        assert err.value.data["reason"] == "shedding"
        assert err.value.data["fee_floor"] >= 1

    run_conformance(
        transport,
        scenario,
        config=MempoolConfig(max_size=10, high_watermark=0.5, low_watermark=0.2),
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_rate_limited(transport, alice):
    async def scenario(call, node):
        assert (await submit(call, _paid(alice, 0, fee=1)))["accepted"]
        with pytest.raises(RateLimitedError) as err:
            await submit(call, _paid(alice, 1, fee=1))
        assert err.value.code == RATE_LIMITED == -32016

    run_conformance(
        transport,
        scenario,
        config=MempoolConfig(rate_limit_rate=0.001, rate_limit_burst=1),
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_stale_nonce(transport, alice):
    async def scenario(call, node):
        node.nonces[alice.address] = 5
        with pytest.raises(StaleNonceError) as err:
            await submit(call, _paid(alice, 2, fee=1))
        assert err.value.code == STALE_NONCE == -32017

    run_conformance(transport, scenario)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_malformed_fee_bid_is_invalid_tx(transport, alice):
    async def scenario(call, node):
        tx = make_transfer(
            alice, "sink", 1, nonce=0, max_fee_per_gas=1, priority_fee_per_gas=2
        )
        with pytest.raises(RpcError) as err:
            await submit(call, tx)
        assert err.value.code == -32014  # INVALID_TX, priority > max

    run_conformance(transport, scenario)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_tx_missing_a_signed_field_is_invalid_tx(transport, alice):
    """One wire decoder (``p2p.wire.tx_from_wire``): a signed field the sender
    left out is not filled in with a default the signature never covered."""

    async def scenario(call, node):
        wire = tx_to_wire(_paid(alice, 0, fee=1))
        for field in ("gas_limit", "timestamp_ms", "public_key", "signature", "payload"):
            partial = {key: value for key, value in wire.items() if key != field}
            with pytest.raises(RpcError) as err:
                await call("node.submit_tx", {"tx": partial})
            assert err.value.code == -32014, field  # INVALID_TX
            assert field in err.value.message
        with pytest.raises(RpcError) as err:
            await call("node.submit_tx", {"tx": "not an object"})
        assert err.value.code == -32014
        assert len(node.mempool) == 0

    run_conformance(transport, scenario)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_real_node_accepted_and_duplicate(transport, alice):
    """The full node keeps the same wire contract the stub pins."""

    async def scenario(call, node):
        tx = _paid(alice, 0, fee=1)
        reply = await submit(call, tx)
        assert reply == {"accepted": True, "status": "accepted", "tx_id": tx.tx_id}
        again = await submit(call, tx)
        assert again == {"accepted": False, "status": "duplicate", "tx_id": tx.tx_id}

    run_conformance(transport, scenario, node_factory=_real_node)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_real_node_resubmission_after_overloaded_succeeds(transport, alice, bob):
    """Regression: a tx shed as OVERLOADED must be admittable on retry.

    The node used to mark every submission as seen *before* admission,
    so the retry its own error message asked for came back as a
    'duplicate' no-op and the tx was blackholed forever.
    """

    async def scenario(call, node):
        for nonce in range(3):
            await submit(call, _paid(bob, nonce, fee=10))
        assert node.mempool.shedding
        cheap = _paid(alice, 0, fee=0)
        with pytest.raises(OverloadedError) as err:
            await submit(call, cheap)
        assert err.value.data["reason"] == "shedding"
        # Pressure clears (blocks commit / entries drain)...
        node.mempool.remove_all(node.mempool.all_ids())
        assert not node.mempool.shedding
        # ...and the very same transaction is now admitted.
        reply = await submit(call, cheap)
        assert reply == {
            "accepted": True,
            "status": "accepted",
            "tx_id": cheap.tx_id,
        }

    run_conformance(
        transport,
        scenario,
        config=MempoolConfig(max_size=10, high_watermark=0.3, low_watermark=0.2),
        node_factory=_real_node,
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_real_node_resubmission_after_rate_limited_succeeds(transport, alice):
    """Regression: backing off after RATE_LIMITED must actually work."""

    async def scenario(call, node):
        assert (await submit(call, _paid(alice, 0, fee=1)))["accepted"]
        retry = _paid(alice, 1, fee=1)
        with pytest.raises(RateLimitedError):
            await submit(call, retry)
        # Back off: advance the node's (simulated) clock so the sender's
        # token bucket refills, then resubmit the identical transaction.
        node.kernel.schedule(2.0, lambda: None)
        node.kernel.run(until=node.kernel.now + 2.0)
        reply = await submit(call, retry)
        assert reply == {
            "accepted": True,
            "status": "accepted",
            "tx_id": retry.tx_id,
        }

    run_conformance(
        transport,
        scenario,
        config=MempoolConfig(rate_limit_rate=1.0, rate_limit_burst=1),
        node_factory=_real_node,
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_mempool_status_surface(transport, alice):
    async def scenario(call, node):
        await submit(call, _paid(alice, 0, fee=7))
        status = await call("mempool.status", {})
        assert status["depth"] == 1
        assert status["capacity"] == node.mempool.max_size
        assert status["shedding"] is False
        assert status["fee_hint"] >= 0
        assert set(status["fee_percentiles"]) == {"p10", "p50", "p90"}

    run_conformance(transport, scenario)
