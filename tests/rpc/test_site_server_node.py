"""Three ``site_server --validators`` processes: each is a site and a chain node.

The deployed unit of the paper's Fig. 2 — the sites that host data are the
chain's nodes — run as three OS processes over loopback TCP: a transfer
submitted to one commits on all three, each answers ``site.query`` with the
hash the in-process demo network gives, and a refused tx carries its typed
error over the wire.
"""

from __future__ import annotations

import asyncio
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.p2p.wire import tx_to_wire
from repro.query.compose import decompose
from repro.query.parser import parse_query
from repro.rpc.client import RpcClient
from repro.rpc.demo import build_demo_network, build_inproc_gateway
from repro.rpc.errors import TX_UNDERPRICED, TxUnderpricedError
from repro.rpc.gateway import TcpGateway
from repro.rpc.methods import vector_to_wire

BASE_PORT = 9481
SITES = [f"hospital-{i}" for i in range(3)]
RECORDS = 60
SEED = 2026
QUERY = "how many patients have diabetes"


def _read_line(proc, timeout_s):
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    return proc.stdout.readline().strip() if ready else ""


@pytest.fixture()
def site_nodes():
    src = str(Path(repro.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.rpc.site_server",
                "--site", site, "--sites", str(len(SITES)),
                "--records", str(RECORDS), "--seed", str(SEED),
                "--validators", ",".join(SITES), "--base-port", str(BASE_PORT),
                "--fund", "alice:1000000000",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            text=True,
        )
        for site in SITES
    ]
    try:
        addrs = {}
        for site, proc in zip(SITES, procs):
            line = _read_line(proc, 30.0)
            assert line.startswith("LISTENING"), (site, line)
            _, host, port = line.split()
            addrs[site] = (host, int(port))
        yield addrs
    finally:
        for proc in procs:
            proc.stdin.close()  # EOF: the process drains and exits
        for proc in procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


async def _poll(call, predicate, timeout_s=15.0):
    deadline = time.monotonic() + timeout_s
    while True:
        replies = await call()
        if predicate(replies) or time.monotonic() > deadline:
            return replies
        await asyncio.sleep(0.1)


@pytest.mark.slow
def test_three_site_processes_are_one_chain_and_three_sites(site_nodes):
    assert [port for _, port in site_nodes.values()] == [BASE_PORT + i for i in range(3)]
    alice = KeyPair.generate("alice")
    platform, _ = build_demo_network(len(SITES), RECORDS, SEED)
    inproc = build_inproc_gateway(platform)

    async def scenario():
        clients = [await RpcClient.connect(host, port) for host, port in site_nodes.values()]
        tcp = TcpGateway(site_nodes)
        try:
            async def statuses():
                return [await client.call("ctl.status") for client in clients]

            meshed = await _poll(statuses, lambda replies: all(r["peers"] for r in replies))
            assert all(r["peers"] for r in meshed), meshed

            transfer = make_transfer(alice, "sink", 5, nonce=0)
            reply = await clients[0].call("ctl.submit_tx", {"tx": tx_to_wire(transfer)})
            assert reply == {"accepted": True, "status": "accepted", "tx_id": transfer.tx_id}
            heads = await _poll(
                statuses,
                lambda replies: all(r["height"] >= 1 and r["mempool"] == 0 for r in replies)
                and len({(r["head_id"], r["state_root"]) for r in replies}) == 1,
            )
            assert all(r["height"] >= 1 and r["mempool"] == 0 for r in heads), heads
            assert len({(r["head_id"], r["state_root"]) for r in heads}) == 1, heads

            vector = parse_query(QUERY)
            for task in decompose(vector, await tcp.acatalog()):
                params = {
                    "vector": vector_to_wire(vector),
                    "dataset_ids": list(task.dataset_ids),
                    "task_id": task.task_id,
                }
                served = await tcp.acall(task.site, "site.query", params)
                reference = await inproc.acall(task.site, "site.query", params)
                assert served["result_hash"] == reference["result_hash"], task.site

            # A replacement below the 10 % bump, for a nonce parked in the pool.
            parked = make_transfer(
                alice, "sink", 1, nonce=9, max_fee_per_gas=100, priority_fee_per_gas=100
            )
            assert (await clients[1].call("ctl.submit_tx", {"tx": tx_to_wire(parked)}))["accepted"]
            cheap = make_transfer(
                alice, "sink", 2, nonce=9, max_fee_per_gas=101, priority_fee_per_gas=101
            )
            with pytest.raises(TxUnderpricedError) as err:
                await clients[1].call("ctl.submit_tx", {"tx": tx_to_wire(cheap)})
            assert err.value.code == TX_UNDERPRICED
            assert err.value.data["tx_id"] == cheap.tx_id
            assert err.value.data["fee_floor"] > 101
        finally:
            await tcp.aclose()
            await inproc.aclose()
            for client in clients:
                await client.close()

    asyncio.run(scenario())
