"""Three ``site_server --validators`` processes: each is a site and a chain node.

The deployed unit of the paper's Fig. 2 — the sites that host data are the
chain's nodes — run as three OS processes over loopback TCP: the platform
contracts the first validator deploys commit on all three, so does a
transfer submitted to one, each answers ``site.query`` with the hash the
in-process demo network gives, and a refused tx carries its typed error over
the wire.  Three in-process hosts built as those processes build theirs hold
the five platform contracts under their computed ids.
"""

from __future__ import annotations

import asyncio
import os
import select
import subprocess
import sys
import time
from dataclasses import astuple
from pathlib import Path

import pytest

import repro
from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.contracts.deploy import platform_contract_ids
from repro.contracts.library import PLATFORM_CONTRACTS
from repro.p2p.wire import tx_to_wire
from repro.query.compose import decompose
from repro.query.parser import parse_query
from repro.rpc.client import RpcClient
from repro.rpc.demo import build_demo_network, build_inproc_gateway
from repro.rpc.errors import TX_UNDERPRICED, TxUnderpricedError
from repro.rpc.gateway import TcpGateway
from repro.rpc.methods import vector_to_wire
from repro.rpc.site_server import build_node, deploy_platform_contracts

BASE_PORT = 9481
#: Loopback ports of the in-process hosts (tests bind 9441-9490).
INPROC_BASE_PORT = 9451
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

            def settled_above(height):
                return lambda replies: all(
                    r["height"] > height and r["mempool"] == 0 for r in replies
                ) and len({(r["head_id"], r["state_root"]) for r in replies}) == 1

            # The platform contracts the first validator deployed at start.
            deployed = await _poll(statuses, settled_above(0))
            assert settled_above(0)(deployed), deployed

            transfer = make_transfer(alice, "sink", 5, nonce=0)
            reply = await clients[0].call("ctl.submit_tx", {"tx": tx_to_wire(transfer)})
            assert reply == {"accepted": True, "status": "accepted", "tx_id": transfer.tx_id}
            heads = await _poll(statuses, settled_above(deployed[0]["height"]))
            assert settled_above(deployed[0]["height"])(heads), heads

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


def test_validator_hosts_hold_the_platform_contracts_under_their_computed_ids():
    addrs = [f"127.0.0.1:{INPROC_BASE_PORT + i}" for i in range(len(SITES))]
    hosts = [build_node(site, SITES, {}, addr, addrs) for site, addr in zip(SITES, addrs)]
    computed = platform_contract_ids(KeyPair.generate("platform-deployer"))
    ids = dict(zip(PLATFORM_CONTRACTS, astuple(computed)))

    def infos(host):
        node = host.node  # its state at the head, read on the node's thread
        return host.pump.call(
            lambda: {name: node.executor.contract_info(node.state, cid) for name, cid in ids.items()}
        )

    try:
        for host in hosts:
            host.start()
        deploy_platform_contracts(hosts[0])
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not all(
            all(infos(host).values()) for host in hosts
        ):
            time.sleep(0.2)
        for host in hosts:
            for name, info in infos(host).items():
                assert info is not None, (host.name, name)
                assert (info.contract_id, info.name) == (ids[name], name)
                assert info.source == PLATFORM_CONTRACTS[name]
    finally:
        for host in hosts:
            host.stop()
