"""Cluster run of ``federated_query``: 3 site-server processes behind ``TcpGateway``.

An op is one query text parsed, fanned out to every site, composed, and
checked against the result hash an in-process ``build_inproc_gateway`` over
the same seed produces.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

from repro.query.compose import decompose
from repro.query.parser import parse_query
from repro.rpc.demo import build_demo_network, build_inproc_gateway
from repro.rpc.gateway import TcpGateway
from repro.rpc.methods import vector_to_wire

from fleet import Fleet, boot_repeatedly
from loadgen import (
    PACED_LOAD, HostSampler, OpRecord, Progress, paced_loop, raw_sat_rate, summarize,
)
from workloads import QUERY_TEXTS, Workload, inputs_sha256, query_order

SITES = 3
SAT_CLIENTS = 4
BOOT_TIMEOUT_S = 120.0
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")


async def boot_sites(fleet: Fleet, records: int, seed: int) -> Dict[str, Tuple[str, int]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    for index in range(SITES):
        fleet.spawn(
            [
                sys.executable, "-m", "repro.rpc.site_server",
                "--site", f"hospital-{index}",
                "--sites", str(SITES),
                "--records", str(records),
                "--seed", str(seed),
            ],
            env=env,
        )
    addrs = {}
    for index, proc in enumerate(fleet.procs):
        line = Fleet.read_line(proc, BOOT_TIMEOUT_S)
        if not line.startswith("LISTENING"):
            raise RuntimeError(f"site server {index} said {line!r} instead of LISTENING")
        _, host, port = line.split()
        addrs[f"hospital-{index}"] = (host, int(port))
    return addrs


async def reference_hashes(records: int, seed: int) -> List[str]:
    """Expected result hash per query text, from the in-process transport."""
    platform, _ = build_demo_network(site_count=SITES, records_per_site=records, seed=seed)
    gateway = build_inproc_gateway(platform)
    try:
        return [(await gateway.aexecute(parse_query(text))).result_hash for text in QUERY_TEXTS]
    finally:
        await gateway.aclose()


class QueryRunner:
    def __init__(self, gateway: TcpGateway, expected: List[str], progress: Progress):
        self.gateway = gateway
        self.expected = expected
        self.progress = progress
        self.bytes_on_wire: List[int] = []

    async def run(self, shape: int, record: OpRecord) -> None:
        try:
            answer = await self.gateway.aexecute(parse_query(QUERY_TEXTS[shape]))
        except Exception:  # noqa: BLE001 - any failure of the op is a failed op
            return
        record.acked = record.done = time.monotonic()
        record.ok = answer.result_hash == self.expected[shape] and not answer.failed_sites
        self.bytes_on_wire.append(answer.bytes_on_wire)
        self.progress.touch()


async def probes(gateway: TcpGateway) -> Dict[str, float]:
    """Client-timed single calls, taken outside the timed windows."""
    site = gateway.site_names()[0]

    async def timed(call) -> float:
        started = time.perf_counter()
        await call()
        return time.perf_counter() - started

    echo = [await timed(lambda: gateway.acall(site, "rpc.echo", {"payload": "x"}))
            for _ in range(50)]
    catalog_times = [await timed(gateway.acatalog) for _ in range(20)]
    catalog = await gateway.acatalog()
    query_times = []
    for text in QUERY_TEXTS:
        vector = parse_query(text)
        task = next(t for t in decompose(vector, catalog) if t.site == site)
        params = {
            "vector": vector_to_wire(vector),
            "dataset_ids": list(task.dataset_ids),
            "task_id": task.task_id,
        }
        for _ in range(4):
            query_times.append(await timed(lambda: gateway.acall(site, "site.query", params)))
    echo_rtt = statistics.median(echo)
    return {
        "rpc.echo_rtt_us": echo_rtt * 1e6,
        "gateway.catalog_ms": statistics.median(catalog_times) * 1e3,
        "site.query_ms": (statistics.median(query_times) - echo_rtt) * 1e3,
    }


async def run(
    workload: Workload, records: int, seed: int, seconds: float, boots: int, log_path: str
) -> Dict[str, Any]:
    paced_s = seconds * workload.paced_share
    sat_s = seconds - paced_s

    async def nothing_to_release(_addrs: Any) -> None:
        pass

    setup_host = HostSampler()
    setup_started = time.monotonic()
    fleet, addrs, boot_times = await boot_repeatedly(
        boots, log_path, lambda fleet: boot_sites(fleet, records, seed), nothing_to_release,
        setup_host.sample,
    )
    try:
        started = time.monotonic()
        expected = await reference_hashes(records, seed)
        fixture_s = time.monotonic() - started
        setup_host.sample()
        setup_slowdown = setup_host.window(setup_started, time.monotonic()).slowdown

        progress = Progress()
        gateway = TcpGateway(addrs)
        runner = QueryRunner(gateway, expected, progress)
        sampler = HostSampler(fleet.cpu_seconds)
        sampler.start()
        try:
            await gateway.acatalog()  # open the pooled connections before timing

            # sat: closed-loop clients cycling through the query shapes.  One
            # client alone is latency-bound: it measures wake-up latency, which
            # the host's other tenants dominate, not the sites' capacity.
            sat: List[OpRecord] = []
            sat_start = time.monotonic()
            progress.touch()

            async def client() -> None:
                while time.monotonic() - sat_start < sat_s and not progress.stalled():
                    now = time.monotonic()
                    record = OpRecord(due=now, sent=now)
                    sat.append(record)
                    await runner.run(len(sat) % len(QUERY_TEXTS), record)

            await asyncio.gather(*(client() for _ in range(SAT_CLIENTS)))

            rate = PACED_LOAD * raw_sat_rate(sat)
            order = query_order(seed, int(rate * paced_s))

            async def fire(index: int, record: OpRecord) -> None:
                await runner.run(order[index], record)

            paced = await paced_loop(len(order), rate, fire)
            probed = await probes(gateway)
        finally:
            await sampler.stop()
            await gateway.aclose()
        peak_rss_mb = fleet.peak_rss_mb()
    finally:
        fleet.stop()

    result = summarize(paced, sat, sampler, 0.0, lambda window: window.hop_slowdown)
    result["correct"] = result["failed"] == 0 and bool(paced)
    result["end_to_end"]["setup_s"] = (statistics.median(boot_times) + fixture_s) / setup_slowdown
    result["cluster"]["raw.setup_s"] = statistics.median(boot_times) + fixture_s
    result["end_to_end"]["peak_rss_mb"] = peak_rss_mb
    result["cluster"].update(probed)
    result["cluster"]["gateway.bytes_per_query"] = (
        sum(runner.bytes_on_wire) / len(runner.bytes_on_wire) if runner.bytes_on_wire else 0.0
    )
    result["info"].update({
        "inputs_sha256": inputs_sha256(
            {"seed": seed, "records": records, "texts": QUERY_TEXTS,
             "paced_order": query_order(seed, 1000)}
        ),
        "boot_s": boot_times,
        "fixture_s": fixture_s,
        "expected_hashes": expected,
    })
    return result
