"""Cluster run of a chain workload: 3 validator processes, sat + paced phases, gate.

Every op is submitted to ``v0`` over one pipelined connection
(``ctl.submit_tx``); it is *complete* once it has a successful receipt on all
three validators, at the latest of their ``bench.commits`` stamps.
"""

from __future__ import annotations

import asyncio
import math
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List

from repro.chain.transactions import Transaction, make_call, make_transfer
from repro.p2p.wire import tx_to_wire
from repro.rpc.client import RpcClient
from repro.rpc.errors import OverloadedError, RpcError

from fixture import BLOCK_INTERVAL_S, VALIDATORS, Fixture, build_fixture
from fleet import Fleet, boot_repeatedly, free_ports
from loadgen import (
    PACED_LOAD, STALL_S, HostSampler, OpRecord, Progress, paced_loop, percentile,
    raw_sat_rate, summarize,
)
from workloads import Workload, chain_op_specs, inputs_sha256

HERE = os.path.dirname(os.path.abspath(__file__))
#: Submitted-but-uncommitted ops allowed in the sat phase.  Gating on the ack
#: alone lets the pool back up into 200-tx blocks whose follower verification
#: outlasts any backup timer.
SAT_WINDOW = 64
OVERLOAD_RETRY_S = 0.05
COMMIT_POLL_S = 0.05
BOOT_TIMEOUT_S = 60.0


def sign_ops(
    fixture: Fixture, specs: List[Dict[str, Any]], tick: Callable[[], None] = lambda: None
) -> List[Transaction]:
    """Sign every spec; ``tick`` is called every 64 txs (host sampling during set-up)."""
    txs = []
    for index, spec in enumerate(specs):
        if index % 64 == 0:
            tick()
        keypair = fixture.senders[spec["sender"]]
        args = spec["args"]
        if spec["method"] == "transfer":
            tx = make_transfer(
                keypair, fixture.senders[args["to"]].address, args["amount"], nonce=spec["nonce"]
            )
        else:
            contract = (
                fixture.compute_contract if spec["method"] == "matmul" else fixture.trial_contract
            )
            tx = make_call(keypair, contract, spec["method"], args, nonce=spec["nonce"])
        txs.append(tx)
    return txs


class Validator:
    """Probe connection to one validator plus its commit log so far."""

    def __init__(self, port: int, client: RpcClient):
        self.port = port
        self.client = client
        self.commits: Dict[str, Any] = {}  # tx_id -> (stamp, success)
        self._cursor = 0

    async def poll_commits(self) -> int:
        reply = await self.client.call(
            "bench.commits", {"since": self._cursor}, timeout_s=STALL_S
        )
        self._cursor = reply["next"]
        for tx_id, stamp, success in reply["commits"]:
            self.commits[tx_id] = (stamp, success)
        return len(reply["commits"])

    async def stats(self) -> Dict[str, Any]:
        return await self.client.call("bench.stats", timeout_s=STALL_S)


async def boot_cluster(fleet: Fleet, holders: int) -> List[Validator]:
    """Spawn the validators; returns once they are fully meshed on one genesis."""
    ports = free_ports(VALIDATORS)
    for index in range(VALIDATORS):
        fleet.spawn(
            [
                sys.executable,
                os.path.join(HERE, "node_proc.py"),
                "--index", str(index),
                "--ports", ",".join(map(str, ports)),
                "--holders", str(holders),
            ]
        )
    for proc in fleet.procs:
        line = Fleet.read_line(proc, BOOT_TIMEOUT_S)
        if line != "READY":
            raise RuntimeError(f"validator {proc.pid} said {line!r} instead of READY")
    validators = [Validator(port, await RpcClient.connect("127.0.0.1", port)) for port in ports]
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while True:
        stats = [await v.stats() for v in validators]
        meshed = all(s["peers"] == VALIDATORS - 1 for s in stats)
        if meshed and len({s["head_id"] for s in stats}) == 1:
            return validators
        if time.monotonic() > deadline:
            raise RuntimeError(f"validators did not mesh: {stats}")
        await asyncio.sleep(0.02)


async def close_validators(validators: List[Validator]) -> None:
    for validator in validators:
        await validator.client.close()


class Submitter:
    """``ctl.submit_tx`` on v0's single connection, retrying OVERLOADED."""

    def __init__(self, client: RpcClient, progress: Progress):
        self.client = client
        self.progress = progress
        self.overloaded = 0
        self.connection_lost = False

    async def submit(self, wire: Dict[str, Any], record: OpRecord) -> None:
        while not self.connection_lost:
            try:
                reply = await self.client.call("ctl.submit_tx", {"tx": wire}, timeout_s=STALL_S)
            except OverloadedError:
                # The RpcServer's 64-in-flight cap, shared by ctl and p2p traffic.
                self.overloaded += 1
                await asyncio.sleep(OVERLOAD_RETRY_S)
                continue
            except RpcError:
                return  # refused or timed out: the op stays un-acked and fails
            except (ConnectionError, OSError):
                self.connection_lost = True
                return
            if reply["accepted"]:
                record.acked = time.monotonic()
                self.progress.touch()
            return


async def await_commits(
    validators: List[Validator], tx_ids: List[str], progress: Progress
) -> None:
    """Poll until every validator has logged every tx id, or progress stalls."""
    for validator in validators:
        while not all(tx_id in validator.commits for tx_id in tx_ids):
            try:
                if await validator.poll_commits():
                    progress.touch()
            except (RpcError, ConnectionError, OSError):
                break  # this validator is gone; its ops stay incomplete
            if progress.stalled():
                return
            await asyncio.sleep(COMMIT_POLL_S)


def settle(
    records: List[OpRecord], tx_ids: List[str], validators: List[Validator]
) -> None:
    """Fill ``done``/``ok`` from the three commit logs."""
    for record, tx_id in zip(records, tx_ids):
        entries = [v.commits.get(tx_id) for v in validators]
        if record.acked is not None and all(entries):
            record.done = max(stamp for stamp, _ in entries)
            record.ok = all(success for _, success in entries)


async def paced_phase(
    submitter: Submitter, validators: List[Validator], wires, tx_ids, rate: float
) -> List[OpRecord]:
    async def fire(index: int, record: OpRecord) -> None:
        await submitter.submit(wires[index], record)

    submitter.progress.touch()
    records = await paced_loop(len(wires), rate, fire)
    acked = [tx_id for record, tx_id in zip(records, tx_ids) if record.acked is not None]
    await await_commits(validators, acked, submitter.progress)
    settle(records, tx_ids, validators)
    return records


async def sat_phase(
    submitter: Submitter, validators: List[Validator], wires, tx_ids, seconds: float
) -> List[OpRecord]:
    """One submit outstanding, at most ``SAT_WINDOW`` uncommitted, for ``seconds``."""
    v0 = validators[0]
    progress = submitter.progress
    progress.touch()
    polling = True

    async def poll_v0() -> None:
        while polling:
            try:
                if await v0.poll_commits():
                    progress.touch()
            except (RpcError, ConnectionError, OSError):
                return
            await asyncio.sleep(COMMIT_POLL_S)

    committed_before = len(v0.commits)
    poller = asyncio.create_task(poll_v0())
    records: List[OpRecord] = []
    start = time.monotonic()
    try:
        for wire in wires:
            while len(records) - (len(v0.commits) - committed_before) >= SAT_WINDOW:
                if progress.stalled() or poller.done():
                    break
                await asyncio.sleep(0.002)
            now = time.monotonic()
            if now - start >= seconds or progress.stalled() or submitter.connection_lost:
                break
            record = OpRecord(due=now, sent=now)
            records.append(record)
            await submitter.submit(wire, record)
    finally:
        polling = False
        await poller
    submitted = tx_ids[: len(records)]
    acked = [tx_id for record, tx_id in zip(records, submitted) if record.acked is not None]
    await await_commits(validators, acked, progress)
    settle(records, submitted, validators)
    return records


async def gate(validators: List[Validator]) -> Dict[str, Any]:
    """Wait for quiescence, then compare heads, roots and fork counts."""
    deadline = time.monotonic() + 5.0
    while True:
        try:
            stats = [await v.stats() for v in validators]
        except (RpcError, ConnectionError, OSError) as exc:
            return {"agree": False, "forks": 0, "height": 0, "peak_depth": 0, "error": repr(exc)}
        agree = (
            len({s["head_id"] for s in stats}) == 1
            and len({s["state_root"] for s in stats}) == 1
            and all(s["pool_depth"] == 0 for s in stats)
        )
        if agree or time.monotonic() > deadline:
            return {
                "agree": agree,
                "forks": max(s["stored_blocks"] - s["height"] - 1 for s in stats),
                "height": stats[0]["height"],
                "peak_depth": max(s["pool_peak_depth"] for s in stats),
            }
        await asyncio.sleep(0.05)


async def p2p_counters(validators: List[Validator]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for validator in validators:
        counters = await validator.client.call("ctl.counters", timeout_s=STALL_S)
        for name, value in counters.items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


async def run(
    workload: Workload, holders: int, seed: int, seconds: float, boots: int, log_path: str
) -> Dict[str, Any]:
    paced_s = seconds * workload.paced_share
    sat_s = seconds - paced_s

    # -- set-up: boot (repeated, median reported), generate inputs, pre-sign --
    setup_host = HostSampler()
    setup_started = time.monotonic()
    fleet, validators, boot_times = await boot_repeatedly(
        boots, log_path, lambda fleet: boot_cluster(fleet, holders), close_validators,
        setup_host.sample,
    )
    try:
        started = time.monotonic()
        sat_cap = math.ceil(workload.sat_ops_per_s_cap * sat_s)
        paced_cap = math.ceil(PACED_LOAD * workload.sat_ops_per_s_cap * paced_s)
        specs = chain_op_specs(workload, seed, sat_cap + paced_cap)
        # Contract ids do not depend on holders, so the small fixture will do.
        txs = sign_ops(build_fixture(0), specs, setup_host.sample)
        wires = [tx_to_wire(tx) for tx in txs]
        tx_ids = [tx.tx_id for tx in txs]
        presign_s = time.monotonic() - started
        setup_host.sample()
        setup_slowdown = setup_host.window(setup_started, time.monotonic()).slowdown

        progress = Progress()
        submit_client = await RpcClient.connect("127.0.0.1", validators[0].port)
        submitter = Submitter(submit_client, progress)
        sampler = HostSampler(fleet.cpu_seconds)
        sampler.start()
        try:
            sat = await sat_phase(submitter, validators, wires[:sat_cap], tx_ids[:sat_cap], sat_s)
            sat_blocks = (await gate(validators))["height"]

            # Ops are consumed in list order so that every sender's nonces stay gapless.
            rate = PACED_LOAD * raw_sat_rate(sat)
            first = len(sat)
            last = first + min(int(rate * paced_s), len(txs) - first)
            paced = (
                await paced_phase(submitter, validators, wires[first:last], tx_ids[first:last], rate)
                if last > first else []
            )
            verdict = await gate(validators)
            counters = await p2p_counters(validators) if "error" not in verdict else {}
        finally:
            await sampler.stop()
            await submit_client.close()
        peak_rss_mb = fleet.peak_rss_mb()
    finally:
        await close_validators(validators)
        fleet.stop()

    result = summarize(paced, sat, sampler, BLOCK_INTERVAL_S, lambda window: window.slowdown)
    # A fork that lost no tx is reported (loudly, by run.py), not failed: the
    # chain did converge, and on this host a fork says more about stolen CPU.
    result["correct"] = result["failed"] == 0 and bool(paced) and bool(verdict["agree"])
    result["end_to_end"]["setup_s"] = (statistics.median(boot_times) + presign_s) / setup_slowdown
    result["cluster"]["raw.setup_s"] = statistics.median(boot_times) + presign_s
    result["end_to_end"]["peak_rss_mb"] = peak_rss_mb
    ops = max(1, result["attempted"] - result["failed"])
    acks = [(r.acked - r.due) * 1e3 for r in paced if r.acked is not None]
    result["cluster"].update({
        "rpc.ack_p50_ms": percentile(acks, 50),
        "rpc.ack_p90_ms": percentile(acks, 90),
        "rpc.overloaded_per_kop": submitter.overloaded / result["attempted"] * 1e3,
        "sig.sign_ms": presign_s / len(txs) * 1e3,
        "mempool.peak_depth": verdict["peak_depth"],
        "p2p.announces_per_op": counters.get("p2p_announce_sent", 0.0) / ops,
        "p2p.fetches_per_op": counters.get("p2p_fetches", 0.0) / ops,
        "p2p.bodies_served_per_op": counters.get("p2p_bodies_served", 0.0) / ops,
        "p2p.duplicate_bodies": counters.get("p2p_duplicate_bodies", 0.0),
        "consensus.txs_per_block": sum(r.ok for r in sat) / sat_blocks if sat_blocks else 0.0,
        "consensus.blocks": verdict["height"],
        "consensus.forks": verdict["forks"],
        "contracts.failed_receipts": sum(
            1 for r in paced + sat if r.done is not None and not r.ok
        ),
    })
    result["info"].update({
        "inputs_sha256": inputs_sha256(specs),
        "boot_s": boot_times,
        "presign_s": presign_s,
        "heads_agree": bool(verdict["agree"]),
        "gate_error": verdict.get("error", ""),
    })
    # What the layer walk needs to replay this run in the block shape it had.
    result["history"] = {
        "txs": txs[: len(sat)],
        "sat_blocks": sat_blocks,
    }
    return result
