"""Side-by-side CPU per ``site.query`` of two source trees: ``site_ab.py SRC_A SRC_B``.

Boots one ``repro.rpc.site_server`` per source tree (the same site, records
and seed) and sends both the same calls: E22 ``federated_query``'s five query
shapes as ``site.query`` frames, as ``TcpGateway`` sends them, from
``CLIENTS`` concurrent connection pairs.  Each call goes to one server and
then the same call to the other (which goes first alternates), so whatever
else the host does lands on both alike.  The calls run in ``ROUNDS``
blocks of ``CALLS``, and each block is charged each server's CPU over it,
read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds, every thread).

Prints each server's CPU per call (median and quartiles over blocks) and the
B/A ratio of the totals, with the quartiles of the per-block ratios.  On a
2-vCPU host a tree against itself read B/A 0.96–1.00 in eight runs (most
within ±1.5 %), where two sequential E22 runs differ by up to ±15 %: run it
before an E22 comparison of any change to the site path.  Exits 1 if the two
servers answer any shape differently (``query_id``, which older trees add,
aside).

``--gateway`` compares the whole fan-out instead, on E22's topology: per
tree, three site servers and one gateway process (this script again, run
from that tree's source) whose ``TcpGateway.aexecute`` serves ``CLIENTS``
concurrent closed-loop clients.  The trees take turns, one block of
``CALLS`` queries at a time (which goes first alternates).  Prints CPU per
query of the three sites together, which is what E22's
``sat_cpu_ms_per_op`` counts, and of the gateway process, which E22 does
not count; exits 1 if the trees compose any shape to a different hash or
a query reports a failed site.  A tree against itself read B/A 1.000
(sites) and 0.987 (gateway) of the totals on a 2-vCPU host.

    PYTHONPATH=src python benchmarks/site_ab.py /path/to/parent/src src
    PYTHONPATH=src python benchmarks/site_ab.py --gateway /path/to/parent/src src
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "e22_pipeline"))
from _common import start_site_fleet, stop_site_fleet  # noqa: E402
from workloads import QUERY_TEXTS  # noqa: E402

from repro.common.serialize import canonical_json  # noqa: E402
from repro.query.parser import parse_query  # noqa: E402
from repro.rpc.client import RpcClient  # noqa: E402
from repro.rpc.gateway import TcpGateway  # noqa: E402
from repro.rpc.methods import vector_to_wire  # noqa: E402

SITE = "hospital-0"
SITES = ("hospital-0", "hospital-1", "hospital-2")  # --gateway: E22's three
RECORDS = 1000  # E22's records per site
SEED = 2026
ROUNDS = 30  # blocks of calls
CALLS = 400  # site.query calls per block, to each server
CLIENTS = 4  # concurrent connection pairs


def cpu_ns(pid: int) -> int:
    """CPU time of every live thread of ``pid``, in nanoseconds."""
    total = 0
    for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
        try:
            with open(path) as handle:
                total += int(handle.read().split()[0])
        except (OSError, IndexError, ValueError):  # a thread that just exited
            pass
    return total


async def query_params(client: RpcClient) -> List[Dict[str, Any]]:
    """The ``site.query`` params of each shape, as a warm gateway sends them."""
    catalog = await client.call("site.catalog")
    dataset_ids = [entry["dataset_id"] for entry in catalog["datasets"]]
    params = []
    for text in QUERY_TEXTS:
        vector = parse_query(text)
        params.append({
            "vector": vector_to_wire(vector),
            "dataset_ids": dataset_ids,
            "task_id": f"{vector.query_id}-s0",
            "catalog_version": catalog["version"],
        })
    return params


async def block(
    pairs: Sequence[Sequence[RpcClient]], params: List[Dict[str, Any]], calls: int
) -> None:
    """``calls`` queries, the shapes in turn, each sent to one server and
    then the other (which goes first alternates), over every pair at once."""
    sent = iter(range(calls))

    async def loop(pair: Sequence[RpcClient]) -> None:
        for index in sent:
            for client in pair if index % 2 == 0 else pair[::-1]:
                await client.call("site.query", params[index % len(params)])

    await asyncio.gather(*(loop(pair) for pair in pairs))


def quartiles(values: List[float]) -> List[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


async def compare(srcs: Sequence[str], procs, addrs: Dict[str, Any]) -> int:
    names = ["A", "B"]
    clients = {
        name: [await RpcClient.connect(*addrs[name]) for _ in range(CLIENTS)]
        for name in names
    }
    try:
        params = await query_params(clients["A"][0])
        differ = []
        for index, shape in enumerate(params):
            answers = []
            for name in names:
                outcome = await clients[name][0].call("site.query", shape)
                outcome.pop("query_id", None)
                answers.append(canonical_json(outcome))
            if answers[0] != answers[1]:
                differ.append(QUERY_TEXTS[index])
        pairs = list(zip(clients["A"], clients["B"]))
        await block(pairs, params, CALLS // 4)  # warm: every column projected
        spent: Dict[str, List[float]] = {name: [] for name in names}
        for _ in range(ROUNDS):
            before = {name: cpu_ns(procs[name].pid) for name in names}
            await block(pairs, params, CALLS)
            for name in names:
                spent[name].append((cpu_ns(procs[name].pid) - before[name]) / CALLS / 1e3)
    finally:
        for name in names:
            for client in clients[name]:
                await client.close()
    for name, src in zip(names, srcs):
        low, mid, high = quartiles(spent[name])
        print(f"{name}: {mid:7.1f} us CPU per site.query (quartiles {low:.1f}-{high:.1f})  {src}")
    ratios = [b / a for a, b in zip(spent["A"], spent["B"])]
    low, mid, high = quartiles(ratios)
    print(
        f"B/A: {sum(spent['B']) / sum(spent['A']):.3f} of the totals; per round "
        f"{mid:.3f} (quartiles {low:.3f}-{high:.3f}), {ROUNDS} rounds of "
        f"{CALLS} calls x {CLIENTS} clients, {RECORDS} records"
    )
    if differ:
        print(f"ANSWERS DIFFER for: {differ}")
        return 1
    print(f"answers identical for all {len(params)} shapes")
    return 0


async def gateway_block(gateway: TcpGateway, queries: int) -> int:
    """``queries`` E22 ops (a text parsed and fanned out), the shapes in
    turn, from ``CLIENTS`` closed-loop clients; how many had a failed site."""
    sent = iter(range(queries))
    failed = 0

    async def client() -> None:
        nonlocal failed
        for index in sent:
            answer = await gateway.aexecute(parse_query(QUERY_TEXTS[index % len(QUERY_TEXTS)]))
            failed += bool(answer.failed_sites)

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return failed


async def drive(addrs: Dict[str, Any]) -> None:
    """The gateway process of ``--gateway``: print ``READY`` and each
    shape's result hash, then run a block of queries per number read from
    stdin, answering ``DONE <failed>``, until stdin ends."""
    gateway = TcpGateway({site: tuple(addr) for site, addr in addrs.items()})
    try:
        hashes = [(await gateway.aexecute(parse_query(t))).result_hash for t in QUERY_TEXTS]
        await gateway_block(gateway, CALLS // 4)  # warm: every pooled connection dialled
        print("READY", *hashes, flush=True)
        for line in sys.stdin:
            print("DONE", await gateway_block(gateway, int(line)), flush=True)
    finally:
        await gateway.aclose()


def compare_gateways(srcs: Sequence[str]) -> int:
    names = ["A", "B"]
    fleets: Dict[str, List[subprocess.Popen]] = {}
    hashes: Dict[str, List[str]] = {}
    try:
        for name, src in zip(names, srcs):
            fleets[name], addrs = start_site_fleet(list(SITES), len(SITES), RECORDS, SEED, src=src)
            env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            driver = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--drive", json.dumps(addrs)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
            )
            fleets[name].append(driver)  # last: stopped with the sites, at EOF
            ready = driver.stdout.readline().split()
            if ready[:1] != ["READY"]:
                raise RuntimeError(f"gateway of {src} said {ready!r} instead of READY")
            hashes[name] = ready[1:]
        spent: Dict[str, Dict[str, List[float]]] = {
            name: {"sites": [], "gateway": []} for name in names
        }
        failed = 0
        for index in range(ROUNDS):
            for name in names if index % 2 == 0 else names[::-1]:
                driver = fleets[name][-1]
                before = [cpu_ns(proc.pid) for proc in fleets[name]]
                driver.stdin.write(f"{CALLS}\n")
                driver.stdin.flush()
                failed += int(driver.stdout.readline().split()[1])
                after = [cpu_ns(proc.pid) for proc in fleets[name]]
                used = [(b - a) / CALLS / 1e3 for a, b in zip(before, after)]
                spent[name]["sites"].append(sum(used[:-1]))
                spent[name]["gateway"].append(used[-1])
    finally:
        for procs in fleets.values():
            stop_site_fleet(procs)
    for name, src in zip(names, srcs):
        parts = []
        for part in ("sites", "gateway"):
            low, mid, high = quartiles(spent[name][part])
            parts.append(f"{part} {mid:6.1f} us ({low:.1f}-{high:.1f})")
        print(f"{name}: CPU per query: {', '.join(parts)}  {src}")
    for part in ("sites", "gateway"):
        ratios = [b / a for a, b in zip(spent["A"][part], spent["B"][part])]
        low, mid, high = quartiles(ratios)
        total = sum(spent["B"][part]) / sum(spent["A"][part])
        print(
            f"B/A {part}: {total:.3f} of the totals; "
            f"per round {mid:.3f} (quartiles {low:.3f}-{high:.3f})"
        )
    print(
        f"{ROUNDS} rounds of {CALLS} queries x {CLIENTS} clients per tree, "
        f"{len(SITES)} sites x {RECORDS} records; {failed} queries with a failed site"
    )
    if hashes["A"] != hashes["B"]:
        differ = [t for t, a, b in zip(QUERY_TEXTS, hashes["A"], hashes["B"]) if a != b]
        print(f"ANSWERS DIFFER for: {differ}")
        return 1
    print(f"answers identical for all {len(QUERY_TEXTS)} shapes")
    return 1 if failed else 0


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["--drive"]:
        asyncio.run(drive(json.loads(argv[1])))
        return 0
    if argv[:1] == ["--gateway"] and len(argv) == 3:
        return compare_gateways([os.path.abspath(src) for src in argv[1:]])
    if len(argv) != 2:
        print("usage: site_ab.py [--gateway] SRC_A SRC_B", file=sys.stderr)
        return 2
    procs: Dict[str, Any] = {}
    addrs: Dict[str, Any] = {}
    try:
        for name, src in zip(("A", "B"), argv):
            launched, bound = start_site_fleet(
                [SITE], 3, RECORDS, SEED, src=os.path.abspath(src)
            )
            procs[name], addrs[name] = launched[0], bound[SITE]
        return asyncio.run(compare(argv, procs, addrs))
    finally:
        stop_site_fleet(list(procs.values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
