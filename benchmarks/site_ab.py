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

    PYTHONPATH=src python benchmarks/site_ab.py /path/to/parent/src src
"""

from __future__ import annotations

import asyncio
import glob
import os
import statistics
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
from repro.rpc.methods import vector_to_wire  # noqa: E402

SITE = "hospital-0"
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


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: site_ab.py SRC_A SRC_B", file=sys.stderr)
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
