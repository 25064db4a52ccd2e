"""E4 — Parallel speedup of the transformed architecture (Figure 1, §III).

Claim: by making each node's off-chain control code feed *different* local
data to the same on-chain contract, the blockchain becomes a distributed
parallel computer: S sites process their shards simultaneously, so the
makespan of a decomposable analytic approaches 1/S of the single-site time,
bounded below by chain coordination latency.

Workload: a fixed corpus of patient records is split over 1/2/4/8 sites;
every site runs the ``local_train`` analytic on its shard (with a simulated
compute rate so analytics take simulated time).  Reported: makespan,
speedup vs one site, parallel efficiency, and the coordination floor.

``--wallclock`` switches from simulated to *measured* time on the
architecture's own parallel computer, the site processes: ``--workers`` W
``repro.rpc.site_server`` processes boot as one demo network of W sites,
and for S in 1, 2, 4 (at most W) the same MLP ``local_train`` task runs on
the first S sites at once through a ``TcpGateway``; right after, the
serial reference runs the same tasks one after another in this process
over the records each site holds.  The script asserts that every site's result hash is
bit-identical across every S and to the reference (the regression gate CI
enforces via ``BENCH_e4.json``).  A >= 2x speedup at 4 sites is
additionally gated when the host actually exposes >= W cores.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, format_table, start_site_fleet, stop_site_fleet

from repro import obs
from repro.common.signatures import KeyPair
from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
from repro.core.queryservice import GlobalQueryService
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.query.vector import QueryVector
from repro.rpc.gateway import TcpGateway
from repro.rpc.site_server import build_site

TOTAL_RECORDS = 480
SITE_COUNTS = (1, 2, 4, 8)
COMPUTE_RATE = 2e5  # flops/second per site server


def run_split(site_count: int, seed: int = 21):
    generator = CohortGenerator(seed=99)
    profile = default_site_profiles(1)[0]
    corpus = generator.generate_cohort(profile, TOTAL_RECORDS)
    platform = MedicalBlockchainNetwork(
        PlatformConfig(
            site_count=site_count, consensus="poa", include_fda=False, seed=seed
        )
    )
    shard_size = TOTAL_RECORDS // site_count
    for index, site in enumerate(platform.site_names):
        shard = corpus[index * shard_size : (index + 1) * shard_size]
        platform.register_dataset(site, f"shard-{index}", shard)
        platform.sites[site].control.compute_rate_flops = COMPUTE_RATE
    researcher = KeyPair.generate("e4-researcher")
    for index, site in enumerate(platform.site_names):
        platform.grant_access(site, f"shard-{index}", researcher.address, "research")
    service = GlobalQueryService(platform, researcher)
    vector = QueryVector(intent="train", outcome="stroke", rounds=1)
    answer = service.execute(vector)
    return {
        "sites": site_count,
        "makespan_s": answer.latency_s,
        "records_per_site": shard_size,
    }


def run_experiment():
    rows = [run_split(count) for count in SITE_COUNTS]
    base = rows[0]["makespan_s"]
    for row in rows:
        row["speedup"] = base / row["makespan_s"]
        row["efficiency"] = row["speedup"] / row["sites"]
    return rows


def report(rows):
    table = format_table(
        f"E4: parallel speedup, {TOTAL_RECORDS} records split across sites",
        ["sites", "records/site", "makespan (sim s)", "speedup", "efficiency"],
        [
            [r["sites"], r["records_per_site"], r["makespan_s"], r["speedup"],
             r["efficiency"]]
            for r in rows
        ],
    )
    emit("e4_parallel_speedup", table)
    return rows


def test_e4_parallel_speedup(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(rows)
    # Speedup grows with sites...
    assert rows[-1]["speedup"] > rows[1]["speedup"] > 1.2
    # ...and 4 sites give at least 2x.
    four = next(r for r in rows if r["sites"] == 4)
    assert four["speedup"] > 2.0


# -- wall-clock mode ---------------------------------------------------------

WALLCLOCK_SEED = 2026
WALLCLOCK_SITE_COUNTS = (1, 2, 4)


def train_params(epochs):
    """The ``local_train`` task every site runs: one MLP, fixed seed."""
    return {"model": "mlp", "outcome": "stroke", "epochs": epochs, "lr": 0.1,
            "batch_size": 32, "seed": 7}


def run_serially(services, epochs):
    """Run the task over each site's records in this process, one after
    another; returns ``(seconds, [hash])``.  Only the tool calls are timed."""
    seconds, hashes = 0.0, []
    for service in services:
        records = service.store.table(service.store.dataset_ids())
        started = perf_counter()
        result = service.runner.run(f"e4-{service.name}", "local_train",
                                    records, train_params(epochs))
        seconds += perf_counter() - started
        hashes.append(result.result_hash)
    return seconds, hashes


async def measure(addrs, services, site_counts, epochs):
    """Warm every site process; then, for each S, run the task on the first
    S site processes at once and, right after, serially in this process over
    the same sites' records, so a change in the host's speed does not fall
    between the two.  Returns ``{S: (serial s, concurrent s, [site hash or
    error], [in-process hash])}``."""
    gateway = TcpGateway(addrs, max_connections_per_site=1,
                         request_timeout_s=300.0)
    sites = [service.name for service in services]
    rows = {}
    try:
        for site in sites:
            await gateway.acall(site, "rpc.echo", {"payload": "warm"})
            await gateway.acall(site, "site.run_task", {
                "task_id": "warmup", "tool_id": "local_train",
                "params": train_params(1)})
        for count in site_counts:
            started = perf_counter()
            replies = await asyncio.gather(
                *(gateway.acall(site, "site.run_task", {
                    "task_id": f"e4-{site}", "tool_id": "local_train",
                    "params": train_params(epochs)})
                  for site in sites[:count]),
                return_exceptions=True,
            )
            wall = perf_counter() - started
            hashes = [
                f"FAILED: {reply!r}" if isinstance(reply, BaseException)
                else reply["result_hash"]
                for reply in replies
            ]
            serial, reference = await asyncio.to_thread(
                run_serially, services[:count], epochs)
            rows[count] = (serial, wall, hashes, reference)
    finally:
        await gateway.aclose()
    return rows


def run_wallclock(workers=4, records_per_site=480, epochs=1200,
                  require_speedup=None):
    """Measure serial in-process time against concurrent site processes.

    Hard gate: every site's result hash must be equal across every S and
    equal to the in-process run's.  Optional gate: the speed-up at the
    largest S >= ``require_speedup``, enforced only when the host exposes
    at least ``workers`` usable cores (a 1-core CI box cannot physically
    show parallel speedup).
    """
    sites = [f"hospital-{index}" for index in range(workers)]
    site_counts = sorted({min(count, workers) for count in WALLCLOCK_SITE_COUNTS})
    largest = site_counts[-1]
    services = [build_site(site, workers, records_per_site, WALLCLOCK_SEED)
                for site in sites[:largest]]
    procs, addrs = start_site_fleet(sites, workers, records_per_site,
                                    WALLCLOCK_SEED)
    try:
        rows = asyncio.run(measure(addrs, services, site_counts, epochs))
    finally:
        stop_site_fleet(procs)
    reference = rows[largest][3]
    serial = {c: rows[c][0] for c in site_counts}
    walls = {c: rows[c][1] for c in site_counts}
    speedup = {c: serial[c] / walls[c] for c in site_counts}
    equivalence = {
        c: rows[c][2] == rows[c][3] == reference[:c] for c in site_counts
    }
    cores = len(os.sched_getaffinity(0))
    payload = {
        "available_cores": cores,
        "site_counts": site_counts,
        "serial_s": {str(c): serial[c] for c in site_counts},
        "concurrent_s": {str(c): walls[c] for c in site_counts},
        "speedup": {str(c): speedup[c] for c in site_counts},
        "equivalence": {str(c): equivalence[c] for c in site_counts},
        "equivalent": all(equivalence.values()),
        "reference_hashes": reference,
        "result_hashes": {str(c): rows[c][2] for c in site_counts},
        "speedup_gate": {
            "sites": largest,
            "required": require_speedup,
            "enforced": bool(require_speedup) and cores >= workers,
            "passed": (
                speedup[largest] >= require_speedup if require_speedup else None
            ),
        },
    }
    table = format_table(
        f"E4 (wall-clock): local_train (mlp, {epochs} epochs) on S of "
        f"{workers} site processes x {records_per_site} records, "
        f"{cores} core(s) visible",
        ["sites", "serial s", "concurrent s", "speedup", "hashes equal"],
        [
            [c, serial[c], walls[c], speedup[c], equivalence[c]]
            for c in site_counts
        ],
    )
    emit("e4_wallclock", table)
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wallclock", action="store_true",
                        help="measure serial in-process time against "
                             "concurrent site server processes")
    parser.add_argument("--fast", action="store_true",
                        help="small CI-smoke workload (equivalence gate only)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} "
                             "BENCH_e4.json envelope to PATH")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="enable tracing and write a JSON-lines span "
                             "trace to PATH (inspect with "
                             "python -m repro.obs.summary)")
    parser.add_argument("--require-speedup", type=float, default=None,
                        help="fail unless the speedup at 4 sites meets this "
                             "(only enforced when enough cores are visible; "
                             "default 2.0 in non-fast wallclock mode)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1 (got {args.workers})")
    tracer = obs.enable() if args.trace else None
    if not args.wallclock:
        rows = report(run_experiment())
        emit_json(args.json, "e4_parallel_speedup",
                  {"mode": "simulated", "total_records": TOTAL_RECORDS,
                   "site_counts": list(SITE_COUNTS)},
                  {"rows": rows})
        if tracer is not None:
            count = obs.write_trace_jsonl(tracer, args.trace)
            print(f"wrote {count} spans to {args.trace}")
        return 0
    require = args.require_speedup
    if require is None and not args.fast and args.workers >= 2:
        require = 2.0
    records_per_site = 60 if args.fast else 480
    epochs = 20 if args.fast else 1200
    payload = run_wallclock(workers=args.workers,
                            records_per_site=records_per_site,
                            epochs=epochs, require_speedup=require)
    emit_json(args.json, "e4_parallel_speedup",
              {"mode": "wallclock", "workers": args.workers,
               "records_per_site": records_per_site, "epochs": epochs,
               "seed": WALLCLOCK_SEED, "fast": args.fast},
              payload)
    if tracer is not None:
        count = obs.write_trace_jsonl(tracer, args.trace)
        print(f"wrote {count} spans to {args.trace}")
    if not payload["equivalent"]:
        print("FAIL: site processes disagree with the in-process result "
              "hashes", file=sys.stderr)
        print(json.dumps(payload["result_hashes"], indent=2), file=sys.stderr)
        return 1
    gate = payload["speedup_gate"]
    speedup = payload["speedup"][str(gate["sites"])]
    if gate["enforced"] and not gate["passed"]:
        print(
            f"FAIL: speedup {speedup:.2f}x at {gate['sites']} sites "
            f"< required {gate['required']}x with "
            f"{payload['available_cores']} cores",
            file=sys.stderr,
        )
        return 1
    summary = (f"equivalence OK; speedup {speedup:.2f}x at {gate['sites']} "
               f"sites on {payload['available_cores']} core(s)")
    if gate["required"] and not gate["enforced"]:
        summary += (f" (speedup gate {gate['required']}x skipped: "
                    f"needs >= {args.workers} cores)")
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
