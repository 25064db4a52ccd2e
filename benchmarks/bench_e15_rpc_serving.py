"""E15 — Wire-level RPC serving: tcp/inproc equivalence and load envelope.

Claim: turning the in-process platform into a real service topology —
every hospital site a separate OS process serving framed JSON-RPC over
TCP, the global query service dispatching to them through a socket
gateway — changes *nothing* about the answers (bit-identical composed
result hashes vs the in-process transport) while serving concurrent load
with bounded latency and explicit backpressure.

Workload:

1. **Equivalence** — boot one server process per site (each independently
   reconstructs the same deterministic demo network from the shared seed),
   run the E10 query suite through a ``TcpGateway`` and through an
   ``InprocGateway``, and compare composed result hashes pairwise.
2. **Serving envelope** — ``rpc.echo`` load sweeps over payload size ×
   client concurrency against one site process: throughput plus
   p50/p95/p99 latency per combination.
3. **Cross-process tracing** — the tcp run executes under a tracer; the
   benchmark checks that spans recorded *inside the server processes*
   arrive re-parented under this process's client spans.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import subprocess
import sys
from collections import Counter
from time import perf_counter

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, format_table, human_bytes

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.obs.tracer import Tracer, tracer_override, trace_span
from repro.query.parser import parse_query
from repro.rpc.client import ConnectionPool
from repro.rpc.demo import build_demo_network, build_inproc_gateway
from repro.rpc.gateway import TcpGateway

QUERIES = (
    "how many patients have diabetes",
    "prevalence of stroke among smokers",
    "average systolic blood pressure for women over 50",
    "histogram of bmi between 15 and 55 with 8 bins",
)
SEED = 2026
SITES = 3
RECORDS_PER_SITE = 120
PAYLOAD_BYTES = (64, 4096, 65536)
CONCURRENCY = (1, 8, 32)
REQUESTS_PER_COMBO = 240

FAST_SITES = 2
FAST_RECORDS = 60
FAST_PAYLOAD_BYTES = (64, 4096)
FAST_CONCURRENCY = (1, 8)
FAST_REQUESTS = 60


# -- site server process fleet ------------------------------------------------
def start_site_fleet(site_count, records, seed):
    """One OS process per site; returns (procs, {site: (host, port)})."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    procs = []
    for index in range(site_count):
        procs.append(
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.rpc.site_server",
                    "--site", f"hospital-{index}",
                    "--sites", str(site_count),
                    "--records", str(records),
                    "--seed", str(seed),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
        )
    addrs = {}
    for index, proc in enumerate(procs):
        line = proc.stdout.readline().strip()
        if not line.startswith("LISTENING"):
            raise RuntimeError(f"site server {index} failed to boot: {line!r}")
        _, host, port = line.split()
        addrs[f"hospital-{index}"] = (host, int(port))
    return procs, addrs


def stop_site_fleet(procs):
    for proc in procs:
        if proc.stdin:
            proc.stdin.close()  # EOF -> graceful drain and exit
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.terminate()
            proc.wait(timeout=10)


# -- phase 1+3: equivalence under tracing -------------------------------------
def run_equivalence(addrs, site_count, records):
    platform, _researcher = build_demo_network(
        site_count=site_count, records_per_site=records, seed=SEED
    )
    inproc = build_inproc_gateway(platform)
    tracer = Tracer()

    async def over_tcp():
        gateway = TcpGateway(addrs)
        try:
            return [await gateway.aexecute(parse_query(text)) for text in QUERIES]
        finally:
            await gateway.aclose()

    with tracer_override(tracer):
        with trace_span("e15.tcp_queries"):
            tcp_answers = asyncio.run(over_tcp())

    rows = []
    for text, tcp_answer in zip(QUERIES, tcp_answers):
        inproc_answer = inproc.execute(parse_query(text))
        rows.append(
            {
                "query": text,
                "tcp_hash": tcp_answer.result_hash,
                "inproc_hash": inproc_answer.result_hash,
                "equal": tcp_answer.result_hash == inproc_answer.result_hash,
                "tcp_latency_s": tcp_answer.latency_s,
                "bytes": tcp_answer.bytes_on_wire,
                "sites": len(tcp_answer.site_partials),
            }
        )
    inproc.close()

    me = os.getpid()
    by_id = {span.span_id: span for span in tracer.spans}
    remote = [span for span in tracer.spans if span.pid != me]
    # A remote span is correctly stitched when its parent exists in the
    # adopted tree: either a local client span (the re-parented root of a
    # server-side trace) or another remote span (handler-internal nesting).
    under_local = [
        span
        for span in remote
        if span.parent_id in by_id and by_id[span.parent_id].pid == me
    ]
    orphans = [span for span in remote if span.parent_id not in by_id]
    trace_stats = {
        "remote_spans": len(remote),
        "reparented_under_local": len(under_local),
        "orphaned": len(orphans),
        "total_spans": len(tracer.spans),
    }
    # RPCs the tcp gateway made, by method: the catalog is fetched once per
    # site for the whole suite, every query costs one site.query per site.
    calls = Counter(
        span.attrs["method"]
        for span in tracer.spans
        if span.name == "rpc.call" and span.pid == me
    )
    return rows, trace_stats, calls


# -- phase 2: serving envelope ------------------------------------------------
def percentile(values, fraction):
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def run_load(addr, payload_sizes, concurrency_levels, requests):
    host, port = addr

    async def combo(payload, concurrency):
        pool = ConnectionPool(host, port, max_connections=min(concurrency, 8))
        latencies = []
        per_worker = max(1, requests // concurrency)

        async def worker():
            for _ in range(per_worker):
                started = perf_counter()
                await pool.call("rpc.echo", {"payload": payload}, idempotent=True)
                latencies.append(perf_counter() - started)

        # Warm the pool's sockets outside the measured window.
        await pool.call("health", idempotent=True)
        wall_start = perf_counter()
        await asyncio.gather(*(worker() for _ in range(concurrency)))
        wall = perf_counter() - wall_start
        await pool.close()
        return {
            "payload_bytes": len(payload),
            "concurrency": concurrency,
            "requests": len(latencies),
            "throughput_rps": len(latencies) / wall,
            "p50_ms": percentile(latencies, 0.50) * 1e3,
            "p95_ms": percentile(latencies, 0.95) * 1e3,
            "p99_ms": percentile(latencies, 0.99) * 1e3,
        }

    rows = []
    for size in payload_sizes:
        payload = "x" * size
        for concurrency in concurrency_levels:
            rows.append(asyncio.run(combo(payload, concurrency)))
    return rows


# -- reporting ----------------------------------------------------------------
def report(equiv_rows, trace_stats, load_rows):
    table = format_table(
        "E15: tcp vs inproc gateway — composed result hashes",
        ["query", "equal?", "tcp hash (prefix)", "tcp latency (s)", "bytes", "sites"],
        [
            [r["query"][:44], r["equal"], r["tcp_hash"][:16],
             r["tcp_latency_s"], human_bytes(r["bytes"]), r["sites"]]
            for r in equiv_rows
        ],
    )
    load_table = format_table(
        "E15b: rpc.echo serving envelope (one site process)",
        ["payload", "clients", "requests", "throughput (req/s)",
         "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        [
            [human_bytes(r["payload_bytes"]), r["concurrency"], r["requests"],
             r["throughput_rps"], r["p50_ms"], r["p95_ms"], r["p99_ms"]]
            for r in load_rows
        ],
    )
    trace_table = format_table(
        "E15c: cross-process trace propagation",
        ["remote spans", "re-parented under local", "orphaned", "total spans"],
        [[trace_stats["remote_spans"], trace_stats["reparented_under_local"],
          trace_stats["orphaned"], trace_stats["total_spans"]]],
    )
    emit("e15_rpc_serving", table + "\n\n" + load_table + "\n\n" + trace_table)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small CI-smoke workload")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} "
                             "BENCH_e15.json envelope to PATH")
    args = parser.parse_args(argv)
    site_count = FAST_SITES if args.fast else SITES
    records = FAST_RECORDS if args.fast else RECORDS_PER_SITE
    payload_sizes = FAST_PAYLOAD_BYTES if args.fast else PAYLOAD_BYTES
    concurrency_levels = FAST_CONCURRENCY if args.fast else CONCURRENCY
    requests = FAST_REQUESTS if args.fast else REQUESTS_PER_COMBO

    procs, addrs = start_site_fleet(site_count, records, SEED)
    try:
        equiv_rows, trace_stats, rpc_calls = run_equivalence(addrs, site_count, records)
        load_rows = run_load(
            addrs["hospital-0"], payload_sizes, concurrency_levels, requests
        )
    finally:
        stop_site_fleet(procs)

    report(equiv_rows, trace_stats, load_rows)
    equivalent = all(r["equal"] for r in equiv_rows)
    traced = (
        trace_stats["remote_spans"] > 0
        and trace_stats["reparented_under_local"] > 0
        and trace_stats["orphaned"] == 0
    )
    emit_json(
        args.json, "e15_rpc_serving",
        {
            "sites": site_count,
            "records_per_site": records,
            "seed": SEED,
            "queries": len(QUERIES),
            "payload_bytes": list(payload_sizes),
            "concurrency": list(concurrency_levels),
            "requests_per_combo": requests,
        },
        {
            "equivalent": equivalent,
            "trace_propagated": traced,
            "equivalence": equiv_rows,
            "trace": trace_stats,
            "rpc_calls_per_query": {
                method: count / len(QUERIES) for method, count in sorted(rpc_calls.items())
            },
            "load": load_rows,
        },
    )
    if not equivalent:
        print("E15 FAIL: tcp and inproc gateways composed different results",
              file=sys.stderr)
        return 1
    if not traced:
        print("E15 FAIL: remote spans missing or not re-parented",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
