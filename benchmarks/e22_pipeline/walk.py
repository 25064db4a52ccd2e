"""The traced *layer walk*: one process, one thread, every layer in pipeline order.

The cluster run says what a user sees; the walk says where the time goes.  It
feeds the same seed-generated ops of a workload through the public functions
of each ``src/repro`` layer, each call inside a ``repro.obs`` span opened
*here* (``e22.block`` -> ``e22.op`` -> one child span per layer call), kept in
memory and written as JSON lines at exit.  A layer's cost is the self time of
its spans (span minus ``e22.*`` children), divided by the host slowdown sampled
during the walk (see ``loadgen.HostSampler``; the span file keeps raw times).  Spans that ``src/repro`` opens on
its own nest underneath and are written too, but never subtracted.

``walk.model_ms_per_op`` multiplies each layer cost by how often the
benchmark's *own model* of the deployment applies it per committed op and
``walk.coverage`` divides that by the cluster's measured (and equally
normalised) ``sat_cpu_ms_per_op``.  What is missing from 1.0 is asyncio, thread hand-offs
and p2p bookkeeping that only in-program tracing can name.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from repro.chain.blocks import build_block
from repro.chain.executor import ExecutionContext
from repro.chain.mempool import Mempool
from repro.common.hashing import hash_value_hex
from repro.consensus.node import NodeConfig
from repro.contracts.runtime import ContractExecutor
from repro.obs.export import write_trace_jsonl
from repro.obs.tracer import Span, Tracer, trace_span, tracer_override
from repro.p2p.wire import block_from_wire, block_to_wire, tx_from_wire, tx_to_wire
from repro.query.compose import compose, decompose
from repro.query.parser import parse_query
from repro.rpc import codec
from repro.rpc.demo import build_demo_network, build_inproc_gateway
from repro.rpc.framing import FrameDecoder, encode_frame
from repro.rpc.methods import vector_to_wire

from fixture import VALIDATORS, build_engine, build_fixture
from loadgen import HostSampler
from workloads import QUERY_TEXTS, query_order


def self_times(spans: List[Span], slowdown: float) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per ``e22.*`` span name: summed self time (s, host-normalised) and span count."""
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name.startswith("e22.") and span.parent_id is not None:
            child_time[span.parent_id] += span.wall_s
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span.name.startswith("e22."):
            totals[span.name] += max(0.0, span.wall_s - child_time[span.span_id]) / slowdown
            counts[span.name] += 1
    return totals, counts


def through_the_wire(envelope: Dict[str, Any]) -> Any:
    """Encode an RPC envelope into a frame and decode it back, as both ends do."""
    with trace_span("e22.rpc.codec"):
        frame = encode_frame(codec.encode_payload(envelope))
        (payload,) = FrameDecoder().feed(frame)
        return codec.decode_payload(payload)


def split_evenly(items: List[Any], parts: int) -> List[List[Any]]:
    """``items`` in ``parts`` contiguous chunks whose sizes differ by at most one."""
    parts = max(1, min(parts, len(items)))
    bounds = [round(i * len(items) / parts) for i in range(parts + 1)]
    return [items[bounds[i]:bounds[i + 1]] for i in range(parts)]


def chain_walk(holders: int, history: Dict[str, Any], span_path: str) -> Dict[str, float]:
    """Walk the sat-phase ops the cluster run just committed, in the block shape it had.

    ``history`` comes from ``chain_bench.run``: the signed txs of the sat
    phase and how many blocks they made.  The shape matters because
    ``state_root()`` slows as copy-on-write layers pile up under the head (51 ms
    at depth 1, 243 ms at depth 40 on 5*10^4 keys), so the walk must stack as
    many layers as the validators did.
    """
    fixture = build_fixture(holders)
    blocks = split_evenly(history["txs"], history["sat_blocks"])
    engine = build_engine()
    executor = ContractExecutor()
    pool = Mempool()
    max_txs = NodeConfig().max_txs_per_block
    parent, parent_state = fixture.genesis, fixture.state
    gas_used = 0
    host = HostSampler()  # one sample per op: the walk is normalised like the cluster run

    def walk_block(block_txs) -> None:
        nonlocal parent, parent_state, gas_used
        height = parent.height + 1
        with trace_span("e22.block", height=height, txs=len(block_txs)):
            for index, tx in enumerate(block_txs):
                host.sample()
                with trace_span("e22.op", tx=tx.tx_id[:12]):
                    with trace_span("e22.p2p.wire"):
                        wire = tx_to_wire(tx)
                    request = codec.parse_request(through_the_wire(
                        codec.Request("ctl.submit_tx", {"tx": wire}, request_id=index).to_wire()
                    ))
                    with trace_span("e22.p2p.wire"):
                        received = tx_from_wire(request.params["tx"])
                    with trace_span("e22.sig.verify"):
                        received.validate()
                    with trace_span("e22.mempool.add"):
                        admitted = pool.add(
                            received, account_nonce=parent_state.nonce(received.sender)
                        )
                    codec.parse_response(through_the_wire(codec.Response(
                        request_id=index,
                        result={"accepted": bool(admitted), "status": admitted.code,
                                "tx_id": received.tx_id},
                    ).to_wire()))
            with trace_span("e22.mempool.select"):
                selected = pool.select(max_txs, nonces=parent_state.nonce)
            if len(selected) != len(block_txs):
                raise RuntimeError("walk: the pool did not offer every op of the block")
            context = ExecutionContext(
                block_height=height, timestamp_ms=1000 * height,
                proposer=engine.proposer_at(height), node_name="walk",
            )
            with trace_span("e22.state.fork"):
                state = parent_state.fork()
            for tx in selected:
                with trace_span("e22.contracts.exec") as span:
                    receipt = executor.apply(state, tx, context)
                    span.set_attr("gas", receipt.gas_used)
                if not receipt.success:
                    raise RuntimeError(f"walk: tx failed: {receipt.error}")
                gas_used += receipt.gas_used
            with trace_span("e22.state.root"):
                root = state.state_root()
            block = build_block(parent, selected, root, context.proposer, context.timestamp_ms)
            with trace_span("e22.consensus.seal"):
                sealed = engine.seal(context.proposer, block)
            with trace_span("e22.p2p.wire"):
                received_block = block_from_wire(block_to_wire(sealed))
            with trace_span("e22.consensus.block_validate"):
                received_block.validate_structure()
            with trace_span("e22.consensus.verify"):
                if not engine.verify(received_block, parent):
                    raise RuntimeError("walk: consensus proof rejected")
            with trace_span("e22.mempool.commit"):
                pool.commit(
                    [tx.tx_id for tx in selected],
                    {tx.sender: state.nonce(tx.sender) for tx in selected},
                )
            parent, parent_state = sealed, state

    # Lazy set-up (contract compile cache, first-use imports) is paid once per
    # validator lifetime, so a throw-away tx warms it before the spans start.
    executor.apply(
        fixture.state.fork(), history["txs"][0], ExecutionContext(block_height=1, node_name="walk")
    )
    tracer = Tracer()
    started = time.monotonic()
    with tracer_override(tracer):
        for block_txs in blocks:
            walk_block(block_txs)
    host.sample()
    write_trace_jsonl(tracer, span_path)

    slowdown = host.window(started, time.monotonic()).slowdown
    totals, counts = self_times(tracer.spans, slowdown)
    ops, n_blocks = counts["e22.op"], counts["e22.block"]

    def per_op(name: str) -> float:
        return totals[name] / ops

    def per_blk(name: str) -> float:
        return totals[name] / n_blocks

    followers = VALIDATORS - 1
    layers = {
        "rpc.codec_us_per_op": per_op("e22.rpc.codec") * 1e6,
        "sig.verify_ms": per_op("e22.sig.verify") * 1e3,
        "mempool.add_us": per_op("e22.mempool.add") * 1e6,
        "mempool.select_us_per_tx": per_op("e22.mempool.select") * 1e6,
        "mempool.commit_us_per_tx": per_op("e22.mempool.commit") * 1e6,
        "p2p.wire_us_per_tx": per_op("e22.p2p.wire") * 1e6,
        "consensus.seal_ms": per_blk("e22.consensus.seal") * 1e3,
        "consensus.verify_ms": per_blk("e22.consensus.verify") * 1e3,
        "consensus.block_validate_ms_per_tx": per_op("e22.consensus.block_validate") * 1e3,
        "contracts.exec_ms_per_tx": per_op("e22.contracts.exec") * 1e3,
        "contracts.gas_per_tx": gas_used / ops,
        "state.root_ms_per_block": per_blk("e22.state.root") * 1e3,
        "state.fork_us": per_blk("e22.state.fork") * 1e6,
        "state.keys": float(len(fixture.state)),
        "host.walk_slowdown": slowdown,
    }
    # The benchmark's model of one committed op on V validators: admission on
    # the entry node, a validation at each gossip receiver, a re-verification
    # of the block's txs at each follower, execution everywhere, and the
    # per-block costs shared by the block's txs.
    per_block_ms = (
        (layers["state.root_ms_per_block"] + layers["state.fork_us"] / 1e3) * VALIDATORS
        + layers["consensus.seal_ms"]
        + layers["consensus.verify_ms"] * followers
    )
    layers["walk.model_ms_per_op"] = (
        layers["sig.verify_ms"] * (1 + followers)
        + layers["consensus.block_validate_ms_per_tx"] * followers
        + layers["contracts.exec_ms_per_tx"] * VALIDATORS
        + layers["mempool.add_us"] / 1e3 * VALIDATORS
        + layers["mempool.select_us_per_tx"] / 1e3
        + layers["mempool.commit_us_per_tx"] / 1e3 * VALIDATORS
        + layers["p2p.wire_us_per_tx"] / 1e3 * followers
        + layers["rpc.codec_us_per_op"] / 1e3
        + per_block_ms * n_blocks / ops
    )
    return layers


async def query_walk(records: int, seed: int, count: int, span_path: str) -> Dict[str, float]:
    platform, _ = build_demo_network(site_count=3, records_per_site=records, seed=seed)
    gateway = build_inproc_gateway(platform)

    async def walk_query(shape: int) -> None:
        with trace_span("e22.op", shape=shape):
            with trace_span("e22.query.parse"):
                vector = parse_query(QUERY_TEXTS[shape])
            with trace_span("e22.site.serve", method="site.catalog"):
                catalog = await gateway.acatalog()
            with trace_span("e22.query.decompose"):
                tasks = decompose(vector, catalog)
            partials = []
            for index, task in enumerate(tasks):
                params = {
                    "vector": vector_to_wire(vector),
                    "dataset_ids": list(task.dataset_ids),
                    "task_id": task.task_id,
                }
                through_the_wire(codec.Request("site.query", params, request_id=index).to_wire())
                with trace_span("e22.site.serve", method="site.query", site=task.site):
                    outcome = await gateway.acall(task.site, "site.query", params)
                through_the_wire(codec.Response(request_id=index, result=outcome).to_wire())
                partials.append(outcome["result"])
            with trace_span("e22.query.compose"):
                composed = compose(vector, partials)
            if hash_value_hex(composed) != expected[shape]:
                raise RuntimeError("walk: composed result differs from the gateway's")

    try:
        # Untraced first: the gateway's own answers, which also warms lazy set-up.
        expected = [
            (await gateway.aexecute(parse_query(text))).result_hash for text in QUERY_TEXTS
        ]
        tracer = Tracer()
        host = HostSampler()
        started = time.monotonic()
        with tracer_override(tracer):
            for shape in query_order(seed, count):
                host.sample()
                await walk_query(shape)
        host.sample()
    finally:
        await gateway.aclose()
    write_trace_jsonl(tracer, span_path)
    slowdown = host.window(started, time.monotonic()).slowdown
    totals, counts = self_times(tracer.spans, slowdown)
    ops = counts["e22.op"]
    return {
        "host.walk_slowdown": slowdown,
        "rpc.codec_us_per_op": totals["e22.rpc.codec"] / ops * 1e6,
        "query.parse_us": totals["e22.query.parse"] / ops * 1e6,
        "query.decompose_us": totals["e22.query.decompose"] / ops * 1e6,
        "query.compose_us": totals["e22.query.compose"] / ops * 1e6,
        # Server CPU per query: every site serves one catalog and one sub-query.
        "walk.model_ms_per_op": totals["e22.site.serve"] / ops * 1e3,
    }
