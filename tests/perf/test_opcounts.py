"""Exact work counts: the half of performance that needs no stopwatch.

Each count below is an integer the code determines, measured over a fixed
seeded input and compared ``<=`` with ``opcounts.json`` beside this file.  A
change that does less work lowers the pin in the same commit, so
``git log -p tests/perf/opcounts.json`` is the trajectory; a change that does
more fails here before any benchmark is run.

The counters wrap module attributes from outside; nothing is added to the
code under measurement, except one plain counter the data store keeps
(``column_projections``), outside the query loop.  Tasks are counted by a
task factory the test installs on the serving loop.
"""

import asyncio
import json
import random
import sys
import time
from pathlib import Path

import numpy

from repro.chain import state as state_mod
from repro.chain.blocks import Block, make_genesis
from repro.chain.state import StateDB
from repro.chain.transactions import make_transfer
from repro.common import serialize
from repro.common import signatures as sigs
from repro.common.clock import WallClock
from repro.common.signatures import KeyPair, PrivateKey, PublicKey
from repro.consensus.node import BlockchainNode, make_network_nodes
from repro.consensus.poa import ProofOfAuthority
from repro.contracts import library, vm
from repro.datamgmt.cohort import CohortGenerator
from repro.p2p.config import P2PConfig
from repro.p2p.gossip import KIND_TX
from repro.p2p.host import P2PHost, build_world
from repro.p2p.rpc_transport import RpcTransport
from repro.p2p.transport import SimTransport
from repro.p2p.wire import tx_to_wire
from repro.query.parser import parse_query
from repro.query.vector import QueryVector
from repro.rpc import codec, methods
from repro.rpc.client import RpcClient
from repro.rpc.gateway import InprocGateway, TcpGateway
from repro.rpc.methods import build_site_registry, vector_to_wire
from repro.rpc.server import RpcServer
from repro.rpc.site_server import build_site
from repro.sim.kernel import Kernel
from repro.sim.network import Network

PINNED = json.loads((Path(__file__).parent / "opcounts.json").read_text())
#: Loopback ports of the TCP validators below (tests bind 9441-9490).
TCP_BASE_PORT = 9471


def _assert_within_pins(section, measured):
    pinned = PINNED[section]
    assert set(measured) == set(pinned), "opcounts.json and this test name different counts"
    over = {
        name: (count, pinned[name]) for name, count in measured.items() if count > pinned[name]
    }
    assert not over, f"{section}: (measured, pinned) {over}; all measured: {measured}"


def _signature_corpus():
    """32 signatures under 8 keys, after one verification has built the
    static tables of ``G``."""
    rng = random.Random(21)
    privates = [PrivateKey(rng.randrange(1, sigs._N)) for _ in range(8)]
    publics = [private.public_key() for private in privates]
    corpus = []
    for i in range(32):
        message = rng.randbytes(40)
        corpus.append((publics[i % 8], message, privates[i % 8].sign(message, publics[i % 8])))
    assert publics[0].verify(*corpus[0][1:])
    return corpus


def _count_point_operations(monkeypatch, runs):
    """Doublings, mixed additions and inversions (one per ``_batch_to_affine``)
    of each run, as ``{label_mean, label_max}`` over the runs; every run must
    return something true (a verification that passed, a table)."""
    calls = {"_jac_double": 0, "_jac_add_affine": 0, "_batch_to_affine": 0}

    def counting(name):
        original = getattr(sigs, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(sigs, name, counting(name))
    per_run = []
    for run in runs:
        calls.update(dict.fromkeys(calls, 0))
        assert run()
        per_run.append(dict(calls))
    measured = {}
    for label, name in (
        ("doublings", "_jac_double"),
        ("mixed_additions", "_jac_add_affine"),
        ("inversions", "_batch_to_affine"),
    ):
        counts = [run[name] for run in per_run]
        measured[f"{label}_mean"] = sum(counts) / len(counts)
        measured[f"{label}_max"] = max(counts)
    return measured


def _fresh_comb_memo():
    return sigs._CombMemo(sigs._COMB_MEMO_SIZE)


def test_point_operations_per_signature_verify(monkeypatch):
    """Each signature verified as its key's first verification: the wNAF pass."""

    def first_verification(public, message, signature):
        monkeypatch.setattr(sigs, "_COMBS", _fresh_comb_memo())
        return public.verify(message, signature)

    runs = [lambda item=item: first_verification(*item) for item in _signature_corpus()]
    _assert_within_pins("signature_verify_cold", _count_point_operations(monkeypatch, runs))


def test_point_operations_per_warm_signature_verify(monkeypatch):
    """The same signatures under keys whose combs were built before counting."""
    corpus = _signature_corpus()
    monkeypatch.setattr(sigs, "_COMBS", _fresh_comb_memo())
    for public, message, signature in corpus[:8]:
        for _ in range(sigs._COMB_AFTER + 1):
            assert public.verify(message, signature)
    assert sigs._COMBS.sizes() == (8, 8)
    runs = [lambda item=item: item[0].verify(*item[1:]) for item in corpus]
    _assert_within_pins("signature_verify_warm", _count_point_operations(monkeypatch, runs))


def test_point_operations_per_comb_build(monkeypatch):
    """What a key pays once, at its third verification."""
    points = [public.point for public, _, _ in _signature_corpus()[:8]]
    runs = [lambda point=point: sigs._comb_table(point) for point in points]
    _assert_within_pins("signature_comb_build", _count_point_operations(monkeypatch, runs))


NAMES = ["v0", "v1", "v2"]


def _three_validators(block_interval_s=0.5):
    """The fixed network: three PoA validators in one process on the sim, 16
    transfers from 4 senders, and 500 bystander accounts in the genesis."""
    senders = [KeyPair.generate(f"opcounts-sender-{i}") for i in range(4)]
    kernel = Kernel(seed=21)
    network = Network(kernel)
    state = StateDB()
    for sender in senders:
        state.credit(sender.address, 10**6)
    for i in range(500):  # bystanders, so that the trie has paths to copy
        state.credit(f"opcounts-holder-{i}", 1)
    engine = ProofOfAuthority(
        NAMES, {name: KeyPair.generate(name) for name in NAMES}, block_interval_s=block_interval_s
    )
    nodes = make_network_nodes(
        kernel, network, NAMES, make_genesis(state.state_root()), state, lambda: engine
    )
    txs = [
        make_transfer(sender, "opcounts-dest", 1 + nonce, nonce=nonce)
        for nonce in range(4)
        for sender in senders
    ]
    return kernel, network, nodes, txs


def _submit_and_commit(kernel, nodes, txs):
    """Each tx to the next validator in turn; run until all commit on one head."""
    for i, tx in enumerate(txs):
        assert nodes[NAMES[i % 3]].submit_tx(tx)
    kernel.run(
        until=60.0,
        stop_when=lambda: all(node.receipt(txs[-1].tx_id) for node in nodes.values())
        and len({node.head.block_id for node in nodes.values()}) == 1,
    )
    for node in nodes.values():
        node.stop()
    assert all(node.receipt(tx.tx_id).success for node in nodes.values() for tx in txs)
    assert len({node.head.block_id for node in nodes.values()}) == 1


def test_verifications_per_committed_tx_on_a_shared_process_network(monkeypatch):
    """Three validators in one process: the first to meet a tx pays for its
    signature check, the other two find it in ``_VERIFIED``; every follower
    checks every block's seal and validates its structure (tx Merkle tree,
    every ``tx.validate()``) once — the proposer, which built the block from
    admitted txs, not at all; and every validator hashes the trie branches on
    the paths its own execution of the block wrote, nothing else."""
    kernel, network, nodes, txs = _three_validators()
    digests = {tx.signing_digest() for tx in txs}

    verified = {"tx": 0, "seal": 0}
    original = PublicKey.verify

    def counted(self, message, signature):
        verified["tx" if message in digests else "seal"] += 1
        return original(self, message, signature)

    monkeypatch.setattr(PublicKey, "verify", counted)

    structure = {"proposer": 0, "follower": 0}
    validate_structure = Block.validate_structure

    def counted_structure(block):
        frame = sys._getframe(1)  # whose call is it: the nearest node up the stack
        while not isinstance(frame.f_locals.get("self"), BlockchainNode):
            frame = frame.f_back
        own = frame.f_locals["self"].name == block.header.proposer
        structure["proposer" if own else "follower"] += 1
        return validate_structure(block)

    monkeypatch.setattr(Block, "validate_structure", counted_structure)

    branches = []
    build_branch = state_mod._branch
    monkeypatch.setattr(
        state_mod, "_branch", lambda children: branches.append(1) or build_branch(children)
    )
    for node in nodes.values():
        node.start()
    _submit_and_commit(kernel, nodes, txs)
    blocks = nodes["v0"].head.height
    _assert_within_pins(
        "sim_network",
        {
            "tx_verifications_per_committed_tx": verified["tx"] / len(txs),
            "seal_verifications_per_block_per_follower": verified["seal"] / (blocks * 2),
            "structure_validations_per_block_per_follower": structure["follower"] / (blocks * 2),
            "structure_validations_per_block_per_proposer": structure["proposer"] / blocks,
            "trie_branch_builds_per_block_per_validator": len(branches) / (blocks * 3),
        },
    )


def test_gossip_messages_per_committed_tx(monkeypatch):
    """The same network with its handshakes done before the first submit.  The
    validator a tx is submitted to pushes its body to both others in one
    ``p2p.push`` notification each, and the proposer pushes each block the
    same way, as its header and tx ids; every copy names both recipients, so
    no relay announces anything and nobody fetches.  Counted on the wire, by
    wrapping ``Network.send``."""
    kernel, network, nodes, txs = _three_validators()
    for node in nodes.values():
        node.start()
    kernel.run(until=1.0)  # hellos answered; the first ping is >= 2.5 s away

    counts = {
        "pushes": 0,
        "announced_ids": 0,
        "get_data": 0,
        "responses": 0,
        "block_body_bytes": 0,
    }
    send = network.send

    def counted_send(sender, recipient, kind, payload, size_bytes=256):
        if kind == SimTransport.KIND_REQUEST:
            method, params = payload["method"], payload["params"]
            if method == "p2p.push":
                counts["pushes"] += 1
                if params["kind"] == "block":
                    counts["block_body_bytes"] += size_bytes
            elif method == "p2p.announce":
                counts["announced_ids"] += len(params["ids"])
            elif method == "p2p.get_data":
                counts["get_data"] += 1
        elif kind == SimTransport.KIND_RESPONSE:
            counts["responses"] += 1
            result = payload.get("result")
            if isinstance(result, dict) and (result.get("kind") == "block" or "blocks" in result):
                counts["block_body_bytes"] += size_bytes
        return send(sender, recipient, kind, payload, size_bytes)

    monkeypatch.setattr(network, "send", counted_send)
    _submit_and_commit(kernel, nodes, txs)
    blocks = nodes["v0"].head.height
    _assert_within_pins(
        "gossip",
        {
            "pushed_bodies_per_committed_tx": counts["pushes"] / len(txs),
            "announces_per_committed_tx": counts["announced_ids"] / len(txs),
            "fetches_per_committed_tx": counts["get_data"] / len(txs),
            "p2p_resp_messages_per_committed_tx": counts["responses"] / len(txs),
            "block_body_bytes_per_block_per_follower": counts["block_body_bytes"] / (blocks * 2),
        },
    )


class _CountingDict(dict):
    """A dict that reports every lookup made on it."""

    def __init__(self, data, probes):
        super().__init__(data)
        self._probes = probes

    def get(self, key, default=None):
        self._probes.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self._probes.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self._probes.append(key)
        return super().__contains__(key)


def test_steps_to_read_a_key_last_written_64_forks_below(monkeypatch):
    """A read costs one probe of the reader's own pending writes plus a trie
    descent, however many generations ago the key was written: no state in
    the lineage is consulted on the way."""
    lineage = [StateDB({f"k/{i}": i for i in range(2000)})]
    lineage[0].state_root()
    for generation in range(64):
        head = lineage[-1].fork()
        for i in range(4):
            head.set(f"k/{4 * generation + i}", [generation])
        head.state_root()
        lineage.append(head)
    steps = []
    for state in lineage:  # every dict any state of the lineage holds
        for name, value in vars(state).items():
            if type(value) is dict:
                setattr(state, name, _CountingDict(value, steps))
    is_leaf = state_mod._is_leaf
    monkeypatch.setattr(state_mod, "_is_leaf", lambda node: steps.append(node) or is_leaf(node))

    assert lineage[-1].get("k/1999") == 1999  # last written in lineage[0]
    _assert_within_pins("state_read", {"steps_64_forks_below": len(steps)})


def test_native_regions_per_library_function(monkeypatch):
    """Regions the VM lowers in each function of the contracts E22 and the
    platform run: ``matmul``'s whole triple loop is one.  A structural count,
    so compared ``==``, not ``<=``: a region fewer is statements walked that
    ran as bytecode, a region more is one cut in two."""
    counts = {}
    lower, emit = vm._Function.__init__, vm._Emitter.region

    def counted_lower(function, func, contract):
        counts[func.name] = 0
        lower(function, func, contract)

    def counted_emit(emitter, body):
        counts[next(reversed(counts))] += 1
        return emit(emitter, body)

    monkeypatch.setattr(vm._Function, "__init__", counted_lower)
    monkeypatch.setattr(vm._Emitter, "region", counted_emit)
    measured = {}
    for source in ("COMPUTE_CONTRACT_SOURCE", "CLINICAL_TRIAL_SOURCE", "DATA_REGISTRY_SOURCE"):
        counts.clear()
        vm.compile_contract(getattr(library, source))
        measured.update({f"{source}.{name}": count for name, count in counts.items()})
    assert measured == PINNED["vm_regions"]


#: The five query shapes of the E22 ``federated_query`` workload.
E22_SHAPES = (
    "how many patients have diabetes",
    "prevalence of stroke among smokers",
    "average systolic blood pressure for women over 50",
    "histogram of bmi between 15 and 55 with 8 bins",
    "how many women over 60 have hypertension",
)
#: ``compare_groups`` over string groups (by sex) and number groups (smokers).
COMPARE_SHAPES = (
    "compare systolic blood pressure between men and women",
    "compare bmi of smokers",
)


def test_site_read_work_per_warm_query(monkeypatch):
    """Three data-only sites behind an in-process gateway, 20 queries of the
    five shapes, then a ``tamper`` at one site and 20 more.  A site projects
    each column it scans once per dataset content, and no more however many
    queries read it; the ``tamper`` costs each of that dataset's columns one
    projection, exactly.  A warm gateway plans from its cached catalog and
    asks no site for it.  A warm query compares no Python objects in its
    equality filters (``sex = "F"`` by string code, ``smoker = 1`` in
    float64), nor in a ``compare_groups`` query's group membership (``M`` /
    ``F``, smokers ``1`` / ``0``), and a site does not hash the vector into a
    ``query_id``.  A site canonical-encodes a tool's result once: those bytes
    give its hash and go into the reply as they are.  Structural, so
    compared ``==``."""
    sites = {name: build_site(name, 3, 150, 2026) for name in ("hospital-0", "hospital-1", "hospital-2")}
    servers = {name: RpcServer(build_site_registry(site), name=name) for name, site in sites.items()}
    gateway = InprocGateway(servers)
    counts = {"object_not_equal": 0, "object_equal": 0, "site_query_id": 0, "result_encodes": 0}
    not_equal, equal, from_wire = numpy.not_equal, numpy.equal, methods.vector_from_wire
    canonical_json = serialize.canonical_json
    results, kept = set(), []  # the ids of the results the tools returned, kept alive

    def recording(fn):
        def recorded(records, params):
            result = fn(records, params)
            results.add(id(result))
            kept.append(result)
            return result

        return recorded

    for site in sites.values():
        for tool_id in site.runner.registry.tool_ids():
            spec = site.runner.registry.get(tool_id)
            spec.fn = recording(spec.fn)

    def reaches_a_result(value):
        if id(value) in results:
            return True
        if isinstance(value, dict):
            return any(map(reaches_a_result, value.values()))
        return isinstance(value, (list, tuple)) and any(map(reaches_a_result, value))

    def counted_canonical_json(value, *args):
        if reaches_a_result(value):
            counts["result_encodes"] += 1
        return canonical_json(value, *args)

    def on_objects(name, ufunc):
        def counted(*args, **kwargs):
            if any(getattr(arg, "dtype", None) == object for arg in args):
                counts[name] += 1
            return ufunc(*args, **kwargs)

        return counted

    class CountedVector(QueryVector):
        @property
        def query_id(self):
            counts["site_query_id"] += 1
            return QueryVector.query_id.fget(self)

    def counted_from_wire(vector):
        built = from_wire(vector)
        built.__class__ = CountedVector  # only the vector a site rebuilds
        return built

    monkeypatch.setattr(numpy, "not_equal", on_objects("object_not_equal", not_equal))
    monkeypatch.setattr(numpy, "equal", on_objects("object_equal", equal))
    monkeypatch.setattr(methods, "vector_from_wire", counted_from_wire)
    monkeypatch.setattr(serialize, "canonical_json", counted_canonical_json)

    def served(method):
        return sum(
            server.metrics.counter(f"rpc_calls[{method}]", scope=name)
            for name, server in servers.items()
        )

    def catalog_calls():
        return served("site.catalog")

    def queries(count):
        for index in range(count):
            answer = gateway.execute(parse_query(E22_SHAPES[index % len(E22_SHAPES)]))
            assert not answer.failed_sites

    def projections():
        return {
            (name, key): count
            for name, site in sites.items()
            for key, count in site.store.column_projections.items()
        }

    try:
        queries(1)
        warm_from = catalog_calls()
        counts["object_not_equal"] = 0
        queries(19)
        cold = projections()
        catalog_per_warm_query = (catalog_calls() - warm_from) / 19
        object_not_equal_per_warm_query = counts["object_not_equal"] / 19
        store = sites["hospital-0"].store
        store.tamper("emr-hospital-0", 0, "birth_year", 1940)
        queries(20)
        after = projections()
        counts["object_equal"] = counts["object_not_equal"] = 0
        for text in COMPARE_SHAPES:
            assert not gateway.execute(parse_query(text)).failed_sites
        object_comparisons_per_compare_query = (
            counts["object_equal"] + counts["object_not_equal"]
        ) / len(COMPARE_SHAPES)
    finally:
        gateway.close()
    tampered = {key: count - cold[key] for key, count in after.items() if key[0] == "hospital-0"}
    assert PINNED["site_read"] == {
        "column_projections_per_content_path_20_queries": max(cold.values()),
        "extra_projections_per_path_after_a_tamper_low": min(tampered.values()),
        "extra_projections_per_path_after_a_tamper_high": max(tampered.values()),
        "gateway_catalog_calls_per_warm_query": catalog_per_warm_query,
        "object_not_equal_calls_per_warm_query": object_not_equal_per_warm_query,
        "object_comparisons_per_compare_groups_query": object_comparisons_per_compare_query,
        "query_id_evaluations_per_served_site_query": (
            counts["site_query_id"] / served("site.query")
        ),
        "result_encodes_per_served_site_query": counts["result_encodes"] / served("site.query"),
    }


def test_cohort_work_per_site_boot(monkeypatch):
    """Booting each site of a 3-site demo network: patients drawn per record
    held (site k draws the stream up to its own records, (k+1) per record);
    ``_derive_features`` and ``numpy.clip`` calls per patient drawn."""
    records = 40
    calls = {"generate_patient": 0, "_derive_features": 0, "clip": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(CohortGenerator, "generate_patient", "generate_patient")
    counting(CohortGenerator, "_derive_features", "_derive_features")
    counting(numpy, "clip", "clip")
    measured = {}
    for index in range(3):
        calls.update(dict.fromkeys(calls, 0))
        site = build_site(f"hospital-{index}", 3, records, 2026)
        assert site.store.record_count(f"emr-hospital-{index}") == records
        measured[f"patients_drawn_per_record_site_{index}"] = calls["generate_patient"] / records
    patients = calls["generate_patient"]
    measured["derive_features_calls_per_patient"] = calls["_derive_features"] / patients
    measured["numpy_clip_calls_per_patient"] = calls["clip"] / patients
    _assert_within_pins("cohort", measured)


def test_tasks_per_served_request():
    """One validator that is also a site, served over TCP; tasks created on
    its loop per request.  A handler that never waits is answered in the
    read callback: no task for a ``p2p.push``, a ``ctl.submit_tx`` or a
    ``site.query`` aggregate.  A model fit waits for its worker thread, so
    it continues on one task."""
    validators = ["v0"]
    genesis, state, engine = build_world(validators, {"alice": 10**9}, block_interval_s=0.5)
    host = P2PHost("v0", "127.0.0.1:0", genesis, state, engine)
    build_site_registry(build_site("hospital-0", 3, 150, 2026), registry=host.registry)
    created = []

    def counting_factory(loop, coro, **kwargs):
        created.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    alice = KeyPair.generate("alice")
    txs = [make_transfer(alice, "opcounts-dest", 1, nonce=nonce) for nonce in range(32)]
    vectors = [vector_to_wire(parse_query(text)) for text in E22_SHAPES]
    fit = vector_to_wire(parse_query("train a stroke model"))

    async def serve_and_count(client, calls, notifications=()):
        before = len(created)
        for method, params in notifications:
            await client.notify(method, params)
        for method, params in calls:
            await client.call(method, params)
        await client.call("ctl.status")  # answered inline, after the notifications
        return (len(created) - before) / (len(calls) or len(notifications))

    async def scenario(addr):
        host_name, port = addr.rsplit(":", 1)
        client = await RpcClient.connect(host_name, int(port))
        try:
            await client.call("ctl.status")  # the connection is accepted, on a task
            host.pump.call(lambda: host.loop.loop.set_task_factory(counting_factory))
            pushes = [
                ("p2p.push", {"from": "", "kind": KIND_TX, "id": tx.tx_id,
                              "bodies": [tx_to_wire(tx)], "to": []})
                for tx in txs[:16]
            ]
            return {
                "tasks_per_p2p_push": await serve_and_count(client, [], pushes),
                "tasks_per_ctl_submit_tx": await serve_and_count(
                    client, [("ctl.submit_tx", {"tx": tx_to_wire(tx)}) for tx in txs[16:]]
                ),
                "tasks_per_site_query_aggregate": await serve_and_count(
                    client, [("site.query", {"vector": vectors[i % 5]}) for i in range(20)]
                ),
                "tasks_per_site_query_model_fit": await serve_and_count(
                    client, [("site.query", {"vector": fit})] * 2
                ),
            }
        finally:
            await client.close()

    addr = host.start()
    try:
        measured = asyncio.run(scenario(addr))
        assert host.pump.call(lambda: len(host.node.mempool) + host.node.head.height) > 0
    finally:
        host.stop()
    _assert_within_pins("rpc_serving", measured)


def test_serialization_work_per_admitted_tx(monkeypatch):
    """Canonical encodes (``serialize.canonical_json``, which ``canonical_bytes``
    and every hash of a value go through) per admitted tx, over the sim with
    no block due: on the validator a tx is submitted to, its signing digest
    and one size of the push for both peers; on a follower, the digest of the
    body it decoded.  Then over TCP, ``codec.encode_payload`` calls for
    ``p2p.push`` frames per fan-out to two peers: one, its bytes written to
    both."""
    kernel, network, nodes, txs = _three_validators(block_interval_s=3600.0)
    for node in nodes.values():
        node.start()
    kernel.run(until=1.0)  # hellos answered; the first ping is >= 2.5 s away
    encodes = []
    canonical_json = serialize.canonical_json
    monkeypatch.setattr(
        serialize, "canonical_json", lambda *args: encodes.append(1) or canonical_json(*args)
    )
    origin = follower = 0
    for tx in txs:
        del encodes[:]
        assert nodes["v0"].submit_tx(tx)
        origin += len(encodes)
        del encodes[:]

        def pooled(tx=tx):
            return all(tx.tx_id in node.mempool for node in nodes.values())

        kernel.run(until=kernel.now + 1.0, stop_when=pooled)
        assert pooled()
        follower += len(encodes)
    for node in nodes.values():
        node.stop()
    monkeypatch.undo()

    measured = {
        "canonical_encodes_per_admitted_tx_origin": origin / len(txs),
        "canonical_encodes_per_admitted_tx_follower": follower / (2 * len(txs)),
        "push_frame_encodes_per_fanout": _push_frame_encodes_per_fanout(monkeypatch),
    }
    _assert_within_pins("serialization", measured)


def _push_frame_encodes_per_fanout(monkeypatch):
    """Three validators over loopback TCP at fanout 2, 8 transfers submitted
    to ``v0``: push frames encoded per ``p2p.push`` fan-out (txs and blocks)."""
    world = build_world(NAMES, {"alice": 10**9}, block_interval_s=0.5)
    clock = WallClock()
    addrs = [f"127.0.0.1:{TCP_BASE_PORT + i}" for i in range(len(NAMES))]
    hosts = [
        P2PHost(
            name, addrs[i], *world,
            p2p_config=P2PConfig(seeds=[a for a in addrs if a != addrs[i]], fanout=2),
            seed=i, time_source=clock.now,
        )
        for i, name in enumerate(NAMES)
    ]
    frames, fanouts = [], []  # appended to from every host's loop thread
    encode_payload, notify = codec.encode_payload, RpcTransport.notify

    def counted_encode(payload):
        if isinstance(payload, dict) and payload.get("method") == "p2p.push":
            frames.append(1)
        return encode_payload(payload)

    def counted_notify(transport, peers, method, params):
        if method == "p2p.push":
            fanouts.append(len(peers))
        return notify(transport, peers, method, params)

    def on_host(host, fn):
        return host.pump.call(lambda: fn(host.node))

    alice = KeyPair.generate("alice")
    txs = [make_transfer(alice, "opcounts-dest", 1, nonce=nonce) for nonce in range(8)]
    for host in hosts:
        host.start()
    try:
        deadline = time.monotonic() + 15.0
        while not all(len(on_host(host, lambda node: node.p2p.peers.connected())) == 2
                      for host in hosts):
            assert time.monotonic() < deadline, "validators never interconnected"
            time.sleep(0.05)
        monkeypatch.setattr(codec, "encode_payload", counted_encode)
        monkeypatch.setattr(RpcTransport, "notify", counted_notify)
        for tx in txs:
            assert on_host(hosts[0], lambda node, tx=tx: node.submit_tx(tx))
        deadline = time.monotonic() + 30.0
        while not all(on_host(host, lambda node: node.receipt(txs[-1].tx_id)) for host in hosts):
            assert time.monotonic() < deadline, "the transfers never committed everywhere"
            time.sleep(0.05)
    finally:
        for host in hosts:
            host.stop()
    assert fanouts and set(fanouts) == {2}, fanouts
    return len(frames) / len(fanouts)


def test_gateway_work_per_query(monkeypatch):
    """Three data-only sites served over loopback TCP in this process, one
    ``TcpGateway`` in front.  Per warm ``aexecute`` of the E22 shapes: how
    often the vector is canonical-encoded (once: those bytes give the
    ``query_id`` and are spliced into every site's params), how often the
    ``query_id`` is worked out (once, handed to ``decompose``), how often a
    site's ``site.query`` params are canonical-encoded, with their vector or
    without it (once each: the bytes ``bytes_on_wire`` counts are the bytes
    sent), and the tasks and timers the fan-out costs the loop (none and
    one: the query's deadline).  Per pooled call on a live connection
    (``rpc.echo``, answered in the server's read callback): the
    ``asyncio.Lock`` acquisitions, tasks and timers it costs the loop.
    Then the frames: a query alone writes every site's request before it
    first awaits (none deferred), and four queries started in one turn while
    another is in flight share one ``site.query`` frame per site."""
    counts = {
        "vector_encodes": 0, "params_encodes": 0, "query_ids": 0, "locks": 0, "tasks": 0,
        "timers": 0,
    }
    canonical_json, query_id_of, acquire = (
        serialize.canonical_json, QueryVector.query_id_of, asyncio.Lock.acquire
    )

    def holds(value, *keys):
        return isinstance(value, dict) and (
            all(key in value for key in keys)
            or all(key in (value.get("params") or {}) for key in keys)
        )

    def counted_canonical_json(value, *args):
        if isinstance(value, QueryVector) or holds(value, "vector") or holds(value, "intent"):
            counts["vector_encodes"] += 1
        if holds(value, "dataset_ids", "task_id"):
            counts["params_encodes"] += 1
        return canonical_json(value, *args)

    def counted_query_id_of(encoded):
        counts["query_ids"] += 1
        return query_id_of(encoded)

    def counted_acquire(lock):
        counts["locks"] += 1
        return acquire(lock)

    def counting_factory(loop, coro, **kwargs):
        counts["tasks"] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def scenario():
        servers = {
            name: RpcServer(build_site_registry(build_site(name, 3, 150, 2026)), name=name)
            for name in ("hospital-0", "hospital-1", "hospital-2")
        }
        addresses = {name: await server.start() for name, server in servers.items()}
        gateway = TcpGateway(addresses, max_connections_per_site=2)
        loop = asyncio.get_running_loop()
        call_at = loop.call_at

        def counted_call_at(*args, **kwargs):
            counts["timers"] += 1
            return call_at(*args, **kwargs)

        try:
            for text in E22_SHAPES * 2:  # every pooled connection dialled
                await gateway.aexecute(parse_query(text))
            vectors = [parse_query(text) for text in E22_SHAPES * 4]
            monkeypatch.setattr(serialize, "canonical_json", counted_canonical_json)
            monkeypatch.setattr(QueryVector, "query_id_of", staticmethod(counted_query_id_of))
            loop.set_task_factory(counting_factory)
            loop.call_at = counted_call_at
            for vector in vectors:
                assert not (await gateway.aexecute(vector)).failed_sites
            del loop.call_at
            loop.set_task_factory(None)
            measured = {
                "vector_encodes_per_query": counts["vector_encodes"] / len(vectors),
                "site_query_params_encodes_per_query": counts["params_encodes"] / len(vectors),
                "query_id_evaluations_per_query": counts["query_ids"] / len(vectors),
                "tasks_per_query": counts["tasks"] / len(vectors),
                "timers_per_query": counts["timers"] / len(vectors),
            }
            counts["tasks"] = counts["timers"] = 0
            monkeypatch.setattr(asyncio.Lock, "acquire", counted_acquire)
            loop.set_task_factory(counting_factory)
            loop.call_at = counted_call_at
            calls = 40
            for _ in range(calls):
                await gateway.acall("hospital-0", "rpc.echo", {"payload": "x"})
            del loop.call_at
            loop.set_task_factory(None)
            measured.update(
                lock_acquisitions_per_pooled_call=counts["locks"] / calls,
                tasks_per_pooled_call=counts["tasks"] / calls,
                timers_per_pooled_call=counts["timers"] / calls,
            )
            frames = []
            send = gateway.send

            def counted_send(site, requests, futures=None):
                sent = send(site, requests, futures)
                if sent is not None:
                    frames.append(site)
                return sent

            gateway.send = counted_send
            deferred = 0
            for text in E22_SHAPES:
                frames.clear()
                query = asyncio.ensure_future(gateway.aexecute(parse_query(text)))
                await asyncio.sleep(0)  # the query runs up to its first await
                deferred += len(servers) - len(frames)
                await query
            rounds = 5
            shared = 0
            for _ in range(rounds):
                first = asyncio.ensure_future(gateway.aexecute(parse_query(E22_SHAPES[0])))
                await asyncio.sleep(0)  # in flight: its requests are out, its answers not
                frames.clear()
                await asyncio.gather(*(gateway.aexecute(v) for v in vectors[1:5]))
                shared += len(frames)
                await first
            measured.update(
                site_query_writes_deferred_per_lone_query=deferred / len(E22_SHAPES),
                site_query_frames_per_site_for_four_queries_in_one_turn=(
                    shared / rounds / len(servers)
                ),
            )
            return measured
        finally:
            monkeypatch.undo()
            await gateway.aclose()
            for server in servers.values():
                await server.close()

    _assert_within_pins("gateway", asyncio.run(scenario()))
