"""Blockchain node tests: gossip, consensus convergence, duplicated work."""

import dataclasses
import gc
import weakref

import pytest

from repro.chain.state import StateDB
from repro.chain.blocks import Block, build_block, make_genesis
from repro.chain.executor import ExecutionContext
from repro.chain.mempool import STALE_NONCE, MempoolConfig
from repro.chain.transactions import Transaction, make_deploy, make_call, make_transfer
from repro.common.errors import ValidationError
from repro.common.signatures import KeyPair
from repro.consensus.node import (
    MAX_REJECTED_BLOCKS,
    MAX_WAITING_BLOCKS,
    NodeConfig,
    make_network_nodes,
)
from repro.consensus.poa import ProofOfAuthority
from repro.consensus.pow import ProofOfWork
from repro.contracts.library import COUNTER_SOURCE
from repro.p2p.transport import SimTransport
from repro.p2p.wire import block_to_wire, tx_from_wire, tx_to_wire
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network


def build_network(
    n_nodes=3, consensus="poa", seed=0, funder=None, funders=(), config=None, start=True
):
    kernel = Kernel(seed=seed)
    metrics = MetricsRegistry()
    network = Network(kernel, metrics)
    state = StateDB()
    for keypair in ((funder,) if funder is not None else ()) + tuple(funders):
        state.credit(keypair.address, 10**9)
    genesis = make_genesis(state.state_root())
    names = [f"n{i}" for i in range(n_nodes)]
    if consensus == "poa":
        keypairs = {name: KeyPair.generate(name) for name in names}
        engine = ProofOfAuthority(names, keypairs, block_interval_s=0.5)
    else:
        engine = ProofOfWork(difficulty_bits=8, default_hash_rate=1e4)
    nodes = make_network_nodes(
        kernel, network, names, genesis, state, lambda: engine,
        metrics=metrics, config=config,
    )
    if start:
        for node in nodes.values():
            node.start()
    return kernel, network, metrics, nodes


def craft_block(node, proposer, parent, txs, timestamp_ms):
    """A validly sealed block on ``parent`` that ``node`` never proposed."""
    context = ExecutionContext(
        block_height=parent.height + 1,
        timestamp_ms=timestamp_ms,
        proposer=proposer,
        node_name=proposer,
    )
    state, _ = node._apply_block(node._executed[parent.block_id].state, txs, context)
    block = build_block(parent, txs, state.state_root(), proposer, timestamp_ms)
    return node.consensus.seal(proposer, block)


def commit(kernel, nodes, tx, timeout=120.0):
    deadline = kernel.now + timeout
    kernel.run(
        until=deadline,
        stop_when=lambda: all(n.receipt(tx.tx_id) for n in nodes.values()),
    )


def inject(network, targets, kind, item_id, wire):
    """A byzantine endpoint announces ``item_id`` to ``targets`` and serves
    ``wire`` as its body: announce, get_data, body — three hops."""
    mallory = SimTransport(network, "mallory")
    mallory.dispatch = lambda sender, method, params: {"kind": kind, "bodies": [wire]}
    for target in targets:
        mallory.request(
            target,
            "p2p.announce",
            {"from": "mallory", "kind": kind, "ids": [item_id]},
            on_result=lambda reply: None,
        )


class TestConvergence:
    def test_all_nodes_agree_on_state_root(self, alice):
        kernel, __, ___, nodes = build_network(4, funder=alice)
        tx = make_transfer(alice, "dest", 100, nonce=0)
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx)
        roots = {node.state.state_root() for node in nodes.values()}
        assert len(roots) == 1
        assert nodes["n3"].state.balance("dest") == 100

    def test_receipt_available_on_every_node(self, alice):
        kernel, __, ___, nodes = build_network(3, funder=alice)
        tx = make_transfer(alice, "dest", 1, nonce=0)
        nodes["n2"].submit_tx(tx)
        commit(kernel, nodes, tx)
        for node in nodes.values():
            receipt = node.receipt(tx.tx_id)
            assert receipt is not None and receipt.success

    def test_pow_network_converges(self, alice):
        kernel, __, ___, nodes = build_network(3, consensus="pow", funder=alice)
        tx = make_transfer(alice, "dest", 5, nonce=0)
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx, timeout=600.0)
        kernel.run(until=kernel.now + 30.0)  # drain in-flight blocks
        assert len({node.head.block_id for node in nodes.values()}) == 1

    def test_sequence_of_txs_applied_in_nonce_order(self, alice):
        kernel, __, ___, nodes = build_network(3, funder=alice)
        txs = [make_transfer(alice, "dest", 10, nonce=n) for n in range(5)]
        for tx in reversed(txs):  # submit out of order
            nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        assert nodes["n1"].state.balance("dest") == 50


class TestContractsOnChain:
    def test_deploy_and_call_across_nodes(self, alice):
        kernel, __, ___, nodes = build_network(3, funder=alice)
        deploy = make_deploy(alice, "counter", COUNTER_SOURCE, init={"start": 0}, nonce=0)
        nodes["n0"].submit_tx(deploy)
        commit(kernel, nodes, deploy)
        contract_id = nodes["n1"].receipt(deploy.tx_id).output
        call = make_call(alice, contract_id, "increment", {"by": 2}, nonce=1)
        nodes["n2"].submit_tx(call)
        commit(kernel, nodes, call)
        for node in nodes.values():
            assert node.call_view(contract_id, "get") == 2

    def test_malformed_payload_is_committed_as_failed_and_the_chain_keeps_sealing(self, alice):
        """A signed tx whose payload has the wrong shape must not raise in every proposer."""
        kernel, __, ___, nodes = build_network(3, funder=alice)
        bad = Transaction(
            sender=alice.address, nonce=0, kind="call", payload={"contract": 5}
        ).signed_by(alice)
        assert nodes["n0"].submit_tx(bad)
        commit(kernel, nodes, bad)
        for node in nodes.values():
            receipt = node.receipt(bad.tx_id)
            assert receipt is not None and not receipt.success
            assert receipt.error == "malformed call payload"
            assert bad.tx_id not in node.mempool
        height = nodes["n0"].head.height
        after = make_transfer(alice, "dest", 7, nonce=1)
        nodes["n1"].submit_tx(after)
        commit(kernel, nodes, after)
        assert all(node.receipt(after.tx_id).success for node in nodes.values())
        assert all(node.head.height > height for node in nodes.values())
        assert len({node.state.state_root() for node in nodes.values()}) == 1

    def test_events_reach_subscribers_on_every_node(self, alice):
        kernel, __, ___, nodes = build_network(3, funder=alice)
        seen = {name: [] for name in nodes}
        for name, node in nodes.items():
            node.subscribe_events(lambda e, n=name: seen[n].append(e.name))
        deploy = make_deploy(alice, "counter", COUNTER_SOURCE, nonce=0)
        nodes["n0"].submit_tx(deploy)
        commit(kernel, nodes, deploy)
        contract_id = nodes["n0"].receipt(deploy.tx_id).output
        call = make_call(alice, contract_id, "increment", nonce=1)
        nodes["n0"].submit_tx(call)
        commit(kernel, nodes, call)
        assert all(names == ["Incremented"] for names in seen.values())


class TestDuplicatedWork:
    def test_every_node_burns_the_same_gas(self, alice):
        """The paper's core complaint: contract gas is duplicated N times."""
        kernel, __, metrics, nodes = build_network(4, funder=alice)
        deploy = make_deploy(alice, "counter", COUNTER_SOURCE, nonce=0)
        nodes["n0"].submit_tx(deploy)
        commit(kernel, nodes, deploy)
        contract_id = nodes["n0"].receipt(deploy.tx_id).output
        call = make_call(alice, contract_id, "increment", nonce=1)
        nodes["n0"].submit_tx(call)
        commit(kernel, nodes, call)
        per_node = metrics.scopes("gas")
        assert len(per_node) == 4
        assert len(set(per_node.values())) == 1  # identical duplicated work
        assert metrics.counter_total("gas") == 4 * next(iter(per_node.values()))

    def test_pow_burns_hashes_on_losers_too(self, alice):
        kernel, __, metrics, nodes = build_network(3, consensus="pow", funder=alice)
        tx = make_transfer(alice, "d", 1, nonce=0)
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx, timeout=600.0)
        assert metrics.counter_total("hashes") > 0


class TestRobustness:
    def test_invalid_tx_not_propagated(self, alice):
        import dataclasses

        kernel, network, metrics, nodes = build_network(2, funder=alice)
        tx = make_transfer(alice, "d", 1, nonce=0)
        bad = dataclasses.replace(tx, payload={"to": "evil", "amount": 1})
        # the tampered tx is announced, fetched, and dies at validation
        inject(network, ["n1"], "tx", bad.tx_id, tx_to_wire(bad))
        kernel.run(until=5.0)
        assert metrics.counter("p2p_fetches", scope="n1") == 1
        assert len(nodes["n1"].mempool) == 0
        assert len(nodes["n0"].mempool) == 0

    def test_block_with_wrong_state_root_rejected_and_counted(self, alice):
        """A validly signed block whose header root has one bit flipped is
        rejected by every follower after re-execution, and the rejection
        is counted (it used to be a silent ``False``)."""
        kernel, network, metrics, nodes = build_network(3, funder=alice)
        byzantine = nodes["n1"]  # in turn at height 1
        tx = make_transfer(alice, "dest", 5, nonce=0)
        parent = byzantine.head
        context = ExecutionContext(
            block_height=1, timestamp_ms=500, proposer="n1", node_name="n1"
        )
        state, _ = byzantine._apply_block(byzantine.state, [tx], context)
        root = bytearray(state.state_root())
        root[0] ^= 1
        block = byzantine.consensus.seal(
            "n1", build_block(parent, [tx], bytes(root), "n1", 500)
        )
        inject(network, ["n0", "n2"], "block", block.block_id, block_to_wire(block))
        kernel.run(until=kernel.now + 0.4)  # three hops; no honest round has fired
        for name in ("n0", "n2"):
            assert metrics.counter("blocks_rejected_state_root", scope=name) == 1
        assert {node.head.block_id for node in nodes.values()} == {parent.block_id}
        # The same tx in an honest block still commits everywhere.
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx)
        assert len({node.head.block_id for node in nodes.values()}) == 1
        assert len({node.state.state_root() for node in nodes.values()}) == 1
        assert metrics.counter_total("blocks_rejected_state_root") == 2

    def test_lone_surrogate_payloads_never_reach_a_pool_or_a_block(self, alice):
        """Such a string survives JSON and the signing digest; executed, it
        raised ``UnicodeEncodeError`` out of ``state_root()`` (transfer
        target, storage key) or the contract compiler (deploy source) in the
        proposer and in every follower."""
        kernel, __, metrics, nodes = build_network(3, funder=alice)
        parent = nodes["n0"].head
        shapes = [
            make_transfer(alice, "\ud800", 1, nonce=0),
            make_call(alice, "c", "put", {"key": {"nested\udfff": 1}}, nonce=0),
            make_deploy(alice, "c", "def f():\n    return '\ud800'\n", nonce=0),
        ]
        for bad in shapes:
            assert tx_from_wire(tx_to_wire(bad)).tx_id == bad.tx_id
            with pytest.raises(ValidationError):
                nodes["n0"].submit_tx(bad)
            nodes["n1"].receive_tx(bad)
            block = nodes["n1"].consensus.seal(
                "n1", build_block(parent, [bad], parent.header.state_root, "n1", 500)
            )
            with pytest.raises(ValidationError):
                block.validate_structure()
            nodes["n2"].receive_block(block)
            assert nodes["n2"].has_block(block.block_id)
            assert block.block_id not in nodes["n2"].store
        kernel.run(until=kernel.now + 5.0)
        assert all(len(node.mempool) == 0 for node in nodes.values())
        assert all(node.head is parent for node in nodes.values())
        assert metrics.counter_total("p2p_announce_sent") == 0  # nothing relayed
        after = make_transfer(alice, "dest", 7, nonce=0)
        nodes["n1"].submit_tx(after)
        commit(kernel, nodes, after)
        assert all(node.receipt(after.tx_id).success for node in nodes.values())
        assert len({node.state.state_root() for node in nodes.values()}) == 1

    def test_partition_stalls_then_heals(self, alice):
        kernel, network, __, nodes = build_network(2, funder=alice)
        network.partition({"n0"}, {"n1"})
        tx = make_transfer(alice, "d", 1, nonce=0)
        nodes["n0"].submit_tx(tx)
        kernel.run(until=kernel.now + 10.0)
        # n1 is the proposer for some heights but never saw the tx
        assert nodes["n1"].receipt(tx.tx_id) is None
        network.heal()
        # the redial after the heal offers n0's pooled tx to n1 on connect
        commit(kernel, nodes, tx)
        assert nodes["n1"].receipt(tx.tx_id).success

    def test_node_config_block_size_respected(self, alice):
        kernel, __, ___, nodes = build_network(2, funder=alice)
        for node in nodes.values():
            node.config.max_txs_per_block = 2
        txs = [make_transfer(alice, "d", 1, nonce=n) for n in range(6)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        for block in nodes["n0"].store.canonical_chain():
            assert len(block.transactions) <= 2


class TestMempoolHygiene:
    def test_losing_same_nonce_tx_purged_everywhere_on_commit(self, alice):
        """Regression: the old FIFO pool leaked same-nonce losers forever.

        Two competing nonce-0 transactions enter the network at different
        nodes (RBF refuses the zero-fee cross-gossip, so each pool holds
        only its own).  Once either commits, every pool must be empty —
        the loser's nonce is stale and can never execute.
        """
        kernel, __, metrics, nodes = build_network(3, funder=alice)
        winner = make_transfer(alice, "dest", 10, nonce=0)
        loser = make_transfer(alice, "other", 10, nonce=0)
        nodes["n0"].submit_tx(winner)
        nodes["n1"].submit_tx(loser)
        kernel.run(
            until=kernel.now + 120.0,
            stop_when=lambda: all(
                n.receipt(winner.tx_id) or n.receipt(loser.tx_id)
                for n in nodes.values()
            ),
        )
        kernel.run(until=kernel.now + 5.0)  # let commits drain the pools
        for node in nodes.values():
            assert winner.tx_id not in node.mempool
            assert loser.tx_id not in node.mempool
            assert len(node.mempool) == 0
        assert metrics.counter_total("mempool_stale_purged") >= 1

    def test_stale_nonce_rejected_at_submission(self, alice):
        from repro.chain.mempool import STALE_NONCE

        kernel, __, ___, nodes = build_network(2, funder=alice)
        tx = make_transfer(alice, "dest", 1, nonce=0)
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx)
        replay = make_transfer(alice, "late", 1, nonce=0)
        result = nodes["n0"].submit_tx(replay)
        assert not result and result.code == STALE_NONCE
        assert replay.tx_id not in nodes["n0"].mempool

    def test_resubmitting_committed_tx_is_duplicate_noop(self, alice):
        from repro.chain.mempool import DUPLICATE

        kernel, __, ___, nodes = build_network(2, funder=alice)
        tx = make_transfer(alice, "dest", 1, nonce=0)
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx)
        again = nodes["n0"].submit_tx(tx)
        assert not again and again.code == DUPLICATE
        assert tx.tx_id not in nodes["n0"].mempool

    def test_tx_shed_under_overload_can_be_readmitted(self, alice, bob):
        """Regression: a transient POOL_FULL/RATE_LIMITED rejection used
        to blackhole the tx forever — submit_tx marked it seen before
        admission, so the retry its error message asked for came back as
        a 'duplicate' no-op, and peer re-announcements were dropped too.
        """
        from repro.chain.mempool import MempoolConfig, POOL_FULL
        from repro.consensus.node import NodeConfig

        kernel = Kernel(seed=7)
        metrics = MetricsRegistry()
        network = Network(kernel, metrics)
        state = StateDB()
        state.credit(alice.address, 10**9)
        state.credit(bob.address, 10**9)
        genesis = make_genesis(state.state_root())
        names = ["n0"]
        engine = ProofOfAuthority(
            names, {"n0": KeyPair.generate("n0")}, block_interval_s=0.5
        )
        nodes = make_network_nodes(
            kernel,
            network,
            names,
            genesis,
            state,
            lambda: engine,
            metrics=metrics,
            config=NodeConfig(
                mempool=MempoolConfig(
                    max_size=10, high_watermark=0.3, low_watermark=0.2
                )
            ),
        )
        node = nodes["n0"]
        for nonce in range(3):
            node.submit_tx(
                make_transfer(
                    bob, "sink", 1, nonce=nonce,
                    max_fee_per_gas=10, priority_fee_per_gas=10,
                )
            )
        assert node.mempool.shedding
        cheap = make_transfer(alice, "dest", 1, nonce=0)
        refused = node.submit_tx(cheap)
        assert not refused and refused.code == POOL_FULL
        # Pressure clears; both the local resubmit and the gossip path
        # must now give the same tx a fresh admission decision.
        node.mempool.remove_all(node.mempool.all_ids())
        assert not node.mempool.shedding
        node.receive_tx(cheap)  # peer re-announcement
        assert cheap.tx_id in node.mempool
        node.mempool.remove_all(node.mempool.all_ids())
        assert node.submit_tx(cheap)
        assert cheap.tx_id in node.mempool

    def test_rejected_tx_not_gossiped(self, alice):
        """Admission-gated gossip: a refused tx dies at the first hop."""
        from repro.chain.mempool import MempoolConfig
        from repro.consensus.node import NodeConfig

        kernel = Kernel(seed=3)
        metrics = MetricsRegistry()
        network = Network(kernel, metrics)
        state = StateDB()
        state.credit(alice.address, 10**9)
        genesis = make_genesis(state.state_root())
        names = ["n0", "n1"]
        keypairs = {name: KeyPair.generate(name) for name in names}
        engine = ProofOfAuthority(names, keypairs, block_interval_s=0.5)
        nodes = make_network_nodes(
            kernel,
            network,
            names,
            genesis,
            state,
            lambda: engine,
            metrics=metrics,
            config=NodeConfig(mempool=MempoolConfig(min_fee_per_gas=5)),
        )
        for node in nodes.values():
            node.start()
        free = make_transfer(alice, "dest", 1, nonce=0)
        result = nodes["n0"].submit_tx(free)
        assert not result
        kernel.run(until=5.0)
        assert free.tx_id not in nodes["n0"].mempool
        assert free.tx_id not in nodes["n1"].mempool
        paid = make_transfer(
            alice, "dest", 1, nonce=0, max_fee_per_gas=5, priority_fee_per_gas=5
        )
        assert nodes["n0"].submit_tx(paid)
        kernel.run(until=kernel.now + 5.0)
        assert paid.tx_id in nodes["n1"].mempool or nodes["n1"].receipt(paid.tx_id)


class TestStateRecovery:
    def _grow(self, kernel, nodes, alice, count, start_nonce=0, submit_to="n0"):
        for node in nodes.values():
            node.config.max_txs_per_block = 1  # one block per tx
        txs = [make_transfer(alice, "d", 1, nonce=start_nonce + n) for n in range(count)]
        for tx in txs:
            nodes[submit_to].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        return txs

    def test_recover_states_reexecutes_forward(self, alice):
        kernel, __, metrics, nodes = build_network(2, funder=alice)
        self._grow(kernel, nodes, alice, 3)
        node = nodes["n0"]
        chain = node.store.canonical_chain()
        assert len(chain) >= 3
        # Simulate a restart that lost every non-genesis state.
        for block in chain[1:]:
            node._executed.pop(block.block_id, None)
        assert node._recover_states(node.head.block_id)
        assert node.head.block_id in node._executed
        assert metrics.counter("states_recovered", scope="n0") >= len(chain) - 1
        # Recomputed state matches what consensus agreed on.
        assert (
            node._executed[node.head.block_id].state.state_root()
            == node.head.header.state_root
        )

    def test_recover_states_fails_below_retained_window(self, alice):
        kernel, __, ___, nodes = build_network(2, funder=alice)
        self._grow(kernel, nodes, alice, 3)
        node = nodes["n0"]
        for block in node.store.canonical_chain()[1:]:
            node._executed.pop(block.block_id, None)
        # A depth bound tighter than the gap must refuse, not loop.
        assert not node._recover_states(node.head.block_id, max_depth=1)

    def test_gossip_block_with_missing_parent_state_is_not_dropped(self, alice):
        """Regression: a block whose parent *block* is stored but whose
        parent *state* is gone used to be silently discarded."""
        kernel, network, metrics, nodes = build_network(3, funder=alice)
        self._grow(kernel, nodes, alice, 2)
        base_height = nodes["n0"].head.height
        network.partition({"n0", "n1"}, {"n2"})
        txs = [make_transfer(alice, "d", 1, nonce=2 + n) for n in range(2)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        kernel.run(
            until=kernel.now + 120.0,
            stop_when=lambda: all(
                nodes[n].receipt(txs[-1].tx_id) for n in ("n0", "n1")
            ),
        )
        assert nodes["n0"].head.height > base_height
        laggard = nodes["n2"]
        assert laggard.head.height == base_height
        # Lose the laggard's recent states while it keeps the blocks.
        for block in laggard.store.canonical_chain()[1:]:
            laggard._executed.pop(block.block_id, None)
        # Deliver the missed blocks directly (the partition stays up, so
        # this is the only path they can arrive by), oldest first.
        for block in nodes["n0"].store.canonical_chain()[base_height + 1 :]:
            laggard.receive_block(block)
        kernel.run(until=kernel.now + 5.0)
        assert laggard.head.block_id == nodes["n0"].head.block_id
        assert laggard.state.state_root() == nodes["n0"].state.state_root()
        assert metrics.counter("states_recovered", scope="n2") >= 1


class TestStatePruning:
    def test_state_retention_bounded_by_window(self, alice):
        kernel, __, metrics, nodes = build_network(3, funder=alice)
        for node in nodes.values():
            node.config.state_prune_window = 2
            node.config.max_txs_per_block = 1  # force one block per transfer
        txs = [make_transfer(alice, "dest", 1, nonce=n) for n in range(6)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        for node in nodes.values():
            height = node.store.height
            assert height > 4  # chain kept growing past the window
            # One record per block: window boundary + blocks inside the
            # window + fork tips — never the whole chain (3 x window here).
            fork_tips = len(node.store) - (height + 1)
            assert len(node._executed) <= node.config.state_prune_window + 1 + fork_tips
        assert metrics.counter("state_entries_pruned", scope="n0") > 0

    def test_pruned_states_are_released(self, alice):
        # Pruning is dropping the record: nothing retained refers back to a
        # pruned state, so it is garbage as soon as its record is gone.
        kernel, __, ___, nodes = build_network(2, funder=alice)
        node = nodes["n0"]
        for each in nodes.values():
            each.config.state_prune_window = 2
            each.config.max_txs_per_block = 1
        genesis_state = weakref.ref(node.state)
        txs = [make_transfer(alice, "dest", 1, nonce=n) for n in range(6)]
        for tx in txs:
            node.submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        gc.collect()
        assert genesis_state() is None
        assert node.state.balance("dest") == 6

    def test_pruned_node_still_converges_and_serves_receipts(self, alice):
        kernel, __, ___, nodes = build_network(3, funder=alice)
        for node in nodes.values():
            node.config.state_prune_window = 2
        txs = [make_transfer(alice, "dest", 10, nonce=n) for n in range(5)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        roots = {node.state.state_root() for node in nodes.values()}
        assert len(roots) == 1
        for node in nodes.values():
            assert node.state.balance("dest") == 50
            for tx in txs:
                assert node.receipt(tx.tx_id).success


class TestBoundedBookkeeping:
    """Every structure a peer's messages can grow has a bound (DESIGN.md §7)."""

    def test_waiting_buffer_drops_oldest_first(self):
        """... counts the drops, and accepts a dropped block when offered again."""
        __, ___, metrics, nodes = build_network(1, start=False)
        node = nodes["n0"]
        chain = [node.head]
        for i in range(MAX_WAITING_BLOCKS + 6):
            chain.append(build_block(chain[-1], [], chain[-1].header.state_root, "x", i))
        parentless = chain[2:]  # chain[1], the link to genesis, never arrives
        for block in parentless:
            node.receive_block(block)
        assert len(node._waiting) == MAX_WAITING_BLOCKS
        assert metrics.counter("blocks_waiting_dropped", scope="n0") == 5
        assert metrics.counter("blocks_waiting_parent", scope="n0") == len(parentless)
        assert [node.has_block(b.block_id) for b in parentless[:6]] == [False] * 5 + [True]
        assert len(node.store) == 1
        node.receive_block(parentless[0])  # not remembered as seen: accepted again
        assert node.has_block(parentless[0].block_id)
        assert len(node._waiting) == MAX_WAITING_BLOCKS
        node.receive_block(parentless[0])  # while it waits, a repeat is ignored
        assert metrics.counter("blocks_waiting_parent", scope="n0") == len(parentless) + 1

    def test_full_buffer_is_adopted_when_the_link_lands(self, alice):
        """Newest first, so each waits for the next; adoption must not recurse
        once per block (the buffer is deeper than the interpreter's stack)."""
        __, ___, metrics, nodes = build_network(2, funder=alice, start=False)
        node = nodes["n0"]
        link = craft_block(node, "n1", node.head, [make_transfer(alice, "d", 1, nonce=0)], 500)
        chain = [link]
        for i in range(MAX_WAITING_BLOCKS):  # empty blocks: the root stays the parent's
            parent = chain[-1]
            chain.append(
                node.consensus.seal(
                    "n0", build_block(parent, [], parent.header.state_root, "n0", 1000 + i)
                )
            )
        for block in reversed(chain[1:]):
            node.receive_block(block)
        assert len(node._waiting) == MAX_WAITING_BLOCKS and len(node.store) == 1
        node.receive_block(link)
        assert not node._waiting
        assert node.head is chain[-1]
        assert metrics.counter("blocks_waiting_dropped", scope="n0") == 0

    def test_refused_block_is_remembered_and_the_memory_is_bounded(self):
        __, ___, metrics, nodes = build_network(1, start=False)
        node = nodes["n0"]
        template = build_block(node.head, [], node.head.header.state_root, "x", 0)
        refused = [
            Block(dataclasses.replace(template.header, tx_root=b"\x01" * 32, timestamp_ms=i))
            for i in range(MAX_REJECTED_BLOCKS + 10)
        ]
        for block in refused:
            node.receive_block(block)
            assert len(node._rejected) <= MAX_REJECTED_BLOCKS
        assert len(node._rejected) == MAX_REJECTED_BLOCKS
        assert len(node.store) == 1 and not node._waiting
        assert len(node._executed) == 1
        assert node.has_block(refused[-1].block_id)
        assert not node.has_block(refused[0].block_id)  # forgotten, oldest first

    def test_refused_block_is_not_fetched_twice(self, alice):
        kernel, network, metrics, nodes = build_network(2, funder=alice)
        node = nodes["n0"]
        good = craft_block(node, "n1", node.head, [make_transfer(alice, "d", 1, nonce=0)], 500)
        root = bytearray(good.header.state_root)
        root[0] ^= 1
        bad = node.consensus.seal(
            "n1", build_block(node.head, good.transactions, bytes(root), "n1", 500)
        )
        for __ in range(2):
            inject(network, ["n0"], "block", bad.block_id, block_to_wire(bad))
            kernel.run(until=kernel.now + 0.4)
            network.unregister("mallory")
        assert metrics.counter("blocks_rejected_state_root", scope="n0") == 1
        assert metrics.counter("p2p_fetches", scope="n0") == 1
        assert node.has_block(bad.block_id) and bad.block_id not in node.store

    def test_submit_times_are_dropped_at_commit(self, alice):
        kernel, __, metrics, nodes = build_network(3, funder=alice)
        txs = [make_transfer(alice, "dest", 1, nonce=n) for n in range(4)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        assert len(nodes["n0"]._tx_submit_times) == 4
        commit(kernel, nodes, txs[-1], timeout=300.0)
        assert all(not node._tx_submit_times for node in nodes.values())
        assert metrics.counter("txs_committed", scope="n0") == 4

    def test_submit_times_never_outnumber_the_pool(self):
        senders = [KeyPair.generate(f"sender-{i}") for i in range(7)]
        __, ___, ____, nodes = build_network(
            1,
            funders=senders,
            config=NodeConfig(mempool=MempoolConfig(max_size=4)),
            start=False,
        )
        node = nodes["n0"]
        for fee, sender in enumerate(senders, start=1):  # each outbids the cheapest
            assert node.submit_tx(
                make_transfer(sender, "d", 1, nonce=0, max_fee_per_gas=fee, priority_fee_per_gas=fee)
            )
            assert len(node._tx_submit_times) <= node.mempool.max_size
        assert len(node._tx_submit_times) == len(node.mempool) == 4


class TestReorg:
    """The node follows the store's canonical diff (DESIGN.md §7, block index)."""

    def _partition_and_heal(self, alice, bob, carol):
        """``n0`` builds two blocks alone while ``n1``/``n2`` build four; heal;
        stop the moment ``n0`` has reorged onto the majority branch."""
        kernel, network, metrics, nodes = build_network(
            3, funders=(alice, bob, carol), config=NodeConfig(max_txs_per_block=1)
        )
        kernel.run(until=2.0)
        network.partition({"n0"}, {"n1", "n2"})
        lonely = make_transfer(alice, "dest", 7, nonce=0)  # minority side only
        shared = make_transfer(carol, "dest", 1, nonce=0)  # both sides
        majority = [make_transfer(bob, "dest", 1, nonce=n) for n in range(3)]
        nodes["n0"].submit_tx(shared)
        nodes["n0"].submit_tx(lonely)
        nodes["n1"].submit_tx(shared)
        for tx in majority:
            nodes["n1"].submit_tx(tx)
        kernel.run(until=kernel.now + 60.0)
        n0 = nodes["n0"]
        assert n0.head.height == 2 and nodes["n1"].head.height == 4
        assert n0.receipt(lonely.tx_id).success and nodes["n1"].receipt(lonely.tx_id) is None
        minority_receipt = n0.receipt(shared.tx_id)
        assert minority_receipt.success
        network.heal()
        kernel.run(
            until=kernel.now + 60.0,
            stop_when=lambda: n0.head.block_id == nodes["n1"].head.block_id,
        )
        assert n0.head.height == 4  # a two-deep reorg: two blocks out, four in
        return kernel, metrics, nodes, lonely, shared, minority_receipt

    def test_reorged_out_tx_is_pooled_again_and_commits_on_the_winner(self, alice, bob):
        carol = KeyPair.generate("carol")
        kernel, metrics, nodes, lonely, *__ = self._partition_and_heal(alice, bob, carol)
        n0 = nodes["n0"]
        # Right after the reorg: no receipt for a tx that is on no chain,
        # and the tx is back in the pool instead of lost.
        assert n0.receipt(lonely.tx_id) is None
        assert lonely.tx_id in n0.mempool
        assert metrics.counter("txs_readmitted", scope="n0") == 1
        commit(kernel, nodes, lonely)
        kernel.run(until=kernel.now + 5.0)
        assert all(node.receipt(lonely.tx_id).success for node in nodes.values())
        assert len({node.head.block_id for node in nodes.values()}) == 1
        assert len({node.state.state_root() for node in nodes.values()}) == 1
        assert all(len(node.mempool) == 0 for node in nodes.values())
        assert nodes["n2"].state.balance("dest") == 7 + 1 + 3
        for node in nodes.values():  # receipts answer for the canonical chain only
            on_chain = {
                tx.tx_id for block in node.store.canonical_chain() for tx in block.transactions
            }
            assert set(node._receipts_by_tx) == on_chain

    def test_tx_on_both_branches_keeps_the_winners_receipt_and_is_not_readmitted(
        self, alice, bob
    ):
        carol = KeyPair.generate("carol")
        __, metrics, nodes, ___, shared, minority_receipt = self._partition_and_heal(
            alice, bob, carol
        )
        n0 = nodes["n0"]
        receipt = n0.receipt(shared.tx_id)
        assert receipt.success and receipt is not minority_receipt
        carrier = next(
            block for block in n0.store.canonical_chain() if shared in block.transactions
        )
        assert any(receipt is r for r in n0._executed[carrier.block_id].receipts)
        assert shared.tx_id not in n0.mempool
        assert metrics.counter_total("txs_readmitted") == 1  # the minority-only tx

    def test_a_branch_that_forked_below_the_prune_window_can_still_win(self):
        """Its tip's state is inside the window, so it validates; the records
        of its pruned blocks are gone, and following it must not need them."""
        __, ___, ____, nodes = build_network(
            2, config=NodeConfig(state_prune_window=2), start=False
        )
        node = nodes["n0"]
        root = node.head.header.state_root  # empty blocks: the root never moves

        def extend(parent, salt):
            return node.consensus.seal("n1", build_block(parent, [], root, "n1", salt))

        a, b = [node.head], [node.head]
        for height in range(1, 5):
            a.append(extend(a[-1], 100 + height))
        for height in range(1, 6):
            b.append(extend(b[-1], 200 + height))
        for block in (a[1], b[1], a[2], b[2], a[3], b[3], a[4]):  # b stays one behind
            node.receive_block(block)
        assert node.head is a[4]
        assert b[1].block_id not in node._executed and b[3].block_id in node._executed
        node.receive_block(b[4])
        node.receive_block(b[5])
        assert node.head is b[5]
        assert node.store.canonical_chain() == b

    def test_events_of_a_block_that_rejoins_the_chain_are_emitted_once(self, alice):
        __, ___, metrics, nodes = build_network(3, funder=alice, start=False)
        node = nodes["n0"]
        seen = []
        node.subscribe_events(lambda event: seen.append(event.data["count"]))
        deploy = make_deploy(alice, "counter", COUNTER_SOURCE, nonce=0)
        base = craft_block(node, "n1", node.head, [deploy], 500)
        node.receive_block(base)
        contract_id = node.receipt(deploy.tx_id).output
        calls = [
            make_call(alice, contract_id, "increment", {"by": by}, nonce=1) for by in (10, 20)
        ]
        # Two blocks at one height: ``a`` arrives first, ``b`` wins the tie.
        b, a = sorted(
            (craft_block(node, "n2", base, [call], 1000) for call in calls),
            key=lambda block: block.block_id,
        )
        (tx_a,), (tx_b,) = a.transactions, b.transactions
        node.receive_block(a)
        assert node.head is a and len(seen) == 1
        node.receive_block(b)
        assert node.head is b and len(seen) == 2
        assert node.receipt(tx_a.tx_id) is None and node.receipt(tx_b.tx_id).success
        # ``tx_a`` went back through admission, which refused it by type:
        # on ``b``'s state the sender's nonce has moved past it.
        assert tx_a.tx_id not in node.mempool
        assert metrics.counter("txs_readmitted", scope="n0") == 0
        assert metrics.counter("mempool_rejected_stale_nonce", scope="n0") == 1
        child = craft_block(
            node, "n0", a, [make_call(alice, contract_id, "increment", {"by": 1}, nonce=2)], 1500
        )
        node.receive_block(child)  # ``a`` is canonical again, under its child
        assert node.head is child
        assert node.store.canonical_chain()[1:] == [base, a, child]
        assert len(seen) == 3 and len(node.events) == 3
        assert sorted(seen[:2]) == [10, 20] and seen[2] == seen[0] + 1
        assert node.receipt(tx_a.tx_id).success and node.receipt(tx_b.tx_id) is None
        assert node.submit_tx(tx_b).code == STALE_NONCE  # not "already committed"
