"""Optimistic parallel block scheduler tests (`repro.chain.scheduler`).

The contract under test: whatever the backend, conflict pattern, or
derivation precision, `BlockScheduler.execute_block` produces a state root
and receipt list bit-identical to the serial fork-and-apply loop.
"""

import pytest

from repro.chain import scheduler as scheduler_mod
from repro.chain.executor import ExecutionContext, Receipt
from repro.chain.scheduler import (
    BlockScheduler,
    TxAccess,
    _build_snapshot,
    _covered,
    _OrderingViolation,
    _SpecOutcome,
    _wave_conflict,
    derive_tx_access,
    plan_waves,
)
from repro.chain.state import StateDB
from repro.chain.transactions import make_call, make_deploy, make_transfer
from repro.common.hashing import hash_value
from repro.common.signatures import KeyPair
from repro.contracts.library import COUNTER_SOURCE
from repro.contracts.runtime import ContractExecutor

# Per-user balance slots: calls touching different users are statically
# disjoint, which is what gives the scheduler parallelism to find.
LEDGER_SOURCE = '''
def credit(user, amount):
    bal = storage_get("bal/" + user, 0)
    storage_set("bal/" + user, bal + amount)
    return bal + amount

def move(src, dst, amount):
    a = storage_get("bal/" + src, 0)
    require(a >= amount, "insufficient")
    storage_set("bal/" + src, a - amount)
    storage_set("bal/" + dst, storage_get("bal/" + dst, 0) + amount)
    return True

def get(user):
    return storage_get("bal/" + user, 0)

def audit():
    return storage_keys("bal/")
'''

CTX = ExecutionContext(block_height=7, timestamp_ms=1234, node_name="test")

SENDERS = [KeyPair.generate(f"sched-sender-{i}") for i in range(16)]


@pytest.fixture()
def ledger():
    """(base_state, contract_id): funded senders + a deployed ledger."""
    state = StateDB()
    for keypair in SENDERS:
        state.credit(keypair.address, 1_000_000)
    deployer = KeyPair.generate("sched-deployer")
    state.credit(deployer.address, 1_000_000)
    receipt = ContractExecutor().apply(
        state, make_deploy(deployer, "ledger", LEDGER_SOURCE, nonce=0), CTX
    )
    assert receipt.success, receipt.error
    return state, receipt.output


def serial_reference(base_state, transactions):
    """Root + receipts from the plain serial loop (the ground truth)."""
    overlay = base_state.fork()
    executor = ContractExecutor()
    receipts = [executor.apply(overlay, tx, CTX) for tx in transactions]
    root = overlay.state_root()
    return root, receipts


def run_scheduled(base_state, transactions, **kwargs):
    with BlockScheduler(ContractExecutor(), **kwargs) as scheduler:
        overlay, receipts = scheduler.execute_block(
            base_state, transactions, CTX
        )
        root = overlay.state_root()
        stats = dict(scheduler.stats)
    return root, receipts, stats


def mixed_block(contract_id):
    """~20 txs: disjoint credits, a hot-key pile-up, transfers, a chain."""
    txs = [
        make_call(
            SENDERS[i], contract_id, "credit", {"user": f"u{i}", "amount": i + 1},
            nonce=0,
        )
        for i in range(8)
    ]
    txs += [
        make_call(
            SENDERS[i], contract_id, "credit", {"user": "hot", "amount": 5},
            nonce=1,
        )
        for i in range(8, 12)
    ]
    txs.append(make_transfer(SENDERS[12], SENDERS[13].address, 50, nonce=0))
    txs += [
        make_call(
            SENDERS[14], contract_id, "move",
            {"src": "u1", "dst": "u2", "amount": 1}, nonce=n,
        )
        for n in range(3)
    ]
    txs.append(make_call(SENDERS[15], contract_id, "audit", nonce=0))
    return txs


class TestDeriveTxAccess:
    def test_transfer_footprint(self, ledger):
        state, _ = ledger
        tx = make_transfer(SENDERS[0], SENDERS[1].address, 5, nonce=0)
        access = derive_tx_access(state, tx)
        expected = frozenset(
            {f"acct/{SENDERS[0].address}", f"acct/{SENDERS[1].address}"}
        )
        assert access.reads == expected
        assert access.writes == expected
        assert not access.unknown

    def test_call_footprint_resolved(self, ledger):
        state, cid = ledger
        tx = make_call(
            SENDERS[0], cid, "credit", {"user": "ann", "amount": 3}, nonce=0
        )
        access = derive_tx_access(state, tx)
        assert not access.unknown
        assert f"contract/{cid}/s/bal/ann" in access.reads
        assert f"contract/{cid}/s/bal/ann" in access.writes
        assert f"acct/{SENDERS[0].address}" in access.writes
        assert f"contract/{cid}/__meta__" in access.reads

    def test_prefix_scan_footprint(self, ledger):
        state, cid = ledger
        tx = make_call(SENDERS[0], cid, "audit", nonce=0)
        access = derive_tx_access(state, tx)
        assert access.read_prefixes == frozenset({f"contract/{cid}/s/bal/"})

    def test_deploy_is_unknown(self, ledger):
        state, _ = ledger
        tx = make_deploy(SENDERS[0], "counter", COUNTER_SOURCE, nonce=0)
        assert derive_tx_access(state, tx).unknown

    def test_unresolvable_args_are_unknown(self, ledger):
        state, cid = ledger
        tx = make_call(
            SENDERS[0], cid, "credit", {"user": ["list"], "amount": 1}, nonce=0
        )
        assert derive_tx_access(state, tx).unknown

    def test_missing_contract_minimal_footprint(self, ledger):
        state, _ = ledger
        tx = make_call(SENDERS[0], "00" * 20, "get", nonce=0)
        access = derive_tx_access(state, tx)
        assert not access.unknown
        assert access.writes == frozenset({f"acct/{SENDERS[0].address}"})

    def test_missing_contract_after_barrier_is_unknown(self, ledger):
        # A deploy earlier in the block may create the contract mid-block.
        state, _ = ledger
        tx = make_call(SENDERS[0], "00" * 20, "get", nonce=0)
        assert derive_tx_access(state, tx, contract_may_appear=True).unknown

    def test_missing_method_minimal_footprint(self, ledger):
        state, cid = ledger
        tx = make_call(SENDERS[0], cid, "nope", nonce=0)
        access = derive_tx_access(state, tx)
        assert not access.unknown
        assert access.writes == frozenset({f"acct/{SENDERS[0].address}"})


class TestPlanWaves:
    def access(self, reads=(), writes=(), prefixes=(), unknown=False):
        return TxAccess(
            reads=frozenset(reads),
            writes=frozenset(writes),
            read_prefixes=frozenset(prefixes),
            unknown=unknown,
        )

    def test_disjoint_txs_share_a_wave(self):
        accesses = [
            self.access(reads={f"k{i}"}, writes={f"k{i}"}) for i in range(5)
        ]
        assert plan_waves(accesses) == [[0, 1, 2, 3, 4]]

    def test_same_sender_chain_serializes(self):
        # Every tx reads+writes its sender's account key, so nonce chains
        # levelize into one wave per tx.
        key = "acct/a"
        accesses = [self.access(reads={key}, writes={key}) for _ in range(3)]
        assert plan_waves(accesses) == [[0], [1], [2]]

    def test_write_write_overlap_serializes(self):
        accesses = [
            self.access(writes={"k"}),
            self.access(writes={"k"}),
            self.access(writes={"other"}),
        ]
        assert plan_waves(accesses) == [[0, 2], [1]]

    def test_read_after_write_serializes(self):
        accesses = [self.access(writes={"k"}), self.access(reads={"k"})]
        assert plan_waves(accesses) == [[0], [1]]

    def test_write_after_read_serializes(self):
        accesses = [self.access(reads={"k"}), self.access(writes={"k"})]
        assert plan_waves(accesses) == [[0], [1]]

    def test_read_read_overlap_is_parallel(self):
        accesses = [self.access(reads={"k"}), self.access(reads={"k"})]
        assert plan_waves(accesses) == [[0, 1]]

    def test_unknown_is_singleton_barrier(self):
        accesses = [
            self.access(writes={"a"}),
            self.access(unknown=True),
            self.access(writes={"b"}),
        ]
        assert plan_waves(accesses) == [[0], [1], [2]]

    def test_prefix_scan_serializes_against_writes_both_directions(self):
        scan_then_write = [
            self.access(prefixes={"bal/"}),
            self.access(writes={"bal/x"}),
        ]
        write_then_scan = [
            self.access(writes={"bal/x"}),
            self.access(prefixes={"bal/"}),
        ]
        assert plan_waves(scan_then_write) == [[0], [1]]
        assert plan_waves(write_then_scan) == [[0], [1]]

    def test_empty_block(self):
        assert plan_waves([]) == []


class TestEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_mixed_block_bit_identical(self, ledger, backend):
        state, cid = ledger
        txs = mixed_block(cid)
        serial_root, serial_receipts = serial_reference(state, txs)
        root, receipts, stats = run_scheduled(state, txs, backend=backend)
        assert root == serial_root
        assert receipts == serial_receipts
        assert stats["txs_parallel_committed"] > 0
        assert stats["block_aborts"] == 0

    def test_process_backend_bit_identical(self, ledger):
        state, cid = ledger
        txs = [
            make_call(
                SENDERS[i], cid, "credit",
                {"user": f"u{i}", "amount": 2}, nonce=0,
            )
            for i in range(6)
        ]
        serial_root, serial_receipts = serial_reference(state, txs)
        root, receipts, stats = run_scheduled(
            state, txs, backend="process", max_workers=2
        )
        assert root == serial_root
        assert receipts == serial_receipts
        assert stats["txs_parallel_committed"] == 6

    def test_conflict_heavy_block_bit_identical(self, ledger):
        # 100% write-write conflicts: every tx hits the same slot.
        state, cid = ledger
        txs = [
            make_call(
                SENDERS[i], cid, "credit", {"user": "hot", "amount": 1},
                nonce=0,
            )
            for i in range(8)
        ]
        serial_root, serial_receipts = serial_reference(state, txs)
        root, receipts, stats = run_scheduled(state, txs, backend="thread")
        assert root == serial_root
        assert receipts == serial_receipts
        # Levelization serializes the pile-up outright: one wave per tx.
        assert stats["waves"] == 8

    def test_deploy_then_call_same_block(self, ledger):
        state, _ = ledger
        deployer = SENDERS[7]
        deploy = make_deploy(deployer, "counter", COUNTER_SOURCE, nonce=0)
        new_cid = ContractExecutor().apply(
            state.fork(), deploy, CTX
        ).output  # throwaway fork: cid depends only on sender/nonce/name
        txs = [
            make_call(SENDERS[0], SENDERS[1].address[:40], "get", nonce=0),
            deploy,
            make_call(deployer, new_cid, "increment", {"by": 2}, nonce=1),
            make_call(SENDERS[2], new_cid, "get", nonce=0),
        ]
        serial_root, serial_receipts = serial_reference(state, txs)
        root, receipts, stats = run_scheduled(state, txs, backend="thread")
        assert root == serial_root
        assert receipts == serial_receipts
        assert receipts[2].success and receipts[2].output == 2
        # deploy + the two post-barrier calls to a then-unknown contract
        assert stats["unknown_txs"] == 3

    def test_failed_txs_equivalent(self, ledger):
        state, cid = ledger
        txs = [
            make_call(
                SENDERS[0], cid, "move",
                {"src": "nobody", "dst": "x", "amount": 10}, nonce=0,
            ),
            make_transfer(SENDERS[1], SENDERS[2].address, 10**12, nonce=0),
            make_call(SENDERS[2], cid, "credit", {"user": "y", "amount": 1},
                      nonce=5),  # bad nonce
            make_call(SENDERS[3], cid, "credit", {"user": "y", "amount": 1},
                      nonce=0),
        ]
        serial_root, serial_receipts = serial_reference(state, txs)
        root, receipts, _ = run_scheduled(state, txs, backend="thread")
        assert root == serial_root
        assert receipts == serial_receipts
        assert not receipts[0].success
        assert not receipts[1].success
        assert not receipts[2].success

    def test_empty_block(self, ledger):
        state, _ = ledger
        root, receipts, _ = run_scheduled(state, [], backend="thread")
        assert receipts == []
        assert root == state.state_root()

    def test_golden_root_pinned(self, ledger):
        """Deterministic fixture -> pinned root: any drift in scheduler,
        state layer, or contract VM semantics shows up here."""
        state, cid = ledger
        txs = mixed_block(cid)
        root, _, __ = run_scheduled(state, txs, backend="thread")
        serial_root, _ = serial_reference(state, txs)
        assert root.hex() == serial_root.hex() == GOLDEN_MIXED_BLOCK_ROOT

    def test_golden_block_content_pinned(self, ledger):
        """GOLDEN_MIXED_BLOCK_ROOT's value before the Merkle-trie commitment
        was the SHA-256 of the post-block state's canonical JSON; it still
        pins that content, so the re-pin moved the commitment and nothing
        the scheduler, the state layer or the VM computes."""
        state, cid = ledger
        with BlockScheduler(ContractExecutor(), backend="thread") as scheduler:
            overlay, _ = scheduler.execute_block(state, mixed_block(cid), CTX)
            content = hash_value(overlay.to_dict(), allow_float=False)
        assert content.hex() == LEGACY_MIXED_BLOCK_CONTENT_DIGEST


class TestOrderingBackstop:
    def test_unsound_derivation_aborts_to_serial(self, ledger, monkeypatch):
        """Even if the static deriver under-approximates (a bug), the
        commit-time ordering cross-check catches it and the block reruns
        serially — bit-identical root, block_aborts incremented."""
        state, cid = ledger
        txs = [
            make_call(SENDERS[i], cid, "credit", {"user": "shared",
                      "amount": 10 + i}, nonce=0)
            for i in range(3)
        ]
        fake = {
            0: TxAccess(reads=frozenset({"x"}), writes=frozenset({"x"})),
            1: TxAccess(reads=frozenset({"x"}), writes=frozenset({"x"})),
            2: TxAccess(reads=frozenset({"z"}), writes=frozenset({"z"})),
        }
        by_id = {tx.tx_id: fake[i] for i, tx in enumerate(txs)}
        monkeypatch.setattr(
            scheduler_mod,
            "derive_tx_access",
            lambda _state, tx, *a, **k: by_id[tx.tx_id],
        )
        # Fake plan: wave1 = [0, 2], wave2 = [1]; tx2 commits the shared
        # balance before tx1 reads it => cross-wave ordering violation.
        serial_root, serial_receipts = serial_reference(state, txs)
        root, receipts, stats = run_scheduled(state, txs, backend="thread")
        assert root == serial_root
        assert receipts == serial_receipts
        assert stats["block_aborts"] == 1


class TestValidationUnits:
    def outcome(self, reads=(), prefixes=(), writes=None, deletes=()):
        return _SpecOutcome(
            receipt=Receipt(tx_id="t", success=True),
            writes=writes or {},
            deletes=list(deletes),
            observed_reads=set(reads),
            observed_prefixes=set(prefixes),
        )

    def test_wave_conflict_on_read_of_committed_write(self):
        assert _wave_conflict(self.outcome(reads={"k"}), {"k"})
        assert not _wave_conflict(self.outcome(reads={"k"}), {"other"})
        assert not _wave_conflict(self.outcome(reads={"k"}), set())

    def test_wave_conflict_on_prefix_scan(self):
        assert _wave_conflict(self.outcome(prefixes={"bal/"}), {"bal/x"})
        assert not _wave_conflict(self.outcome(prefixes={"bal/"}), {"acct/x"})

    def test_check_ordering_raises_on_later_writer(self):
        with pytest.raises(_OrderingViolation):
            BlockScheduler._check_ordering(
                1, self.outcome(reads={"k"}), {"k": 5}
            )
        with pytest.raises(_OrderingViolation):
            BlockScheduler._check_ordering(
                1, self.outcome(writes={"k": 1}), {"k": 5}
            )
        with pytest.raises(_OrderingViolation):
            BlockScheduler._check_ordering(
                1, self.outcome(prefixes={"ba"}), {"bal": 5}
            )

    def test_check_ordering_accepts_earlier_writer(self):
        BlockScheduler._check_ordering(5, self.outcome(reads={"k"}), {"k": 1})
        BlockScheduler._check_ordering(5, self.outcome(reads={"k"}), {})

    def test_covered_uses_universe_not_snapshot(self):
        # A key in the universe but absent from state is still covered:
        # the worker correctly saw "no value".
        outcome = self.outcome(reads={"present", "absent"})
        assert _covered(outcome, frozenset({"present", "absent"}), frozenset())
        assert not _covered(outcome, frozenset({"present"}), frozenset())

    def test_covered_by_prefix(self):
        outcome = self.outcome(reads={"bal/x"}, prefixes={"bal/"})
        assert _covered(outcome, frozenset(), frozenset({"bal/"}))
        assert not _covered(outcome, frozenset(), frozenset({"acct/"}))

    def test_build_snapshot_universe_and_prefix_expansion(self):
        state = StateDB({"bal/a": 1, "bal/b": 2, "other": 3})
        access = TxAccess(
            reads=frozenset({"bal/a", "missing"}),
            writes=frozenset({"out"}),
            read_prefixes=frozenset({"bal/"}),
        )
        snapshot, universe = _build_snapshot(state, access)
        assert snapshot == {"bal/a": 1, "bal/b": 2}
        assert universe == {"bal/a", "bal/b", "missing", "out"}


GOLDEN_MIXED_BLOCK_ROOT = (
    "4f47865c501c1acf2801e2f865620ccc61eb58b50479ad94d28396a23915da2e"
)
LEGACY_MIXED_BLOCK_CONTENT_DIGEST = (
    "dad15fd3f31da10abb6b76885de34e9909d32955e199659deee46bb22c427ccb"
)
