"""Mempool selection and transfer-execution tests."""


from repro.chain.executor import BASE_TX_GAS, ExecutionContext
from repro.chain.mempool import (
    ACCEPTED,
    DUPLICATE,
    POOL_FULL,
    REPLACED,
    Mempool,
    MempoolConfig,
)
from repro.chain.state import StateDB
from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.contracts.runtime import ContractExecutor


def _paid(keypair, nonce, fee, amount=1):
    """A transfer bidding ``fee`` per gas (max == priority, base fee 0)."""
    return make_transfer(
        keypair,
        "r",
        amount,
        nonce=nonce,
        max_fee_per_gas=fee,
        priority_fee_per_gas=fee,
    )


class TestMempool:
    def test_add_and_contains(self, alice):
        pool = Mempool()
        tx = make_transfer(alice, "r", 1, nonce=0)
        result = pool.add(tx)
        assert result and result.code == ACCEPTED
        assert tx.tx_id in pool
        assert len(pool) == 1

    def test_duplicates_rejected(self, alice):
        pool = Mempool()
        tx = make_transfer(alice, "r", 1, nonce=0)
        pool.add(tx)
        result = pool.add(tx)
        assert not result
        assert result.code == DUPLICATE

    def test_capacity_never_exceeded(self, alice, bob):
        carol = KeyPair.generate("carol")
        config = MempoolConfig(max_size=2, high_watermark=1.0, low_watermark=0.5)
        pool = Mempool(config=config)
        pool.add(_paid(alice, 0, fee=5))
        pool.add(_paid(bob, 0, fee=3))
        # An outbidding third sender evicts the cheapest resident...
        result = pool.add(_paid(carol, 0, fee=9))
        assert result and result.code == ACCEPTED
        assert len(pool) == 2
        # ...while a bid at-or-below the cheapest resident is refused.
        refused = pool.add(_paid(bob, 1, fee=5))
        assert not refused
        assert refused.code == POOL_FULL
        assert refused.fee_floor == 6  # one above the cheapest resident fee
        assert len(pool) == 2

    def test_replacement_requires_fee_bump(self, alice):
        pool = Mempool()
        pool.add(_paid(alice, 0, fee=10))
        # Same sender+nonce at an insufficient bump is underpriced...
        weak = pool.add(_paid(alice, 0, fee=10, amount=2))
        assert not weak
        # ...but a >=10% bump replaces the original in place.
        strong = pool.add(_paid(alice, 0, fee=11, amount=3))
        assert strong.code == REPLACED
        assert strong.replaced_tx_id is not None
        assert len(pool) == 1

    def test_priority_ordering_by_fee(self, alice, bob):
        pool = Mempool()
        cheap = _paid(alice, 0, fee=1)
        rich = _paid(bob, 0, fee=50)
        pool.add(cheap)
        pool.add(rich)
        assert [tx.tx_id for tx in pool.select(10)] == [rich.tx_id, cheap.tx_id]

    def test_fifo_selection_without_nonces(self, alice, bob):
        pool = Mempool()
        first = make_transfer(alice, "r", 1, nonce=0)
        second = make_transfer(bob, "r", 1, nonce=0)
        pool.add(first)
        pool.add(second)
        assert [tx.tx_id for tx in pool.select(10)] == [first.tx_id, second.tx_id]

    def test_selection_respects_limit(self, alice):
        pool = Mempool()
        for nonce in range(5):
            pool.add(make_transfer(alice, "r", 1, nonce=nonce))
        assert len(pool.select(3)) == 3

    def test_nonce_gaps_deferred(self, alice):
        pool = Mempool()
        pool.add(make_transfer(alice, "r", 1, nonce=2))
        selected = pool.select(10, nonces={alice.address: 0})
        assert selected == []

    def test_out_of_order_arrival_reordered(self, alice):
        pool = Mempool()
        later = make_transfer(alice, "r", 1, nonce=1)
        earlier = make_transfer(alice, "r", 1, nonce=0)
        pool.add(later)
        pool.add(earlier)
        selected = pool.select(10, nonces={alice.address: 0})
        assert [tx.nonce for tx in selected] == [0, 1]

    def test_get_by_id(self, alice):
        pool = Mempool()
        tx = make_transfer(alice, "r", 1, nonce=0)
        pool.add(tx)
        assert pool.get(tx.tx_id) is tx
        assert pool.get("ff" * 32) is None
        pool.remove_all([tx.tx_id])
        assert pool.get(tx.tx_id) is None

    def test_remove_all(self, alice):
        pool = Mempool()
        txs = [make_transfer(alice, "r", 1, nonce=n) for n in range(3)]
        for tx in txs:
            pool.add(tx)
        pool.remove_all([tx.tx_id for tx in txs[:2]])
        assert len(pool) == 1


class TestTransferExecutor:
    """The transfer arm of ``ContractExecutor``, the one executor."""

    def _setup(self, alice):
        state = StateDB()
        state.credit(alice.address, 1000)
        return state, ContractExecutor(), ExecutionContext(block_height=1)

    def test_successful_transfer(self, alice):
        state, executor, ctx = self._setup(alice)
        tx = make_transfer(alice, "dest", 300, nonce=0)
        receipt = executor.apply(state, tx, ctx)
        assert receipt.success
        assert receipt.gas_used == BASE_TX_GAS
        assert state.balance("dest") == 300
        assert state.balance(alice.address) == 700

    def test_nonce_enforced(self, alice):
        state, executor, ctx = self._setup(alice)
        tx = make_transfer(alice, "dest", 10, nonce=5)
        receipt = executor.apply(state, tx, ctx)
        assert not receipt.success
        assert "nonce" in receipt.error

    def test_failed_transfer_still_consumes_nonce(self, alice):
        state, executor, ctx = self._setup(alice)
        tx = make_transfer(alice, "dest", 99999, nonce=0)
        receipt = executor.apply(state, tx, ctx)
        assert not receipt.success
        assert state.nonce(alice.address) == 1
        assert state.balance("dest") == 0

    def test_malformed_payload_rejected(self, alice):
        state, executor, ctx = self._setup(alice)
        tx = make_transfer(alice, "dest", 10, nonce=0)
        import dataclasses

        bad = dataclasses.replace(
            tx, payload={"to": "dest", "amount": "ten"}
        ).signed_by(alice)
        receipt = executor.apply(state, bad, ctx)
        assert not receipt.success
