"""Transaction execution interface.

The chain layer defines *what* a transaction is; this module defines *how*
one is applied to state.  The base :class:`TransferExecutor` handles value
transfers and nonce bookkeeping; the contract VM (``repro.contracts``)
plugs in as a richer executor via the same protocol, keeping the chain
substrate independent of the contract layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Protocol, Tuple

from repro.chain.state import StateDB, StateOverlay
from repro.chain.transactions import TX_TRANSFER, Transaction
from repro.common.errors import ChainError
from repro.obs.tracer import trace_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see scheduler.py)
    from repro.chain.scheduler import BlockScheduler


@dataclass
class ContractEvent:
    """Event emitted during contract execution (Fig. 3's monitor feed)."""

    contract_id: str
    name: str
    data: Dict[str, Any]
    tx_id: str = ""
    block_height: int = -1


@dataclass
class Receipt:
    """Result of applying one transaction."""

    tx_id: str
    success: bool
    gas_used: int = 0
    output: Any = None
    error: str = ""
    events: List[ContractEvent] = field(default_factory=list)


class Executor(Protocol):
    """Applies a validated transaction to state, returning a receipt."""

    def apply(self, state: StateDB, tx: Transaction, context: "ExecutionContext") -> Receipt:
        ...


@dataclass
class ExecutionContext:
    """Ambient data available to executing transactions."""

    block_height: int = 0
    timestamp_ms: int = 0
    proposer: str = ""
    node_name: str = ""


BASE_TX_GAS = 21_000


def apply_transfer(state: StateDB, tx: Transaction) -> Receipt:
    """The value-transfer arm every executor shares (nonce already bumped)."""
    to = tx.payload.get("to")
    amount = tx.payload.get("amount")
    if not isinstance(to, str) or not isinstance(amount, int) or amount < 0:
        return Receipt(
            tx_id=tx.tx_id,
            success=False,
            gas_used=BASE_TX_GAS,
            error="malformed transfer payload",
        )
    try:
        state.debit(tx.sender, amount)
    except ChainError as exc:
        return Receipt(
            tx_id=tx.tx_id, success=False, gas_used=BASE_TX_GAS, error=str(exc)
        )
    state.credit(to, amount)
    return Receipt(tx_id=tx.tx_id, success=True, gas_used=BASE_TX_GAS)


class TransferExecutor:
    """Minimal executor: nonces + value transfers; rejects contract txs."""

    def apply(
        self, state: StateDB, tx: Transaction, context: ExecutionContext
    ) -> Receipt:
        expected_nonce = state.nonce(tx.sender)
        if tx.nonce != expected_nonce:
            return Receipt(
                tx_id=tx.tx_id,
                success=False,
                error=f"bad nonce: expected {expected_nonce}, got {tx.nonce}",
            )
        state.bump_nonce(tx.sender)
        if tx.kind != TX_TRANSFER:
            return Receipt(
                tx_id=tx.tx_id,
                success=False,
                gas_used=BASE_TX_GAS,
                error=f"TransferExecutor cannot execute {tx.kind!r} transactions",
            )
        return apply_transfer(state, tx)


def apply_block_transactions(
    executor: Executor,
    state: StateDB,
    transactions: List[Transaction],
    context: ExecutionContext,
) -> List[Receipt]:
    """Apply a block's transactions in order.

    Each transaction executes inside a state snapshot; a failed transaction
    still consumes its nonce (mirroring Ethereum semantics) but its other
    writes are rolled back by the executor itself.  Structural invalidity
    (bad signature) raises — such a transaction must never reach execution.
    """
    with trace_span(
        "chain.apply_block",
        height=context.block_height,
        node=context.node_name,
        txs=len(transactions),
    ) as span:
        receipts = []
        for tx in transactions:
            tx.validate()
            receipts.append(executor.apply(state, tx, context))
        span.set_attr("gas", sum(receipt.gas_used for receipt in receipts))
    return receipts


def speculate_block_transactions(
    executor: Executor,
    base_state: StateDB,
    transactions: List[Transaction],
    context: ExecutionContext,
    scheduler: Optional["BlockScheduler"] = None,
) -> Tuple[StateOverlay, List[Receipt]]:
    """Execute a block's transactions against an overlay of ``base_state``.

    This is the copy-on-write path used for per-block execution on every
    consensus node: the base state is forked as an O(1) diff instead of
    being copied, so speculative execution of competing blocks over the
    same parent costs O(write-set) each.  The returned overlay can be kept
    (the block was adopted), discarded (the block lost), or
    ``flatten()``-ed into a standalone state at the canonical head.

    Forking freezes ``base_state`` against direct writes, but only for as
    long as the overlay is live: dropping the last reference to a losing
    overlay (or calling ``overlay.discard()`` for a deterministic release)
    unfreezes the base automatically.

    Passing a ``repro.chain.scheduler.BlockScheduler`` routes execution
    through optimistic parallel scheduling instead of the serial loop; the
    result (state root and receipts) is bit-identical either way.
    """
    if scheduler is not None:
        return scheduler.execute_block(
            base_state, transactions, context, validate=True
        )
    overlay = base_state.fork()
    receipts = apply_block_transactions(executor, overlay, transactions, context)
    return overlay, receipts
