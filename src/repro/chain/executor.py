"""Transaction execution interface.

The chain layer defines *what* a transaction is; this module defines *how*
one is applied to state: the receipt and context types, the
:class:`Executor` protocol, and the value-transfer arm.  The one executor,
``repro.contracts.runtime.ContractExecutor``, plugs in through the protocol,
keeping the chain substrate independent of the contract layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Protocol

from repro.chain.state import StateDB
from repro.chain.transactions import Transaction
from repro.common.errors import ChainError


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
    """The value-transfer arm of execution (nonce already bumped)."""
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
