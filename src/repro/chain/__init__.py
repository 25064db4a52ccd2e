"""Blockchain substrate: transactions, blocks, state, mempool, chain store."""

from repro.chain.blocks import Block, BlockHeader, build_block, make_genesis
from repro.chain.channels import ChannelState, SettlementRecord, StateChannel
from repro.chain.executor import (
    BASE_TX_GAS,
    ContractEvent,
    ExecutionContext,
    Executor,
    Receipt,
)
from repro.chain.mempool import AdmissionResult, Mempool, MempoolConfig
from repro.chain.state import (
    StateAliasingError,
    StateDB,
    set_debug_aliasing,
)
from repro.chain.store import ChainStore
from repro.chain.transactions import (
    DEFAULT_GAS_LIMIT,
    TX_CALL,
    TX_DEPLOY,
    TX_TRANSFER,
    Transaction,
    make_call,
    make_deploy,
    make_transfer,
)

# The parallel block scheduler is exported lazily (PEP 562): it imports
# repro.analysis -> repro.contracts, which import chain submodules, so an
# eager import here would cycle when repro.contracts is imported first.
_SCHEDULER_EXPORTS = frozenset(
    {"BlockScheduler", "TxAccess", "derive_tx_access", "plan_waves"}
)


def __getattr__(name: str):
    if name in _SCHEDULER_EXPORTS:
        from repro.chain import scheduler

        return getattr(scheduler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BASE_TX_GAS",
    "Block",
    "BlockHeader",
    "BlockScheduler",
    "TxAccess",
    "derive_tx_access",
    "plan_waves",
    "ChainStore",
    "ChannelState",
    "SettlementRecord",
    "StateChannel",
    "ContractEvent",
    "DEFAULT_GAS_LIMIT",
    "AdmissionResult",
    "ExecutionContext",
    "Executor",
    "Mempool",
    "MempoolConfig",
    "Receipt",
    "StateAliasingError",
    "StateDB",
    "TX_CALL",
    "TX_DEPLOY",
    "TX_TRANSFER",
    "Transaction",
    "set_debug_aliasing",
    "build_block",
    "make_call",
    "make_deploy",
    "make_genesis",
    "make_transfer",
]
