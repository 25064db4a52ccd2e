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

__all__ = [
    "BASE_TX_GAS",
    "Block",
    "BlockHeader",
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
