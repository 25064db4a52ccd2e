"""Contract runtime: deploys and executes MedScript contracts against state.

Implements the chain layer's ``Executor`` protocol.  Every node in the
baseline (un-transformed) blockchain runs this executor over every block,
which is exactly the duplicated computing the paper sets out to remove; the
transformed architecture (``repro.core``) keeps only light-weight policy
contracts on chain and moves heavy work off chain.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.chain.executor import (
    ContractEvent,
    ExecutionContext,
    Receipt,
    apply_transfer,
)
from repro.chain.state import StateDB
from repro.chain.transactions import TX_CALL, TX_DEPLOY, TX_TRANSFER, Transaction
from repro.common.errors import ContractError, OutOfGasError, SerializationError
from repro.common.hashing import hash_value_hex, sha256_hex
from repro.common.serialize import canonical_bytes
from repro.obs.tracer import trace_span
from repro.contracts import gas as G
from repro.contracts.vm import (
    ContractSource,
    GasMeter,
    Interpreter,
    _data_fault,
    _text,
    compile_contract,
)

META_SLOT = "__meta__"
STORAGE_PREFIX = "s/"


@dataclass
class ContractInfo:
    """On-chain metadata for a deployed contract."""

    contract_id: str
    name: str
    owner: str
    source: str
    deployed_at_height: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "contract_id": self.contract_id,
            "name": self.name,
            "owner": self.owner,
            "source": self.source,
            "deployed_at_height": self.deployed_at_height,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ContractInfo":
        return cls(**data)


def contract_id(owner: str, nonce: int, name: str) -> str:
    """The id of contract ``name`` deployed by ``owner`` at ``nonce``: known
    before the deploy commits."""
    return hash_value_hex(
        {"owner": owner, "nonce": nonce, "name": name}, allow_float=False
    )[:40]


def _isolate(value: Any) -> Any:
    """Copy mutable containers crossing the contract/state boundary.

    ``StateDB`` stores values by reference under the immutable-value
    convention; contract code, however, routinely does
    ``entry = storage_get(k); entry["field"] = v; storage_set(k, entry)``.
    Copying at the bridge keeps that idiom safe (and contract-visible
    semantics bit-identical to the historical deep-copy-in-StateDB
    behaviour) while the state substrate itself stays zero-copy.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    return copy.deepcopy(value)


def _as_result(value: Any) -> Any:
    """``value`` if a receipt can carry it; the call fails otherwise."""
    fault = _data_fault(value)
    if fault:
        raise ContractError(f"result is not serializable: {fault}")
    return value


def _deterministic_bytes(value: Any) -> bytes:
    """Canonical encoding of a value a contract hands to the host.

    Anything with no canonical form (a float, an iterator, a dict keyed by
    ints) would differ between nodes or crash the encoder; it fails the call.
    """
    fault = _data_fault(value)
    if fault:
        raise ContractError(f"value is not serializable: {fault}")
    try:
        return canonical_bytes(value, allow_float=False)
    except SerializationError as exc:  # a float
        raise ContractError(f"value is not serializable: {exc}") from exc


#: Every name the bridge injects into contract scope.  The static analyzer
#: (``repro.analysis``) treats calls to names outside this set (and outside
#: the VM's pure builtins / the contract's own functions) as MED006 errors,
#: so keep it in lockstep with :meth:`HostBridge.functions` — a unit test
#: cross-checks the two.
HOST_FUNCTION_NAMES = frozenset(
    {
        "storage_get",
        "storage_set",
        "storage_has",
        "storage_delete",
        "storage_keys",
        "emit",
        "require",
        "sender",
        "contract_id",
        "block_height",
        "timestamp_ms",
        "sha256_hex",
    }
)


class HostBridge:
    """Host functions exposed to contract code, bound to one execution."""

    def __init__(
        self,
        state: StateDB,
        contract_id: str,
        sender: str,
        context: ExecutionContext,
        meter: GasMeter,
        events: List[ContractEvent],
        read_only: bool = False,
    ):
        self._state = state
        self._contract_id = contract_id
        self._sender = sender
        self._context = context
        self._meter = meter
        self._events = events
        self._read_only = read_only

    def functions(self) -> Dict[str, Callable[..., Any]]:
        return {
            "storage_get": self.storage_get,
            "storage_set": self.storage_set,
            "storage_has": self.storage_has,
            "storage_delete": self.storage_delete,
            "storage_keys": self.storage_keys,
            "emit": self.emit,
            "require": self.require,
            "sender": lambda: self._sender,
            "contract_id": lambda: self._contract_id,
            "block_height": lambda: self._context.block_height,
            "timestamp_ms": lambda: self._context.timestamp_ms,
            "sha256_hex": self.sha256_hex,
        }

    def _guard_write(self) -> None:
        if self._read_only:
            raise ContractError("storage writes are forbidden in view calls")

    def storage_get(self, key: str, default: Any = None) -> Any:
        self._meter.charge(G.GAS_STORAGE_READ)
        return _isolate(
            self._state.get_slot(self._contract_id, STORAGE_PREFIX + _text(key), default)
        )

    def storage_set(self, key: str, value: Any) -> None:
        self._guard_write()
        self._meter.charge(G.GAS_STORAGE_WRITE)
        _deterministic_bytes(value)
        self._state.set_slot(
            self._contract_id, STORAGE_PREFIX + _text(key), _isolate(value)
        )

    def storage_has(self, key: str) -> bool:
        self._meter.charge(G.GAS_STORAGE_READ)
        return self._state.contains(
            self._state.contract_key(self._contract_id, STORAGE_PREFIX + _text(key))
        )

    def storage_delete(self, key: str) -> None:
        self._guard_write()
        self._meter.charge(G.GAS_STORAGE_WRITE)
        self._state.delete(
            self._state.contract_key(self._contract_id, STORAGE_PREFIX + _text(key))
        )

    def storage_keys(self, prefix: str = "") -> List[str]:
        full_prefix = self._state.contract_key(
            self._contract_id, STORAGE_PREFIX + _text(prefix)
        )
        keys = self._state.keys_with_prefix(full_prefix)
        self._meter.charge(G.GAS_STORAGE_READ * max(1, len(keys)))
        strip = len(self._state.contract_key(self._contract_id, STORAGE_PREFIX))
        return [key[strip:] for key in keys]

    def emit(self, name: str, data: Dict[str, Any]) -> None:
        self._guard_write()
        self._meter.charge(G.GAS_EMIT_EVENT)
        _deterministic_bytes(data)
        self._events.append(
            ContractEvent(
                contract_id=self._contract_id,
                name=_text(name),
                data=dict(data),
                block_height=self._context.block_height,
            )
        )

    @staticmethod
    def require(condition: Any, message: str = "requirement failed") -> bool:
        if not condition:
            raise ContractError(_text(message))
        return True

    def sha256_hex(self, value: Any) -> str:
        data = _deterministic_bytes(value)
        self._meter.charge(G.GAS_HASH_PER_BYTE * len(data))
        return sha256_hex(data)


# Compiled contracts by source hash.  One per process, shared by every node
# and RPC handler thread in it: the cache is content-addressed and a compiled
# contract holds no per-call state, so a second executor meeting the same
# source must not compile it again.  Oldest entry evicted first; a miss (or
# two threads missing at once) merely compiles again.
_COMPILED: "OrderedDict[str, ContractSource]" = OrderedDict()
_COMPILED_CAPACITY = 512
_COMPILED_LOCK = threading.Lock()


def _is_call_shape(contract_id: Any, method: Any, args: Any) -> bool:
    """Whether a call names its contract and method by ``str`` and passes a ``dict``.

    A signed payload is any JSON object, so nothing narrower may be assumed
    before this has been checked.
    """
    return (
        isinstance(contract_id, str)
        and isinstance(method, str)
        and isinstance(args, dict)
    )


class ContractExecutor:
    """Full executor: transfers, deployments, and contract calls.

    Compiled contracts are cached by source so repeated calls do not re-parse.
    """

    # -- Executor protocol ------------------------------------------------
    def apply(
        self, state: StateDB, tx: Transaction, context: ExecutionContext
    ) -> Receipt:
        with trace_span(
            "contract.apply", kind=tx.kind, node=context.node_name
        ) as span:
            receipt = self._apply(state, tx, context)
            span.set_attr("gas", receipt.gas_used)
            span.set_attr("success", receipt.success)
            if tx.kind == TX_CALL:
                span.set_attr("method", tx.payload.get("method", ""))
        return receipt

    def _apply(
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
        if tx.kind == TX_TRANSFER:
            return apply_transfer(state, tx)
        if tx.kind == TX_DEPLOY:
            return self._apply_deploy(state, tx, context)
        if tx.kind == TX_CALL:
            return self._apply_call(state, tx, context)
        return Receipt(
            tx_id=tx.tx_id, success=False, error=f"unknown tx kind {tx.kind!r}"
        )

    # -- deploy -----------------------------------------------------------
    def _apply_deploy(
        self, state: StateDB, tx: Transaction, context: ExecutionContext
    ) -> Receipt:
        name = tx.payload.get("contract", "")
        source = tx.payload.get("source", "")
        init_args = tx.payload.get("init", {}) or {}
        if not (
            isinstance(name, str)
            and isinstance(source, str)
            and isinstance(init_args, dict)
        ):
            return Receipt(
                tx_id=tx.tx_id,
                success=False,
                gas_used=min(G.GAS_DEPLOY_BASE, tx.gas_limit),
                error="malformed deploy payload",
            )
        gas_used = G.GAS_DEPLOY_BASE + G.GAS_DEPLOY_PER_BYTE * len(source)
        if gas_used > tx.gas_limit:
            return Receipt(
                tx_id=tx.tx_id,
                success=False,
                gas_used=tx.gas_limit,
                error="out of gas during deployment",
            )
        try:
            compiled = self._compile(source)
        except ContractError as exc:
            return Receipt(
                tx_id=tx.tx_id, success=False, gas_used=gas_used, error=str(exc)
            )
        new_id = contract_id(tx.sender, tx.nonce, name)
        meta_key = state.contract_key(new_id, META_SLOT)
        if state.contains(meta_key):
            return Receipt(
                tx_id=tx.tx_id,
                success=False,
                gas_used=gas_used,
                error="contract already deployed",
            )
        info = ContractInfo(
            contract_id=new_id,
            name=name,
            owner=tx.sender,
            source=source,
            deployed_at_height=context.block_height,
        )
        state.set(meta_key, info.to_dict())
        events: List[ContractEvent] = []
        if "init" in compiled.functions:
            meter = GasMeter(tx.gas_limit - gas_used)
            state.snapshot()
            try:
                bridge = HostBridge(
                    state, new_id, tx.sender, context, meter, events
                )
                Interpreter(compiled, bridge.functions(), meter).call(
                    "init", dict(init_args)
                )
                state.commit()
            except (ContractError, OutOfGasError) as exc:
                state.rollback()
                return Receipt(
                    tx_id=tx.tx_id,
                    success=False,
                    gas_used=gas_used + meter.used,
                    error=f"init failed: {exc}",
                )
            gas_used += meter.used
        for event in events:
            event.tx_id = tx.tx_id
        return Receipt(
            tx_id=tx.tx_id,
            success=True,
            gas_used=gas_used,
            output=new_id,
            events=events,
        )

    # -- call ----------------------------------------------------------------
    def _apply_call(
        self, state: StateDB, tx: Transaction, context: ExecutionContext
    ) -> Receipt:
        contract_id = tx.payload.get("contract", "")
        method = tx.payload.get("method", "")
        args = tx.payload.get("args", {}) or {}
        if not _is_call_shape(contract_id, method, args):
            return Receipt(
                tx_id=tx.tx_id,
                success=False,
                gas_used=G.GAS_CALL_BASE,
                error="malformed call payload",
            )
        info = self.contract_info(state, contract_id)
        if info is None:
            return Receipt(
                tx_id=tx.tx_id,
                success=False,
                gas_used=G.GAS_CALL_BASE,
                error=f"unknown contract {contract_id[:12]}",
            )
        try:
            compiled = self._compile(info.source)
        except ContractError as exc:
            return Receipt(
                tx_id=tx.tx_id,
                success=False,
                gas_used=G.GAS_CALL_BASE,
                error=str(exc),
            )
        meter = GasMeter(max(0, tx.gas_limit - G.GAS_CALL_BASE))
        events: List[ContractEvent] = []
        state.snapshot()
        try:
            bridge = HostBridge(state, contract_id, tx.sender, context, meter, events)
            output = _as_result(
                Interpreter(compiled, bridge.functions(), meter).call(method, dict(args))
            )
            state.commit()
        except (ContractError, OutOfGasError) as exc:
            state.rollback()
            return Receipt(
                tx_id=tx.tx_id,
                success=False,
                gas_used=G.GAS_CALL_BASE + meter.used,
                error=str(exc),
            )
        for event in events:
            event.tx_id = tx.tx_id
        return Receipt(
            tx_id=tx.tx_id,
            success=True,
            gas_used=G.GAS_CALL_BASE + meter.used,
            output=output,
            events=events,
        )

    # -- view (read-only, off-consensus) ----------------------------------
    def execute_view(
        self,
        state: StateDB,
        contract_id: str,
        method: str,
        args: Optional[Dict[str, Any]] = None,
        caller: str = "viewer",
        gas_limit: int = 50_000_000,
        context: Optional[ExecutionContext] = None,
    ) -> Any:
        """Run a method read-only against a state fork (no tx, no writes).

        This is how off-chain control code inspects contract state without
        paying consensus cost — the "light-weight policy control point" read
        path of Figure 1.  The fork shares the state's trie rather than
        copying it; the read-only bridge rejects writes before they reach it.
        """
        args = args or {}
        if not _is_call_shape(contract_id, method, args):
            raise ContractError("malformed view call")
        info = self.contract_info(state, contract_id)
        if info is None:
            raise ContractError(f"unknown contract {contract_id[:12]}")
        compiled = self._compile(info.source)
        meter = GasMeter(gas_limit)
        events: List[ContractEvent] = []
        bridge = HostBridge(
            state.fork(),
            contract_id,
            caller,
            context or ExecutionContext(),
            meter,
            events,
            read_only=True,
        )
        return _as_result(
            Interpreter(compiled, bridge.functions(), meter).call(method, dict(args))
        )

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _compile(source: str) -> ContractSource:
        key = sha256_hex(source.encode("utf-8"))
        with _COMPILED_LOCK:
            cached = _COMPILED.get(key)
        if cached is None:
            cached = compile_contract(source)
            with _COMPILED_LOCK:
                _COMPILED[key] = cached
                if len(_COMPILED) > _COMPILED_CAPACITY:
                    _COMPILED.popitem(last=False)
        return cached

    @staticmethod
    def contract_info(state: StateDB, contract_id: str) -> Optional[ContractInfo]:
        data = state.get(state.contract_key(contract_id, META_SLOT))
        return ContractInfo.from_dict(data) if data else None

    @staticmethod
    def list_contracts(state: StateDB) -> List[ContractInfo]:
        infos = []
        for key in state.keys_with_prefix("contract/"):
            if key.endswith("/" + META_SLOT):
                infos.append(ContractInfo.from_dict(state.get(key)))
        return infos
