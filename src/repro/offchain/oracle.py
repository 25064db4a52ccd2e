"""Monitor node and data oracle (Figures 3 and 4).

On-chain smart contracts have no external communication capability, so the
paper introduces (a) a *monitor node* that watches contract events and
(b) a *data oracle* that bridges the contract world and the external world
via remote procedure calls returning a standard format.  Here the monitor
subscribes to a blockchain node's event stream and dispatches to registered
handlers; the oracle exposes named RPC endpoints whose responses are
canonical dicts (the "standard format to smart contract access").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.chain.executor import ContractEvent
from repro.common.errors import OracleEndpointError, OracleError
from repro.common.serialize import canonical_bytes, to_jsonable
from repro.consensus.node import BlockchainNode

EventHandler = Callable[[ContractEvent], None]
RpcHandler = Callable[[Dict[str, Any]], Dict[str, Any]]


@dataclass
class RpcCallRecord:
    """Audit record of one oracle bridge call."""

    endpoint: str
    request: Dict[str, Any]
    ok: bool
    error: str = ""


class DataOracle:
    """RPC bridge between the chain and the external world.

    Every response is normalized through canonical serialization so that it
    could be fed back into a contract deterministically; every call is
    recorded for auditability (the paper's "traceable and auditable" smart
    contract property extended off chain).
    """

    def __init__(self, name: str = "oracle"):
        self.name = name
        self._endpoints: Dict[str, RpcHandler] = {}
        self.call_log: List[RpcCallRecord] = []

    def register_endpoint(self, endpoint: str, handler: RpcHandler) -> None:
        if endpoint in self._endpoints:
            raise OracleError(f"endpoint {endpoint!r} already registered")
        self._endpoints[endpoint] = handler

    def endpoints(self) -> List[str]:
        return sorted(self._endpoints)

    def call(self, endpoint: str, request: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Invoke an endpoint; returns a canonicalized response dict.

        Every outcome — success or any failure kind — lands in
        ``call_log``, so the audit trail is complete even when the handler
        itself raises an :class:`OracleError`.
        """
        request = dict(request or {})
        handler = self._endpoints.get(endpoint)
        if handler is None:
            raise self._fail(endpoint, request, "unknown_endpoint",
                             "no such endpoint registered")
        try:
            response = handler(request)
        except Exception as exc:
            raise self._fail(
                endpoint, request, "handler_error", str(exc)
            ) from exc
        normalized = to_jsonable(response)
        if not isinstance(normalized, dict):
            raise self._fail(
                endpoint, request, "bad_response",
                f"must return a dict, got {type(response).__name__}",
            )
        try:
            canonical_bytes(normalized)  # ensure it round-trips
        except Exception as exc:
            raise self._fail(
                endpoint, request, "bad_response",
                f"response does not canonicalize: {exc}",
            ) from exc
        self.call_log.append(RpcCallRecord(endpoint, request, ok=True))
        return normalized

    def _fail(
        self, endpoint: str, request: Dict[str, Any], kind: str, detail: str
    ) -> OracleEndpointError:
        error = OracleEndpointError(endpoint, kind, detail)
        self.call_log.append(
            RpcCallRecord(endpoint, request, ok=False, error=str(error))
        )
        return error


class MonitorNode:
    """Watches smart-contract events and routes them to off-chain handlers.

    One monitor typically runs per site, attached to that site's blockchain
    node (Figure 3); handlers are registered per event name, with ``"*"`` as
    a catch-all.
    """

    def __init__(self, name: str, node: BlockchainNode, oracle: Optional[DataOracle] = None):
        self.name = name
        self.node = node
        self.oracle = oracle or DataOracle(name=f"{name}-oracle")
        self._handlers: Dict[str, List[EventHandler]] = {}
        self.seen_events: List[ContractEvent] = []
        node.subscribe_events(self._on_event)

    def on(self, event_name: str, handler: EventHandler) -> None:
        """Register a handler for a contract event name (``"*"`` = all)."""
        self._handlers.setdefault(event_name, []).append(handler)

    def _on_event(self, event: ContractEvent) -> None:
        self.seen_events.append(event)
        for handler in self._handlers.get(event.name, []):
            handler(event)
        for handler in self._handlers.get("*", []):
            handler(event)

    def events_named(self, name: str) -> List[ContractEvent]:
        return [event for event in self.seen_events if event.name == name]
