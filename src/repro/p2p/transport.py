"""Transport abstraction shared by the sim kernel and the RPC stack.

The p2p protocol engine (peer manager, gossip, chain sync) is written
against a tiny callback transport — ``request``, ``notify`` and timers — so
the same logic runs deterministically on the discrete-event kernel
(:class:`SimTransport`, here) and over real framed TCP
(:class:`repro.p2p.rpc_transport.RpcTransport`).  Everything is
single-threaded from the engine's point of view: completions and timer
callbacks fire on the same execution context that issued them.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Protocol, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.p2p.wire import payload_size
from repro.sim.network import Message, Network

ResultCallback = Callable[[Any], None]
ErrorCallback = Callable[[Exception], None]
DispatchFn = Callable[[str, str, Dict[str, Any]], Any]


class P2PError(Exception):
    """A peer answered with a protocol-level error."""


class PeerUnreachable(P2PError):
    """Request timed out or the peer cannot be reached at all."""


class Transport(Protocol):
    """What the protocol engine needs from a wire."""

    local_addr: str
    #: Inbound request handler: ``dispatch(sender_addr, method, params)``.
    dispatch: Optional[DispatchFn]

    @property
    def now(self) -> float: ...

    @property
    def rng(self) -> Any: ...

    def schedule(self, delay_s: float, callback: Callable[[], None], label: str = ""): ...

    def request(
        self,
        peer: str,
        method: str,
        params: Dict[str, Any],
        on_result: ResultCallback,
        on_error: Optional[ErrorCallback] = None,
        timeout_s: float = 5.0,
    ) -> None: ...

    def notify(self, peers: Sequence[str], method: str, params: Dict[str, Any]) -> None:
        """Fire-and-forget, the same message to each of ``peers``: each
        dispatches it and sends no reply."""

    def close(self) -> None: ...


class SimTransport:
    """Request/response p2p messaging over the deterministic sim network.

    Requests and responses travel as ``p2p.req`` / ``p2p.resp`` message
    kinds with correlation ids; a notification is a ``p2p.req`` without an
    id, and is never answered.  A dropped message (loss, partition) simply
    times out, and an unregistered endpoint (crashed node) fails fast.  A
    handler that raises :class:`PeerUnreachable` refuses transiently — the
    sim's ``OVERLOADED`` — and the requester sees ``PeerUnreachable`` too.
    Wire payloads are the same plain-JSON dicts the TCP transport carries,
    so serialization is exercised under the sim kernel too.
    """

    KIND_REQUEST = "p2p.req"
    KIND_RESPONSE = "p2p.resp"

    def __init__(self, network: Network, name: str):
        self.network = network
        self.kernel = network.kernel
        self.local_addr = name
        self.dispatch: Optional[DispatchFn] = None
        self._ids = itertools.count(1)
        self._pending: Dict[int, Tuple[ResultCallback, Optional[ErrorCallback], Any]] = {}
        self._closed = False
        network.register(name, self.handle_message)

    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def rng(self):
        return self.kernel.rng

    def schedule(self, delay_s: float, callback: Callable[[], None], label: str = ""):
        return self.kernel.schedule(
            delay_s, callback, label or f"{self.local_addr}:p2p"
        )

    def request(
        self,
        peer: str,
        method: str,
        params: Dict[str, Any],
        on_result: ResultCallback,
        on_error: Optional[ErrorCallback] = None,
        timeout_s: float = 5.0,
    ) -> None:
        if self._closed:
            self._fail_soon(on_error, PeerUnreachable("transport closed"))
            return
        request_id = next(self._ids)
        handle = self.kernel.schedule(
            timeout_s,
            lambda: self._expire(request_id, peer, method),
            label=f"{self.local_addr}:p2p-timeout",
        )
        self._pending[request_id] = (on_result, on_error, handle)
        envelope = {"id": request_id, "method": method, "params": params}
        try:
            self.network.send(
                self.local_addr,
                peer,
                self.KIND_REQUEST,
                envelope,
                size_bytes=payload_size(params),
            )
        except SimulationError:
            # Unknown endpoint: the peer crashed/unregistered.  Fail fast
            # instead of burning the full timeout.
            del self._pending[request_id]
            handle.cancel()
            self._fail_soon(on_error, PeerUnreachable(f"{peer} is not reachable"))

    def notify(self, peers: Sequence[str], method: str, params: Dict[str, Any]) -> None:
        if self._closed:
            return
        size_bytes = payload_size(params)
        for peer in peers:
            try:
                self.network.send(
                    self.local_addr,
                    peer,
                    self.KIND_REQUEST,
                    {"method": method, "params": params},
                    size_bytes=size_bytes,
                )
            except SimulationError:
                pass  # the peer is gone, and a notification has nobody to fail to

    def _fail_soon(self, on_error: Optional[ErrorCallback], error: Exception) -> None:
        """Deliver a failure asynchronously so callers never re-enter."""
        if on_error is not None:
            self.kernel.schedule(0.0, lambda: on_error(error))

    def _expire(self, request_id: int, peer: str, method: str) -> None:
        entry = self._pending.pop(request_id, None)
        if entry is None:
            return
        _, on_error, _ = entry
        if on_error is not None:
            on_error(PeerUnreachable(f"no response from {peer} to {method!r}"))

    def handle_message(self, sender: str, message: Message) -> None:
        """Inbound delivery from the sim network endpoint ``local_addr``."""
        if message.kind == self.KIND_REQUEST:
            self._handle_request(sender, message.payload)
        elif message.kind == self.KIND_RESPONSE:
            self._handle_response(message.payload)

    def _handle_request(self, sender: str, envelope: Any) -> None:
        if not isinstance(envelope, dict) or self.dispatch is None:
            return
        method, params = envelope.get("method", ""), envelope.get("params") or {}
        if "id" not in envelope:
            try:
                self.dispatch(sender, method, params)
            except Exception:
                pass  # a notification's failure has nobody to go to
            return
        body: Dict[str, Any] = {"id": envelope["id"]}
        try:
            body["result"] = self.dispatch(sender, method, params)
        except Exception as exc:
            body["error"] = str(exc)
            body["transient"] = isinstance(exc, PeerUnreachable)
        try:
            self.network.send(
                self.local_addr,
                sender,
                self.KIND_RESPONSE,
                body,
                size_bytes=payload_size(body.get("result")),
            )
        except SimulationError:
            pass  # requester vanished; nothing to answer

    def _handle_response(self, envelope: Any) -> None:
        if not isinstance(envelope, dict):
            return
        entry = self._pending.pop(envelope.get("id"), None)
        if entry is None:
            return  # late response after timeout
        on_result, on_error, handle = entry
        handle.cancel()
        if "error" in envelope:
            if on_error is not None:
                error = PeerUnreachable if envelope.get("transient") else P2PError
                on_error(error(str(envelope["error"])))
            return
        on_result(envelope.get("result"))

    def close(self) -> None:
        """Leave the network: peers' requests to this endpoint fail fast."""
        self._closed = True
        self.network.unregister(self.local_addr)
        for _, _, handle in self._pending.values():
            handle.cancel()
        self._pending.clear()
