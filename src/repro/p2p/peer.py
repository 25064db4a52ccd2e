"""Peer discovery and liveness tracking.

Discovery is seed-based: the node dials its configured seeds, performs a
``p2p.hello`` handshake (genesis hash + head height, so incompatible
chains are rejected at the door), and learns further peers from hello and
ping replies.  Liveness is a periodic jittered ping that doubles as the
anti-entropy head exchange — every reply advertises the responder's head,
and a peer seen ahead of us triggers headers-first sync.  Dead peers are
evicted after consecutive ping failures and redialed with capped
exponential backoff; seeds are retried forever, learned peers are
forgotten after too many failed dials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.p2p.config import P2PConfig
from repro.p2p.transport import Transport
from repro.sim.metrics import MetricsRegistry

HeadInfo = Callable[[], Tuple[int, str]]
PeerCallback = Callable[[str], None]
HeadCallback = Callable[[str, int, str], None]


@dataclass
class PeerState:
    """What we know about one remote peer."""

    addr: str
    is_seed: bool = False
    connected: bool = False
    head_height: int = -1
    head_id: str = ""
    last_seen: float = 0.0
    ping_failures: int = 0
    dial_failures: int = 0
    dialing: bool = False
    redial_handle: Any = field(default=None, repr=False)


class PeerManager:
    """Tracks the peer set for one node and keeps it alive."""

    def __init__(
        self,
        transport: Transport,
        config: P2PConfig,
        genesis_id: str,
        head_info: HeadInfo,
        metrics: Optional[MetricsRegistry] = None,
        scope: str = "",
        on_peer_connected: Optional[PeerCallback] = None,
        on_head_advertised: Optional[HeadCallback] = None,
    ):
        self.transport = transport
        self.config = config
        self.genesis_id = genesis_id
        self.head_info = head_info
        self.metrics = metrics or MetricsRegistry()
        self.scope = scope or transport.local_addr
        self.on_peer_connected = on_peer_connected
        self.on_head_advertised = on_head_advertised
        self.peers: Dict[str, PeerState] = {}
        self._ping_handle: Any = None
        self._running = False
        for seed in config.seeds:
            if seed != transport.local_addr:
                self.peers[seed] = PeerState(addr=seed, is_seed=True)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self._running = True
        for peer in list(self.peers.values()):
            self._dial(peer)
        self._schedule_ping()

    def stop(self) -> None:
        self._running = False
        if self._ping_handle is not None:
            self._ping_handle.cancel()
            self._ping_handle = None
        for peer in self.peers.values():
            if peer.redial_handle is not None:
                peer.redial_handle.cancel()
                peer.redial_handle = None

    # -- views --------------------------------------------------------------
    def connected(self) -> List[str]:
        return [p.addr for p in self.peers.values() if p.connected]

    def sample(self, count: int, exclude: Tuple[str, ...] = ()) -> List[str]:
        """Up to ``count`` connected peers, uniformly without replacement."""
        pool = [addr for addr in self.connected() if addr not in exclude]
        if len(pool) <= count:
            return pool
        return self.transport.rng.sample(pool, count)

    def best_peer(self) -> Optional[PeerState]:
        """The connected peer advertising the highest head."""
        candidates = [p for p in self.peers.values() if p.connected]
        if not candidates:
            return None
        return max(candidates, key=lambda p: (p.head_height, p.addr))

    # -- learning -----------------------------------------------------------
    def learn(self, addr: str) -> Optional[PeerState]:
        """Track a newly-heard-of peer address (bounded by ``max_peers``)."""
        if not addr or addr == self.transport.local_addr:
            return None
        peer = self.peers.get(addr)
        if peer is not None:
            return peer
        if len(self.peers) >= self.config.max_peers:
            return None
        peer = PeerState(addr=addr)
        self.peers[addr] = peer
        self.metrics.add("p2p_peers_learned", 1, scope=self.scope)
        if self._running:
            self._dial(peer)
        return peer

    def note_alive(self, addr: str) -> None:
        """Inbound traffic from ``addr`` proves it is reachable enough."""
        peer = self.learn(addr)
        if peer is None:
            return
        peer.last_seen = self.transport.now
        if not peer.connected and not peer.dialing:
            # They reached us but we never completed a handshake with them;
            # dial back so the link becomes usable for gossip from our side.
            self._dial(peer)

    def note_failure(self, addr: str) -> None:
        """A request to ``addr`` failed; counts like a lost ping."""
        peer = self.peers.get(addr)
        if peer is not None and peer.connected:
            self._on_ping_failed(peer)

    def _hello_payload(self) -> Dict[str, Any]:
        height, head_id = self.head_info()
        return {
            "from": self.transport.local_addr,
            "genesis": self.genesis_id,
            "head_height": height,
            "head_id": head_id,
            "peers": self.connected(),
        }

    # -- dialing ------------------------------------------------------------
    def _dial(self, peer: PeerState) -> None:
        if peer.dialing or peer.connected or not self._running:
            return
        peer.dialing = True
        if peer.redial_handle is not None:
            peer.redial_handle.cancel()
            peer.redial_handle = None
        self.metrics.add("p2p_dials", 1, scope=self.scope)
        self.transport.request(
            peer.addr,
            "p2p.hello",
            self._hello_payload(),
            on_result=lambda reply: self._on_hello_reply(peer, reply),
            on_error=lambda exc: self._on_dial_failed(peer),
            timeout_s=self.config.request_timeout_s,
        )

    def _on_hello_reply(self, peer: PeerState, reply: Any) -> None:
        peer.dialing = False
        if not isinstance(reply, dict) or reply.get("genesis") != self.genesis_id:
            # Different chain (or garbage): drop for good.
            self.metrics.add("p2p_handshake_rejected", 1, scope=self.scope)
            self.peers.pop(peer.addr, None)
            return
        peer.connected = True
        peer.dial_failures = 0
        peer.ping_failures = 0
        self._absorb_advert(peer, reply)
        self.metrics.add("p2p_handshakes", 1, scope=self.scope)
        if self.on_peer_connected is not None:
            self.on_peer_connected(peer.addr)

    def _on_dial_failed(self, peer: PeerState) -> None:
        peer.dialing = False
        peer.dial_failures += 1
        if not peer.is_seed and peer.dial_failures >= self.config.max_connect_attempts:
            self.peers.pop(peer.addr, None)
            self.metrics.add("p2p_peers_forgotten", 1, scope=self.scope)
            return
        self._schedule_redial(peer)

    def _schedule_redial(self, peer: PeerState) -> None:
        if not self._running or peer.redial_handle is not None:
            return
        backoff = min(
            self.config.reconnect_backoff_s * (2 ** max(0, peer.dial_failures - 1)),
            self.config.reconnect_backoff_max_s,
        )
        backoff *= 0.5 + self.transport.rng.random()  # desynchronise redials

        def redial() -> None:
            peer.redial_handle = None
            self._dial(peer)

        peer.redial_handle = self.transport.schedule(
            backoff, redial, label=f"{self.scope}:redial"
        )

    # -- liveness ------------------------------------------------------------
    def _schedule_ping(self) -> None:
        if not self._running:
            return
        jitter = 0.5 + self.transport.rng.random()
        self._ping_handle = self.transport.schedule(
            self.config.ping_interval_s * jitter,
            self._ping_round,
            label=f"{self.scope}:ping",
        )

    def _ping_round(self) -> None:
        self._ping_handle = None
        for peer in list(self.peers.values()):
            if peer.connected:
                self._ping(peer)
            elif not peer.dialing and peer.redial_handle is None:
                self._dial(peer)
        self._schedule_ping()

    def _ping(self, peer: PeerState) -> None:
        height, head_id = self.head_info()
        self.metrics.add("p2p_pings", 1, scope=self.scope)
        self.transport.request(
            peer.addr,
            "p2p.ping",
            {
                "from": self.transport.local_addr,
                "head_height": height,
                "head_id": head_id,
            },
            on_result=lambda reply: self._on_ping_reply(peer, reply),
            on_error=lambda exc: self._on_ping_failed(peer),
            timeout_s=self.config.request_timeout_s,
        )

    def _on_ping_reply(self, peer: PeerState, reply: Any) -> None:
        if not isinstance(reply, dict):
            return
        peer.ping_failures = 0
        self._absorb_advert(peer, reply)

    def _on_ping_failed(self, peer: PeerState) -> None:
        peer.ping_failures += 1
        if peer.ping_failures >= self.config.max_ping_failures:
            peer.connected = False
            peer.ping_failures = 0
            peer.dial_failures += 1
            self.metrics.add("p2p_peers_evicted", 1, scope=self.scope)
            self._schedule_redial(peer)

    def _absorb_advert(self, peer: PeerState, advert: Dict[str, Any]) -> None:
        """Fold a hello/ping reply into peer state; surface head changes."""
        peer.last_seen = self.transport.now
        for addr in advert.get("peers") or []:
            if isinstance(addr, str):
                self.learn(addr)
        try:
            height = int(advert.get("head_height", -1))
        except (TypeError, ValueError):
            return
        head_id = advert.get("head_id") or ""
        if height > peer.head_height or head_id != peer.head_id:
            peer.head_height = height
            peer.head_id = head_id
            if self.on_head_advertised is not None and head_id:
                self.on_head_advertised(peer.addr, height, head_id)

    # -- serving (the other side of hello/ping) ------------------------------
    def serve_hello(self, params: Dict[str, Any]) -> Dict[str, Any]:
        # Always answer with *our* hello: the dialer compares genesis ids
        # and drops us if they differ — symmetric rejection without an
        # error channel.  An incompatible caller is simply not learned.
        if params.get("genesis") == self.genesis_id:
            sender = params.get("from") or ""
            if isinstance(sender, str) and sender:
                self.note_alive(sender)
                peer = self.peers.get(sender)
                if peer is not None:
                    self._absorb_advert(peer, params)
        return self._hello_payload()

    def serve_ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        sender = params.get("from") or ""
        if isinstance(sender, str) and sender:
            self.note_alive(sender)
            peer = self.peers.get(sender)
            if peer is not None:
                self._absorb_advert(peer, params)
        return self._hello_payload()
