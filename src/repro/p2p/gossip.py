"""Announce-by-hash gossip with fetch-on-miss.

A node never floods full bodies.  It announces the *id* of a new
transaction or block to ``fanout`` sampled peers; a peer that lacks the
body fetches it exactly once via ``p2p.get_data`` (an in-flight guard
dedups concurrent announcements, alternate announcers are kept as retry
sources).  Received bodies are handed to the node, which relays by
re-announcing — so propagation is O(fanout · nodes) id-sized messages
plus exactly one body transfer per node, and the
``p2p_duplicate_bodies`` counter (bodies received for an id we already
had) is the experiment's zero-flood gate.

While headers-first sync is active, announce-triggered fetches are
deferred: sync will deliver those blocks in order anyway, and fetching
them a second time would be exactly the duplicate delivery the protocol
exists to avoid.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ValidationError
from repro.p2p.config import P2PConfig
from repro.p2p.transport import Transport
from repro.p2p.wire import block_from_wire, block_to_wire, tx_from_wire, tx_to_wire
from repro.sim.metrics import MetricsRegistry

KIND_TX = "tx"
KIND_BLOCK = "block"


class SeenCache:
    """Bounded LRU set of announced ids."""

    def __init__(self, capacity: int):
        self.capacity = max(1, int(capacity))
        self._items: "OrderedDict[str, None]" = OrderedDict()

    def add(self, item_id: str) -> bool:
        """Record ``item_id``; True when it was new."""
        if item_id in self._items:
            self._items.move_to_end(item_id)
            return False
        self._items[item_id] = None
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)
        return True

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._items

    def __len__(self) -> int:
        return len(self._items)


class Gossip:
    """The propagation half of the p2p engine for one node."""

    def __init__(
        self,
        transport: Transport,
        peers,
        config: P2PConfig,
        *,
        has_item: Callable[[str, str], bool],
        get_item: Callable[[str, str], Optional[Any]],
        deliver_tx: Callable[[Any], None],
        deliver_block: Callable[[Any], None],
        sync_active: Callable[[], bool] = lambda: False,
        metrics: Optional[MetricsRegistry] = None,
        scope: str = "",
    ):
        self.transport = transport
        self.peers = peers
        self.config = config
        self.has_item = has_item      # (kind, id) -> node already has body
        self.get_item = get_item      # (kind, id) -> body object or None
        self.deliver_tx = deliver_tx
        self.deliver_block = deliver_block
        self.sync_active = sync_active
        self.metrics = metrics or MetricsRegistry()
        self.scope = scope or transport.local_addr
        self.seen = SeenCache(config.seen_cache_size)
        # id -> remaining announcer addresses to try if a fetch fails.
        self._sources: Dict[str, List[str]] = {}
        self._in_flight: Dict[str, str] = {}  # id -> kind
        # Block fetches put off while sync runs, oldest first; never more
        # than ``seen_cache_size``, and their ``_sources`` go with them.
        self._deferred: "OrderedDict[Tuple[str, str], None]" = OrderedDict()

    # -- outbound ------------------------------------------------------------
    def announce(self, kind: str, item_id: str, exclude: Tuple[str, ...] = ()) -> int:
        """Advertise ``item_id`` to up to ``fanout`` peers; returns sends."""
        self.seen.add(item_id)
        targets = self.peers.sample(self.config.fanout, exclude=exclude)
        for addr in targets:
            self.announce_to(addr, kind, [item_id])
        return len(targets)

    def announce_to(self, addr: str, kind: str, ids: List[str]) -> None:
        """One ``p2p.announce`` carrying ``ids`` to ``addr`` (none if empty)."""
        if not ids:
            return
        self.metrics.add("p2p_announce_sent", len(ids), scope=self.scope)
        self.transport.request(
            addr,
            "p2p.announce",
            {"from": self.transport.local_addr, "kind": kind, "ids": ids},
            on_result=lambda _reply: None,
            on_error=lambda _exc: None,  # best-effort; pings police liveness
            timeout_s=self.config.request_timeout_s,
        )

    # -- inbound -------------------------------------------------------------
    def handle_announce(self, params: Dict[str, Any]) -> Dict[str, Any]:
        sender = params.get("from") or ""
        kind = params.get("kind")
        ids = params.get("ids") or []
        if kind not in (KIND_TX, KIND_BLOCK) or not isinstance(ids, list):
            raise ValueError("malformed announce")
        if isinstance(sender, str) and sender:
            self.peers.note_alive(sender)
        wanted: List[str] = []
        for item_id in ids:
            if not isinstance(item_id, str):
                continue
            self.metrics.add("p2p_announce_recv", 1, scope=self.scope)
            fresh = self.seen.add(item_id)
            if self.has_item(kind, item_id):
                if not fresh:
                    self.metrics.add("p2p_announce_duplicate", 1, scope=self.scope)
                continue
            if sender and sender not in self._sources.setdefault(item_id, []):
                self._sources[item_id].append(sender)
            if item_id in self._in_flight:
                self.metrics.add("p2p_announce_duplicate", 1, scope=self.scope)
                continue
            wanted.append(item_id)
        for item_id in wanted:
            if kind == KIND_BLOCK and self.sync_active():
                # Sync is already downloading the chain; fetching announced
                # blocks in parallel would double-deliver bodies.
                self._deferred[(kind, item_id)] = None
                self.metrics.add("p2p_fetch_deferred", 1, scope=self.scope)
                while len(self._deferred) > self.seen.capacity:
                    (_, dropped), _ = self._deferred.popitem(last=False)
                    self._sources.pop(dropped, None)
                    self.metrics.add("p2p_fetch_deferred_dropped", 1, scope=self.scope)
                continue
            self._fetch(kind, item_id)
        return {"ok": True}

    def handle_get_data(self, params: Dict[str, Any]) -> Dict[str, Any]:
        kind = params.get("kind")
        ids = params.get("ids") or []
        if kind not in (KIND_TX, KIND_BLOCK) or not isinstance(ids, list):
            raise ValueError("malformed get_data")
        bodies = []
        for item_id in ids:
            if not isinstance(item_id, str):
                continue
            item = self.get_item(kind, item_id)
            if item is None:
                continue
            self.metrics.add("p2p_bodies_served", 1, scope=self.scope)
            bodies.append(tx_to_wire(item) if kind == KIND_TX else block_to_wire(item))
        return {"kind": kind, "bodies": bodies}

    # -- fetch-on-miss -------------------------------------------------------
    def resume_after_sync(self) -> None:
        """Re-evaluate fetches deferred while sync was running."""
        deferred, self._deferred = list(self._deferred), OrderedDict()
        for kind, item_id in deferred:
            if item_id in self._in_flight:
                continue
            if self.has_item(kind, item_id):  # sync delivered it
                self._sources.pop(item_id, None)
            else:
                self._fetch(kind, item_id)

    def _fetch(self, kind: str, item_id: str) -> None:
        sources = self._sources.get(item_id) or []
        if not sources:
            self._sources.pop(item_id, None)
            return
        source = sources.pop(0)
        self._in_flight[item_id] = kind
        self.metrics.add("p2p_fetches", 1, scope=self.scope)
        self.transport.request(
            source,
            "p2p.get_data",
            {"from": self.transport.local_addr, "kind": kind, "ids": [item_id]},
            on_result=lambda reply: self._on_bodies(kind, item_id, reply),
            on_error=lambda _exc: self._on_fetch_failed(kind, item_id),
            timeout_s=self.config.request_timeout_s,
        )

    def _on_fetch_failed(self, kind: str, item_id: str) -> None:
        self._in_flight.pop(item_id, None)
        self.metrics.add("p2p_fetch_failures", 1, scope=self.scope)
        self._fetch(kind, item_id)  # retry from the next announcer, if any

    def _on_bodies(self, kind: str, item_id: str, reply: Any) -> None:
        self._in_flight.pop(item_id, None)
        bodies = reply.get("bodies") if isinstance(reply, dict) else None
        if not bodies:
            self._on_fetch_failed(kind, item_id)
            return
        self._sources.pop(item_id, None)
        for wire in bodies:
            self._deliver(kind, wire)

    def _deliver(self, kind: str, wire: Any) -> None:
        try:
            if kind == KIND_TX:
                tx = tx_from_wire(wire)
                if self.has_item(kind, tx.tx_id):
                    self.metrics.add("p2p_duplicate_bodies", 1, scope=self.scope)
                    return
                self.deliver_tx(tx)
            else:
                block = block_from_wire(wire)
                if self.has_item(kind, block.block_id):
                    self.metrics.add("p2p_duplicate_bodies", 1, scope=self.scope)
                    return
                self.deliver_block(block)
        except ValidationError:
            self.metrics.add("p2p_invalid_bodies", 1, scope=self.scope)
