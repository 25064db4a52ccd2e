"""Gossip: the node that creates a body pushes it; relays announce its hash.

A node that creates a transaction (``submit_tx``) or seals a block pushes
the body to up to ``fanout`` peers in one ``p2p.push`` notification each.
Every copy names all the peers it went to, so a receiver knows each of
them holds the id.  A block is pushed *compact*, its header plus tx ids,
and the receiver rebuilds it from its own pool, which already holds almost
every tx; on a pool miss it falls back to one ``chain.get_blocks`` for the
full block from the pusher.

Every other hop is announce-by-hash with fetch-on-miss, and each peer is
sent only what it lacks.  A relay announces the *id* to up to ``fanout``
sampled peers, skipping every peer known to hold it: one that announced or
pushed the id to us, fetched it from us, or was named by a push or an
announce.  That holder set is the value of the id's :class:`SeenCache`
entry, so it is bounded and forgotten with the id, and an announce names
it, so the next relay skips those peers too.  On a full mesh the push
reaches every peer and names them all, so nothing is re-announced.  An
announce, like a push, is a notification (``Transport.notify``): it is
never answered, so it costs no response frame, future or timer.  The on-connect inventory
skips the filter — a peer that reconnects may have restarted empty.

A peer that lacks an announced body fetches it once via ``p2p.get_data``
(an in-flight guard dedups concurrent announcements, alternate announcers
are kept as failover sources; a block comes compact, as a push does).  A
fetch the only source refuses transiently (overloaded, timed out, shutting
down: ``PeerUnreachable``) is retried against it after a short
kernel-scheduled backoff, ``FETCH_ATTEMPTS`` tries in all.  Received bodies
are handed to the node, which relays by announcing — so propagation is one
pushed body per first-hop peer, O(fanout · nodes) id-sized messages beyond
it, and one body per block per node; the ``p2p_duplicate_bodies`` counter
(bodies received for an id we already had) is the experiment's zero-flood
gate.

A lost push is not repaired by relays, which believe the named peer holds
the item: that peer receives a tx in the block that commits it (a compact
miss, then ``chain.get_blocks``), and a block by headers-first sync.

While headers-first sync is active, announce-triggered fetches are
deferred: sync will deliver those blocks in order anyway, and fetching
them a second time would be exactly the duplicate delivery the protocol
exists to avoid.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chain.blocks import Block, BlockHeader
from repro.common.errors import ValidationError
from repro.p2p.config import P2PConfig
from repro.p2p.transport import PeerUnreachable, Transport
from repro.p2p.wire import (
    block_from_wire,
    compact_block_from_wire,
    compact_block_to_wire,
    tx_from_wire,
    tx_to_wire,
)
from repro.sim.metrics import MetricsRegistry

KIND_TX = "tx"
KIND_BLOCK = "block"
#: Tries a fetch makes against a source that refuses it transiently while
#: there is no other source; the n-th retry waits n backoff units.
FETCH_ATTEMPTS = 3
FETCH_RETRY_BACKOFF_S = 0.05


class SeenCache:
    """Bounded LRU of ids, each with the peers known to hold it."""

    def __init__(self, capacity: int):
        self.capacity = max(1, int(capacity))
        self._items: "OrderedDict[str, Tuple[str, ...]]" = OrderedDict()

    def add(self, item_id: str, holder: str = "") -> bool:
        """Record ``item_id``, held by ``holder`` if given; True when the id was new."""
        items = self._items
        holders = items.get(item_id)
        if holders is None:
            items[item_id] = (holder,) if holder else ()
            while len(items) > self.capacity:
                items.popitem(last=False)
            return True
        items.move_to_end(item_id)
        if holder and holder not in holders:
            items[item_id] = holders + (holder,)
        return False

    def holders(self, item_id: str) -> Tuple[str, ...]:
        return self._items.get(item_id, ())

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
        # id -> remaining announcer addresses to fail over to.
        self._sources: Dict[str, List[str]] = {}
        # id -> (source, attempt) of the fetch in flight or backing off.
        self._in_flight: Dict[str, Tuple[str, int]] = {}
        # Fetches put off while sync runs, oldest first; never more than
        # ``seen_cache_size``, and their ``_sources`` go with them.
        self._deferred: "OrderedDict[Tuple[str, str], None]" = OrderedDict()
        # Compact blocks waiting for txs in flight: id -> (header, tx ids).
        self._parked: Dict[str, Tuple[BlockHeader, List[str]]] = {}

    # -- outbound ------------------------------------------------------------
    def push(self, kind: str, item_id: str, item: Any) -> None:
        """Send the body of a new ``item`` to up to ``fanout`` peers not known
        to hold it; each copy names every recipient, and they become holders."""
        self.seen.add(item_id)
        targets = self.peers.sample(self.config.fanout, exclude=self.seen.holders(item_id))
        if not targets:
            return
        body = tx_to_wire(item) if kind == KIND_TX else compact_block_to_wire(item)
        params = {
            "from": self.transport.local_addr,
            "kind": kind,
            "id": item_id,
            "bodies": [body],
            "to": targets,
        }
        for addr in targets:
            self.seen.add(item_id, addr)
        self.transport.notify(targets, "p2p.push", params)
        self.metrics.add("p2p_push_sent", len(targets), scope=self.scope)

    def announce(self, kind: str, item_id: str) -> int:
        """Advertise ``item_id`` to up to ``fanout`` peers not known to hold
        it, naming the peers that are known to."""
        self.seen.add(item_id)
        holders = self.seen.holders(item_id)
        targets = self.peers.sample(self.config.fanout, exclude=holders)
        for addr in targets:
            self.announce_to(addr, kind, [item_id], holders[: self.config.max_peers])
        return len(targets)

    def announce_to(self, addr: str, kind: str, ids: List[str], holders=()) -> None:
        """One ``p2p.announce`` of ``ids`` to ``addr`` (none if empty), naming ``holders``."""
        if not ids:
            return
        self.metrics.add("p2p_announce_sent", len(ids), scope=self.scope)
        params = {"from": self.transport.local_addr, "kind": kind, "ids": ids}
        if holders:
            params["holders"] = list(holders)
        self.transport.notify([addr], "p2p.announce", params)

    # -- inbound -------------------------------------------------------------
    def handle_announce(self, params: Dict[str, Any]) -> None:
        sender = params.get("from") or ""
        kind = params.get("kind")
        ids = params.get("ids") or []
        if kind not in (KIND_TX, KIND_BLOCK) or not isinstance(ids, list):
            raise ValueError("malformed announce")
        if not isinstance(sender, str):
            sender = ""
        if sender:
            self.peers.note_alive(sender)
        for item_id in ids:
            if not isinstance(item_id, str):
                continue
            self.metrics.add("p2p_announce_recv", 1, scope=self.scope)
            fresh = self.seen.add(item_id, sender)
            self._note_holders(item_id, params.get("holders"))
            if self.has_item(kind, item_id):
                if not fresh:
                    self.metrics.add("p2p_announce_duplicate", 1, scope=self.scope)
                continue
            if sender and sender not in self._sources.setdefault(item_id, []):
                self._sources[item_id].append(sender)
            if item_id in self._in_flight:
                self.metrics.add("p2p_announce_duplicate", 1, scope=self.scope)
                continue
            self._fetch(kind, item_id)

    def handle_push(self, params: Dict[str, Any]) -> None:
        """A body its creator sent unasked, naming the peers it went to.

        The push must carry exactly one body, and that body must be the
        pushed id (a compact block's header hashes to it); otherwise it is
        counted as invalid and nothing is recorded or delivered.  The sender
        and the named peers become holders of the id, so the relay that
        follows skips them.
        """
        self.metrics.add("p2p_push_recv", 1, scope=self.scope)
        sender = params.get("from")
        sender = sender if isinstance(sender, str) else ""
        kind, item_id = params.get("kind"), params.get("id")
        bodies, named = params.get("bodies"), params.get("to")
        try:
            if (
                kind not in (KIND_TX, KIND_BLOCK)
                or not isinstance(item_id, str)
                or not isinstance(bodies, list)
                or len(bodies) != 1
                or not isinstance(named, list)
            ):
                raise ValidationError("malformed push")
            if kind == KIND_TX:
                item = tx_from_wire(bodies[0])
                if item.tx_id != item_id:
                    raise ValidationError(f"pushed tx is not {item_id[:12]}")
            else:
                header, tx_ids = compact_block_from_wire(bodies[0], item_id)
        except ValidationError:
            self.metrics.add("p2p_invalid_bodies", 1, scope=self.scope)
            return
        if sender:
            self.peers.note_alive(sender)
        self.seen.add(item_id, sender)
        self._note_holders(item_id, named)
        if self.has_item(kind, item_id):
            self.metrics.add("p2p_duplicate_bodies", 1, scope=self.scope)
        elif kind == KIND_TX:
            self.deliver_tx(item)
            self._settle(item_id)  # and assemble the blocks parked for it
        else:
            self._in_flight.setdefault(item_id, (sender, 1))  # a pool miss asks the pusher
            self._assemble(item_id, header, tx_ids)

    def _note_holders(self, item_id: str, named: Any) -> None:
        """Record the ``named`` peers this node tracks, at most ``max_peers``, as holders."""
        if not isinstance(named, list):
            return
        tracked = [addr for addr in named if isinstance(addr, str) and addr in self.peers.peers]
        for addr in tracked[: self.config.max_peers]:
            self.seen.add(item_id, addr)

    def handle_get_data(self, params: Dict[str, Any]) -> Dict[str, Any]:
        kind = params.get("kind")
        ids = params.get("ids") or []
        if kind not in (KIND_TX, KIND_BLOCK) or not isinstance(ids, list):
            raise ValueError("malformed get_data")
        requester = params.get("from")
        requester = requester if isinstance(requester, str) else ""
        bodies = []
        for item_id in ids:
            if not isinstance(item_id, str):
                continue
            item = self.get_item(kind, item_id)
            if item is None:
                continue
            self.seen.add(item_id, requester)
            self.metrics.add("p2p_bodies_served", 1, scope=self.scope)
            bodies.append(tx_to_wire(item) if kind == KIND_TX else compact_block_to_wire(item))
        return {"kind": kind, "bodies": bodies}

    # -- fetch-on-miss -------------------------------------------------------
    def resume_after_sync(self) -> None:
        """Re-evaluate fetches deferred while sync was running."""
        deferred, self._deferred = list(self._deferred), OrderedDict()
        for kind, item_id in deferred:
            if item_id not in self._in_flight:
                self._fetch_unless_had(kind, item_id)

    def _fetch_unless_had(
        self, kind: str, item_id: str, source: str = "", attempt: int = 1
    ) -> None:
        if self.has_item(kind, item_id):  # it came by another path meanwhile
            self._settle(item_id)
        else:
            self._fetch(kind, item_id, source, attempt)

    def _fetch(self, kind: str, item_id: str, source: str = "", attempt: int = 1) -> None:
        """``p2p.get_data`` for ``item_id`` from ``source``, else from the next announcer."""
        if self.sync_active():
            self._defer(kind, item_id, source)
            return
        if not source:
            sources = self._sources.get(item_id)
            if not sources:
                self._settle(item_id)
                return
            source = sources.pop(0)
        self._in_flight[item_id] = (source, attempt)
        self.metrics.add("p2p_fetches", 1, scope=self.scope)
        self.transport.request(
            source,
            "p2p.get_data",
            {"from": self.transport.local_addr, "kind": kind, "ids": [item_id]},
            on_result=lambda reply: self._on_bodies(kind, item_id, reply),
            on_error=lambda exc: self._on_fetch_failed(kind, item_id, exc),
            timeout_s=self.config.request_timeout_s,
        )

    def _defer(self, kind: str, item_id: str, source: str = "") -> None:
        """Put a fetch off until sync ends, asking ``source`` first then.

        Sync is already downloading the chain, and its blocks carry their
        txs: fetching in parallel could deliver a body twice.
        """
        if source:
            self._sources.setdefault(item_id, []).insert(0, source)
        self._deferred[(kind, item_id)] = None
        self.metrics.add("p2p_fetch_deferred", 1, scope=self.scope)
        while len(self._deferred) > self.seen.capacity:
            (_, dropped), _ = self._deferred.popitem(last=False)
            self._settle(dropped)
            self.metrics.add("p2p_fetch_deferred_dropped", 1, scope=self.scope)

    def _on_fetch_failed(
        self, kind: str, item_id: str, error: Optional[Exception] = None
    ) -> None:
        source, attempt = self._in_flight.pop(item_id, ("", FETCH_ATTEMPTS))
        self.metrics.add("p2p_fetch_failures", 1, scope=self.scope)
        if (
            isinstance(error, PeerUnreachable)
            and attempt < FETCH_ATTEMPTS
            and not self._sources.get(item_id)
        ):
            # The only source is busy, not wrong: ask it again shortly.  The
            # in-flight guard stays up, so announces meanwhile only add sources.
            self.metrics.add("p2p_fetch_retries", 1, scope=self.scope)
            self._in_flight[item_id] = (source, attempt)
            self.transport.schedule(
                FETCH_RETRY_BACKOFF_S * attempt,
                lambda: self._retry(kind, item_id, source, attempt + 1),
                label=f"{self.scope}:fetch-retry",
            )
            return
        self._fetch_unless_had(kind, item_id)  # fail over to the next announcer, if any

    def _retry(self, kind: str, item_id: str, source: str, attempt: int) -> None:
        self._in_flight.pop(item_id, None)
        self._fetch_unless_had(kind, item_id, source, attempt)

    def _on_bodies(self, kind: str, item_id: str, reply: Any) -> None:
        bodies = reply.get("bodies") if isinstance(reply, dict) else None
        if not bodies:
            self._on_fetch_failed(kind, item_id)
            return
        if kind == KIND_TX:
            for wire in bodies:
                self._deliver(kind, tx_from_wire, wire)
            self._settle(item_id)
        elif self.has_item(kind, item_id):
            self._settle(item_id)
            self.metrics.add("p2p_duplicate_bodies", 1, scope=self.scope)
        else:
            try:
                header, tx_ids = compact_block_from_wire(bodies[0], item_id)
            except ValidationError:
                self._settle(item_id)
                self.metrics.add("p2p_invalid_bodies", 1, scope=self.scope)
                return
            self._assemble(item_id, header, tx_ids)

    def _assemble(self, block_id: str, header: BlockHeader, tx_ids: List[str]) -> None:
        """Rebuild compact block ``block_id`` from the pool and deliver it.

        A missing tx that is being fetched is waited for: the block is
        parked until that fetch settles.  Otherwise the whole block comes
        from the same source, and its missing txs ride on that request —
        they count as in flight, so an announce meanwhile only adds a source.
        """
        if self.has_item(KIND_BLOCK, block_id):  # sync brought it while parked
            self._settle(block_id)
            return
        txs = [self.get_item(KIND_TX, tx_id) for tx_id in tx_ids]
        missing = [tx_id for tx_id, tx in zip(tx_ids, txs) if tx is None]
        if not missing:
            self._settle(block_id)
            self.deliver_block(Block(header=header, transactions=txs))
            return
        if any(tx_id in self._in_flight for tx_id in missing):
            self._parked[block_id] = (header, tx_ids)
            return
        self._parked.pop(block_id, None)
        source, attempt = self._in_flight.pop(block_id)
        if self.sync_active():
            self._defer(KIND_BLOCK, block_id, source)
            return
        self._in_flight[block_id] = (source, attempt)
        for tx_id in missing:
            self._in_flight[tx_id] = (source, FETCH_ATTEMPTS)
        self.metrics.add("p2p_compact_misses", 1, scope=self.scope)
        self.transport.request(
            source,
            "chain.get_blocks",
            {"from": self.transport.local_addr, "ids": [block_id]},
            on_result=lambda reply: self._on_whole_block(block_id, missing, reply),
            on_error=lambda exc: self._on_whole_block(block_id, missing, None, exc),
            timeout_s=self.config.request_timeout_s,
        )

    def _on_whole_block(
        self, block_id: str, riders: List[str], reply: Any, error: Optional[Exception] = None
    ) -> None:
        blocks = reply.get("blocks") if isinstance(reply, dict) else None
        if blocks:
            self._settle(block_id)
            self._deliver(KIND_BLOCK, block_from_wire, blocks[0])
        else:
            self._on_fetch_failed(KIND_BLOCK, block_id, error)
        for tx_id in riders:  # committed by the block now, or still wanted
            self._in_flight.pop(tx_id, None)
            self._fetch_unless_had(KIND_TX, tx_id)

    def _settle(self, item_id: str) -> None:
        """``item_id``'s fetch is over: drop its bookkeeping, and try again
        to assemble the blocks that were waiting for it."""
        self._in_flight.pop(item_id, None)
        self._sources.pop(item_id, None)
        if not self._parked:
            return
        self._parked.pop(item_id, None)
        for block_id, (header, tx_ids) in list(self._parked.items()):
            if block_id in self._parked and item_id in tx_ids:
                self._assemble(block_id, header, tx_ids)

    def _deliver(self, kind: str, decode: Callable[[Any], Any], wire: Any) -> None:
        try:
            item = decode(wire)
            if self.has_item(kind, item.tx_id if kind == KIND_TX else item.block_id):
                self.metrics.add("p2p_duplicate_bodies", 1, scope=self.scope)
            elif kind == KIND_TX:
                self.deliver_tx(item)
            else:
                self.deliver_block(item)
        except ValidationError:
            self.metrics.add("p2p_invalid_bodies", 1, scope=self.scope)
