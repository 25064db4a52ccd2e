"""Headers-first chain sync.

A node that learns (via handshake or anti-entropy ping) of a peer whose
head is ahead runs rounds of:

1. ``chain.get_headers`` with an exponentially-spaced *locator* of its
   own canonical block ids (dense near the head, sparse toward genesis)
   — the peer answers with up to ``sync_headers_window`` headers after
   the highest locator entry it recognizes;
2. linkage validation (each header's parent hash must name its
   predecessor; ids are *recomputed* from the decoded headers, never
   trusted from the wire);
3. ``chain.get_blocks`` for the unknown ids, in ``sync_batch_size``
   chunks, delivered to the node oldest-first so each block finds its
   parent state already present.

Rounds repeat until the peer has nothing newer, then sync hands control
back to gossip (which deferred block fetches while sync ran).  Any
request failure aborts the attempt; the next ping that shows a peer
ahead restarts it, possibly against a different peer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ValidationError
from repro.p2p.config import P2PConfig
from repro.p2p.transport import Transport
from repro.p2p.wire import block_from_wire, header_from_wire
from repro.sim.metrics import MetricsRegistry


def build_locator(chain_ids: List[str], max_entries: int = 24) -> List[str]:
    """Exponentially-spaced locator over a canonical id list (oldest-first).

    The last 8 ids are included densely, then the gap doubles, and the
    genesis id is always last — the standard headers-first shape: a peer
    on a shared prefix finds the fork point within one round regardless
    of how far ahead it is.
    """
    if not chain_ids:
        return []
    locator: List[str] = []
    index = len(chain_ids) - 1
    step = 1
    while index > 0 and len(locator) < max_entries - 1:
        locator.append(chain_ids[index])
        if len(locator) >= 8:
            step *= 2
        index -= step
    locator.append(chain_ids[0])
    return locator


class ChainSync:
    """Headers-first catch-up for one node."""

    def __init__(
        self,
        transport: Transport,
        peers,
        config: P2PConfig,
        *,
        canonical_ids: Callable[[], List[str]],
        has_block: Callable[[str], bool],
        ingest_block: Callable[[Any], None],
        head_info: Callable[[], Tuple[int, str]],
        would_win: Callable[[int, str], bool],
        on_complete: Optional[Callable[[], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        scope: str = "",
    ):
        self.transport = transport
        self.peers = peers
        self.config = config
        self.canonical_ids = canonical_ids
        self.has_block = has_block
        self.ingest_block = ingest_block
        self.head_info = head_info
        self.would_win = would_win
        self.on_complete = on_complete
        self.metrics = metrics or MetricsRegistry()
        self.scope = scope or transport.local_addr
        self.active = False
        self._peer: Optional[str] = None
        self._target_height = -1
        self._queue: List[str] = []  # unknown ids still to download, oldest-first

    # -- triggers ------------------------------------------------------------
    def maybe_sync(self, peer_addr: str, height: int, head_id: str) -> bool:
        """Start syncing from ``peer_addr`` if its head would win our fork
        choice: higher, or level with a lower id.  A level fork nobody
        builds on (no txs left to propose) would otherwise never heal."""
        if self.has_block(head_id) or not self.would_win(height, head_id):
            return False
        if self.active:
            # One download pipeline at a time; the periodic ping exchange
            # will re-trigger if this peer is still ahead afterwards.
            return False
        self.active = True
        self._peer = peer_addr
        self._target_height = height
        self.metrics.add("p2p_sync_started", 1, scope=self.scope)
        self._request_headers()
        return True

    # -- header rounds -------------------------------------------------------
    def _request_headers(self) -> None:
        self.metrics.add("p2p_sync_rounds", 1, scope=self.scope)
        self.transport.request(
            self._peer,
            "chain.get_headers",
            {
                "from": self.transport.local_addr,
                "locator": build_locator(self.canonical_ids()),
                "limit": self.config.sync_headers_window,
            },
            on_result=self._on_headers,
            on_error=lambda exc: self._abort(f"get_headers: {exc}"),
            timeout_s=self.config.request_timeout_s,
        )

    def _on_headers(self, reply: Any) -> None:
        if not self.active:
            return
        wires = reply.get("headers") if isinstance(reply, dict) else None
        if not isinstance(wires, list) or not wires:
            self._finish()  # peer has nothing newer for us
            return
        try:
            ids = self._validate_linkage(wires)
        except ValidationError as exc:
            self._abort(f"bad headers: {exc}")
            return
        self._queue = [block_id for block_id in ids if not self.has_block(block_id)]
        if not self._queue:
            # Entire window already known (e.g. gossip raced ahead of us).
            self._continue_or_finish()
            return
        self._request_batch()

    def _validate_linkage(self, wires: List[Any]) -> List[str]:
        """Decode headers, check the parent chain, return recomputed ids."""
        ids: List[str] = []
        previous_id: Optional[str] = None
        for wire in wires:
            header = header_from_wire(wire)
            parent_id = header.parent_hash.hex()
            if previous_id is None:
                # The window must attach to something we already have.
                if not self.has_block(parent_id):
                    raise ValidationError("headers do not attach to our chain")
            elif parent_id != previous_id:
                raise ValidationError("broken header linkage")
            previous_id = header.block_hash().hex()
            ids.append(previous_id)
        return ids

    # -- body batches --------------------------------------------------------
    def _request_batch(self) -> None:
        batch = self._queue[: max(1, self.config.sync_batch_size)]
        self.transport.request(
            self._peer,
            "chain.get_blocks",
            {"from": self.transport.local_addr, "ids": batch},
            on_result=lambda reply: self._on_blocks(batch, reply),
            on_error=lambda exc: self._abort(f"get_blocks: {exc}"),
            timeout_s=self.config.request_timeout_s,
        )

    def _on_blocks(self, batch: List[str], reply: Any) -> None:
        if not self.active:
            return
        wires = reply.get("blocks") if isinstance(reply, dict) else None
        if not isinstance(wires, list) or not wires:
            self._abort("peer returned no blocks for a batch it advertised")
            return
        delivered = 0
        try:
            for wire in wires:
                block = block_from_wire(wire)
                if block.block_id not in batch:
                    raise ValidationError("unrequested block in batch")
                self.metrics.add("p2p_sync_blocks", 1, scope=self.scope)
                self.ingest_block(block)  # oldest-first: parent already in
                delivered += 1
        except ValidationError as exc:
            self._abort(f"bad block body: {exc}")
            return
        self._queue = self._queue[delivered:]
        if self._queue:
            self._request_batch()
        else:
            self._continue_or_finish()

    def _continue_or_finish(self) -> None:
        our_height, _ = self.head_info()
        if our_height < self._target_height:
            self._request_headers()
        else:
            self._finish()

    # -- termination ---------------------------------------------------------
    def _finish(self) -> None:
        self.active = False
        self._peer = None
        self._queue = []
        self.metrics.add("p2p_sync_completed", 1, scope=self.scope)
        if self.on_complete is not None:
            self.on_complete()

    def _abort(self, reason: str) -> None:
        if not self.active:
            return
        # Counts toward the peer's eviction like a lost ping, so the
        # retry ``on_complete`` starts cannot pick a dead peer forever.
        self.peers.note_failure(self._peer)
        self.active = False
        self._peer = None
        self._queue = []
        self.metrics.add("p2p_sync_aborted", 1, scope=self.scope)
        if self.on_complete is not None:
            self.on_complete()

    def stop(self) -> None:
        self.active = False
        self._peer = None
        self._queue = []
