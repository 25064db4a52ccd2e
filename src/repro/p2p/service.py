"""P2PService — wires the protocol engines to one ``BlockchainNode``.

Every node builds exactly one service in its constructor; it is the only
way transactions and blocks leave or reach the node.  The service owns
the :class:`PeerManager`, :class:`Gossip`, and :class:`ChainSync` engines,
adapts them to the node's public surface (``store``, ``mempool``,
``receipt``, ``has_block``, ``receive_tx``, ``receive_block``), and
exposes the single ``dispatch(sender, method, params)`` entry point both
transports route inbound requests through.  The same service runs
unchanged over :class:`~repro.p2p.transport.SimTransport` and
:class:`~repro.p2p.rpc_transport.RpcTransport`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.chain.blocks import Block
from repro.chain.transactions import Transaction
from repro.obs.tracer import trace_span
from repro.p2p.gossip import KIND_BLOCK, KIND_TX, Gossip
from repro.p2p.peer import PeerManager
from repro.p2p.sync import ChainSync
from repro.p2p.transport import Transport
from repro.p2p.wire import block_to_wire, header_to_wire

#: The p2p method surface (also registered on the RPC server in TCP mode).
P2P_METHODS = (
    "p2p.hello",
    "p2p.ping",
    "p2p.announce",
    "p2p.get_data",
    "chain.get_headers",
    "chain.get_blocks",
)


class P2PService:
    """Discovery + gossip + sync for one blockchain node."""

    def __init__(self, node, transport: Transport):
        self.node = node
        self.transport = transport
        self.config = node.config.p2p
        metrics = node.metrics
        scope = node.name
        self.peers = PeerManager(
            transport,
            self.config,
            genesis_id=node.store.genesis.block_id,
            head_info=self._head_info,
            metrics=metrics,
            scope=scope,
            on_peer_connected=self._on_peer_connected,
            on_head_advertised=self._on_head_advertised,
        )
        self.sync = ChainSync(
            transport,
            self.peers,
            self.config,
            canonical_ids=lambda: node.store.canonical_ids,
            has_block=lambda block_id: block_id in node.store,
            # Sync delivers oldest-first, so the parent is already present;
            # the node's one inbound path handles dedup, verification, and
            # draining of buffered children.
            ingest_block=node.receive_block,
            head_info=self._head_info,
            on_complete=self._on_sync_complete,
            metrics=metrics,
            scope=scope,
        )
        self.gossip = Gossip(
            transport,
            self.peers,
            self.config,
            has_item=self._has_item,
            get_item=self._get_item,
            deliver_tx=self._deliver_tx,
            deliver_block=self._deliver_block,
            sync_active=lambda: self.sync.active,
            metrics=metrics,
            scope=scope,
        )
        self.metrics = metrics
        self.scope = scope
        transport.dispatch = self.dispatch

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self.peers.start()

    def stop(self) -> None:
        self.peers.stop()
        self.sync.stop()
        self.transport.close()

    # -- node adapters -------------------------------------------------------
    def _head_info(self) -> Tuple[int, str]:
        head = self.node.store.head
        return head.height, head.block_id

    def _has_item(self, kind: str, item_id: str) -> bool:
        if kind == KIND_TX:
            # A tx counts as "have" only while pooled or committed; one
            # the node refused (shed, rate-limited) is re-fetched on the
            # next announcement so it can be re-admitted once pressure
            # clears.
            return (
                item_id in self.node.mempool
                or self.node.receipt(item_id) is not None
            )
        return self.node.has_block(item_id)

    def _get_item(self, kind: str, item_id: str):
        if kind == KIND_TX:
            return self.node.mempool.get(item_id)
        if item_id in self.node.store:
            return self.node.store.get(item_id)
        return None

    def _deliver_tx(self, tx: Transaction) -> None:
        with trace_span("p2p.deliver_tx", node=self.scope, tx=tx.tx_id[:12]):
            self.node.receive_tx(tx)

    def _deliver_block(self, block: Block) -> None:
        with trace_span(
            "p2p.deliver_block", node=self.scope, height=block.height
        ):
            self.node.receive_block(block)

    # -- engine hand-offs ----------------------------------------------------
    def _on_peer_connected(self, addr: str) -> None:
        """On-connect inventory: what we hold that ``addr`` may have missed.

        ``announce`` reaches connected peers only, so anything pooled or
        sealed before this handshake completed (a tx submitted at boot, or
        during a partition) was never offered to ``addr``.  Offer the
        pooled tx ids, and our head when it differs from the one the peer
        just advertised; the peer fetches only what it lacks.
        """
        self.gossip.announce_to(addr, KIND_TX, self.node.mempool.all_ids())
        head_id = self.node.store.head.block_id
        if head_id != self.peers.peers[addr].head_id:
            self.gossip.announce_to(addr, KIND_BLOCK, [head_id])

    def _on_head_advertised(self, addr: str, height: int, head_id: str) -> None:
        self.sync.maybe_sync(addr, height, head_id)

    def _on_sync_complete(self) -> None:
        self.gossip.resume_after_sync()
        # If a better peer appeared while we were busy, go again.
        best = self.peers.best_peer()
        if best is not None and best.head_id:
            self.sync.maybe_sync(best.addr, best.head_height, best.head_id)

    # -- node-facing broadcast API ------------------------------------------
    def announce_tx(self, tx: Transaction) -> None:
        self.gossip.announce(KIND_TX, tx.tx_id)

    def announce_block(self, block: Block) -> None:
        self.gossip.announce(KIND_BLOCK, block.block_id)

    def request_backfill(self) -> bool:
        """Ask sync to catch up from the best-known peer (missing parent)."""
        best = self.peers.best_peer()
        if best is None:
            return False
        height, head_id = best.head_height, best.head_id
        if not head_id:
            return False
        return self.sync.maybe_sync(best.addr, height, head_id)

    # -- inbound dispatch ----------------------------------------------------
    def dispatch(self, sender: str, method: str, params: Dict[str, Any]) -> Any:
        with trace_span("p2p.serve", node=self.scope, method=method) as span:
            result = self._dispatch_inner(sender, method, params)
            if isinstance(result, dict) and "headers" in result:
                span.set_attr("headers", len(result["headers"]))
            return result

    def _dispatch_inner(self, sender: str, method: str, params: Dict[str, Any]) -> Any:
        if method == "p2p.hello":
            return self.peers.serve_hello(params)
        if method == "p2p.ping":
            return self.peers.serve_ping(params)
        if method == "p2p.announce":
            return self.gossip.handle_announce(params)
        if method == "p2p.get_data":
            return self.gossip.handle_get_data(params)
        if method == "chain.get_headers":
            return self.serve_headers(params)
        if method == "chain.get_blocks":
            return self.serve_blocks(params)
        raise ValueError(f"unknown p2p method {method!r}")

    # -- sync serving --------------------------------------------------------
    def serve_headers(self, params: Dict[str, Any]) -> Dict[str, Any]:
        locator = params.get("locator") or []
        limit = params.get("limit") or self.config.sync_headers_window
        if not isinstance(locator, list):
            raise ValueError("locator must be a list of block ids")
        blocks = self.node.store.headers_after(
            [b for b in locator if isinstance(b, str)], limit=limit
        )
        return {
            "headers": [header_to_wire(b.header, b.block_id) for b in blocks],
        }

    def serve_blocks(self, params: Dict[str, Any]) -> Dict[str, Any]:
        ids = params.get("ids") or []
        if not isinstance(ids, list):
            raise ValueError("ids must be a list of block ids")
        store = self.node.store
        bodies: List[Dict[str, Any]] = []
        for block_id in ids[: max(1, self.config.sync_batch_size)]:
            if isinstance(block_id, str) and block_id in store:
                bodies.append(block_to_wire(store.get(block_id)))
        return {"blocks": bodies}
