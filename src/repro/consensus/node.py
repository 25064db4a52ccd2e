"""A full blockchain node: mempool, gossip, mining/proposal loop, execution.

This implements the *un-transformed* commercial-blockchain behaviour the
paper starts from (section I): every transaction reaches every
participant, every node re-executes every smart contract, and consensus
requires the whole network to agree on each ledger modification.  The
duplicated work is charged to the metrics registry per node, so experiments
can quantify exactly what the transformed architecture (``repro.core``)
saves.

Dissemination has one path: every node owns a
:class:`~repro.p2p.service.P2PService` over the ``Transport`` it is built
with (``SimTransport`` on the simulation kernel, ``RpcTransport`` over
TCP).  A node pushes the body of a transaction it admits from a client, or
a block it seals, to its peers and names them; a relay announces by id, a
body is fetched once per node, and a missed ancestor is repaired by
headers-first sync (DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.chain.blocks import Block, build_block
from repro.chain.executor import ContractEvent, ExecutionContext, Receipt
from repro.chain.mempool import (
    DUPLICATE,
    AdmissionResult,
    Mempool,
    MempoolConfig,
)
from repro.chain.state import StateDB
from repro.chain.store import ChainStore
from repro.chain.transactions import Transaction
from repro.common.errors import ValidationError
from repro.consensus.base import ConsensusEngine
from repro.obs.tracer import trace_span
from repro.contracts.runtime import ContractExecutor
from repro.p2p.config import P2PConfig
from repro.p2p.gossip import SeenCache
from repro.p2p.service import P2PService
from repro.p2p.transport import SimTransport, Transport
from repro.sim.kernel import EventHandle, Kernel, Process
from repro.sim.metrics import MetricsRegistry

EventSubscriber = Callable[[ContractEvent], None]

#: Blocks held while their parent has not arrived; the oldest is dropped
#: (and may be offered again) once the buffer is full.
MAX_WAITING_BLOCKS = 512
#: Ids of refused blocks remembered (LRU) so they are not fetched again.
MAX_REJECTED_BLOCKS = 4096


@dataclass
class NodeConfig:
    """Tunables for a blockchain node.

    None of them changes how a block executes: every node applies a block's
    transactions one after another, in block order (``_apply_block``).
    """

    max_txs_per_block: int = 200
    mine_empty: bool = False
    # Per-block states older than this many blocks below the head are
    # dropped, so state memory is bounded by chain *width* within the
    # window rather than chain *length* (a dropped state's trie nodes that
    # no retained state shares are garbage).  Longest-chain reorgs deeper
    # than the window cannot be re-validated (their parent states are
    # gone); 0 disables pruning.  Matches the fork-choice finality
    # assumption of ChainStore.
    state_prune_window: int = 64
    # Fee-market mempool policy (repro.chain.mempool.MempoolConfig): price
    # priority, replace-by-fee, capacity eviction, watermark shedding, and
    # per-account rate limiting.  None uses permissive defaults that admit
    # unfee'd development traffic FIFO-style.
    mempool: Optional[MempoolConfig] = None
    # Peer-to-peer settings of the node's P2PService: seeds, announce
    # fanout, sync windows, ping/timeout periods (repro.p2p.P2PConfig).
    p2p: P2PConfig = field(default_factory=P2PConfig)


@dataclass
class _Executed:
    """What a node keeps per executed block while it is inside the prune window."""

    state: StateDB
    receipts: List[Receipt]
    # Events go to subscribers once, however often the block re-joins the
    # canonical chain.
    emitted: bool = False


class BlockchainNode(Process):
    """One participant in the medical blockchain network (Figure 2)."""

    def __init__(
        self,
        kernel: Kernel,
        transport: Transport,
        name: str,
        genesis: Block,
        genesis_state: StateDB,
        consensus: ConsensusEngine,
        executor: Optional[ContractExecutor] = None,
        metrics: Optional[MetricsRegistry] = None,
        config: Optional[NodeConfig] = None,
    ):
        super().__init__(kernel, name)
        self.consensus = consensus
        self.executor = executor or ContractExecutor()
        self.metrics = metrics or MetricsRegistry()
        self.config = config or NodeConfig()
        self.store = ChainStore(genesis)
        self.mempool = Mempool(
            config=self.config.mempool,
            time_source=lambda: self.now,
            metrics=self.metrics,
            scope=name,
        )
        # One record per block: at most the prune window, the window
        # boundary and the fork tips inside the window (_prune_states).
        self._executed: Dict[str, _Executed] = {
            genesis.block_id: _Executed(genesis_state.fork(), [])
        }
        self._receipts_by_tx: Dict[str, Receipt] = {}
        # Blocks waiting for an ancestor that headers-first sync is
        # fetching, by block id, oldest first (<= MAX_WAITING_BLOCKS).
        self._waiting: Dict[str, Block] = {}
        self._rejected = SeenCache(MAX_REJECTED_BLOCKS)
        self._event_subscribers: List[EventSubscriber] = []
        # Submission time of txs submitted here, until they commit; never
        # more entries than the pool has room for, oldest dropped first.
        self._tx_submit_times: Dict[str, float] = {}
        self._proposal_handle: Optional[EventHandle] = None
        self._round_start: Optional[float] = None
        self._started = False
        self.events: List[ContractEvent] = []
        self.p2p = P2PService(self, transport)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Dial the seed peers and begin participating in consensus."""
        self._started = True
        self.p2p.start()
        self._plan_round()

    def stop(self) -> None:
        self._started = False
        self._cancel_round()
        self.p2p.stop()

    # -- public API --------------------------------------------------------
    @property
    def head(self) -> Block:
        return self.store.head

    @property
    def state(self) -> StateDB:
        """World state at the canonical head."""
        return self._executed[self.store.head.block_id].state

    def receipt(self, tx_id: str) -> Optional[Receipt]:
        return self._receipts_by_tx.get(tx_id)

    def subscribe_events(self, subscriber: EventSubscriber) -> None:
        """Register a contract-event callback (the monitor node hook, Fig. 3)."""
        self._event_subscribers.append(subscriber)

    def submit_tx(self, tx: Transaction) -> AdmissionResult:
        """Inject a transaction locally and push its body to the peers.

        Returns the pool's typed admission outcome (truthy iff the pool
        now holds the transaction).  Rejected transactions are *not*
        sent to peers — an underpriced or rate-limited bid dies
        here instead of consuming network-wide gossip bandwidth — and
        are *forgotten*: the duplicate check is answered by current
        pool membership and committed receipts, never by a
        first-contact set, so a bid refused under transient overload
        (RATE_LIMITED, POOL_FULL) can be resubmitted and admitted once
        pressure clears.
        """
        tx.validate()
        if tx.tx_id in self._receipts_by_tx:
            return AdmissionResult(
                DUPLICATE, tx_id=tx.tx_id, reason="already committed"
            )
        added = self._admit_tx(tx)
        if added:
            times = self._tx_submit_times
            times.setdefault(tx.tx_id, self.now)
            if len(times) > self.mempool.max_size:
                # Only entries whose tx the pool evicted uncommitted can
                # push it past the pool's size; one latency sample is lost.
                del times[next(iter(times))]
            self.p2p.push_tx(tx)
            if self._started and self._proposal_handle is None:
                self._plan_round()
        return added

    def _admit_tx(self, tx: Transaction) -> AdmissionResult:
        """Offer a transaction to the pool with the head account nonce."""
        return self.mempool.add(tx, account_nonce=self.state.nonce(tx.sender))

    def call_view(
        self,
        contract_id: str,
        method: str,
        args: Optional[Dict[str, Any]] = None,
        caller: str = "",
    ) -> Any:
        """Read-only contract call against this node's head state."""
        return self.executor.execute_view(
            self.state,
            contract_id,
            method,
            args,
            caller=caller or self.name,
            context=ExecutionContext(
                block_height=self.head.height,
                timestamp_ms=int(self.now * 1000),
                node_name=self.name,
            ),
        )

    # -- inbound from p2p ---------------------------------------------------
    def receive_tx(self, tx: Transaction) -> None:
        """A transaction body a peer pushed or served us: admit, then relay."""
        if tx.tx_id in self.mempool or tx.tx_id in self._receipts_by_tx:
            return
        try:
            tx.validate()
        except ValidationError:
            return
        added = self._admit_tx(tx)
        # Only transactions this node actually pooled are relayed: spam the
        # fee market refused (underpriced, rate-limited, shed) dies at the
        # first hop instead of propagating across the network.  Refusals
        # are not remembered, so a re-announcement after a transient
        # shedding or rate-limiting episode gets a fresh admission
        # decision instead of being dropped forever.
        if added:
            self.p2p.announce_tx(tx)
            if self._started and self._proposal_handle is None:
                self._plan_round()

    def has_block(self, block_id: str) -> bool:
        """Whether a block body has reached this node: stored, waiting for
        its parent, or refused (while the refusal is remembered)."""
        return (
            block_id in self.store
            or block_id in self._waiting
            or block_id in self._rejected
        )

    def receive_block(self, block: Block) -> None:
        """A block body from gossip or sync: verify, execute, adopt, relay."""
        if self.has_block(block.block_id):
            return
        if block.header.parent_hash.hex() in self.store:
            self._ingest_block(block)
            return
        # We missed an ancestor (e.g. during a partition): buffer the block
        # and let headers-first sync fill the gap.
        self._waiting[block.block_id] = block
        self.metrics.add("blocks_waiting_parent", 1, scope=self.name)
        if len(self._waiting) > MAX_WAITING_BLOCKS:
            del self._waiting[next(iter(self._waiting))]
            self.metrics.add("blocks_waiting_dropped", 1, scope=self.name)
        self.p2p.request_backfill()

    def _ingest_block(self, block: Block) -> None:
        """Verify, execute and adopt a block whose parent is stored, then
        the blocks that were waiting for it, depth first."""
        stack = [block]
        while stack:
            block = stack.pop()
            executed = self._verify_and_execute(block)
            if executed is None:
                self._rejected.add(block.block_id)
                continue
            self._adopt(block, *executed, relay=self.p2p.announce_block)
            stack.extend(reversed(self._take_waiting(block.block_id)))

    def _take_waiting(self, parent_id: str) -> List[Block]:
        """Remove and return the buffered children of ``parent_id``, oldest first."""
        if not self._waiting:
            return []
        children = [
            block
            for block in self._waiting.values()
            if block.header.parent_hash.hex() == parent_id
        ]
        for child in children:
            del self._waiting[child.block_id]
        return children

    def _adopt(
        self,
        block: Block,
        state: StateDB,
        receipts: List[Receipt],
        relay: Callable[[Block], None],
    ) -> None:
        """Keep an executed block: record, store, ``relay`` it, follow the head."""
        self._executed[block.block_id] = _Executed(state, receipts)
        left, joined = self.store.add(block)
        relay(block)
        if joined:
            self._on_new_head(left, joined)

    def _recover_states(self, block_id: str, max_depth: Optional[int] = None) -> bool:
        """Rebuild the post-state of a stored block by re-executing forward.

        Walks parent links back to the nearest ancestor whose state is
        still held (bounded by the prune window — states older than that
        are gone by design), then verifies and re-executes each block on
        the path.  Returns True when ``block_id``'s state is available
        afterwards.
        """
        if block_id in self._executed:
            return True
        if max_depth is None:
            max_depth = self.config.state_prune_window or len(self.store)
        path: List[Block] = []
        current_id = block_id
        while current_id not in self._executed:
            if current_id not in self.store or len(path) >= max_depth:
                return False  # gap reaches below the retained window
            block = self.store.get(current_id)
            path.append(block)
            current_id = block.header.parent_hash.hex()
        for block in reversed(path):
            executed = self._verify_and_execute(block)
            if executed is None:
                return False
            # A block that is canonical joined the chain, and had its
            # events emitted, before its record was lost.
            self._executed[block.block_id] = _Executed(
                *executed, emitted=self.store.is_canonical(block)
            )
            self.metrics.add("states_recovered", 1, scope=self.name)
        return True

    # -- verification (the duplicated computing) -----------------------------
    def _verify_and_execute(
        self, block: Block
    ) -> Optional[Tuple[StateDB, List[Receipt]]]:
        """Verify proof and re-execute the block's transactions.

        Every node does this for every block — the per-node gas charged here
        is the paper's duplicated smart-contract computation.  Returns the
        post-state and receipts, or None when the block is refused.
        """
        with trace_span(
            "consensus.verify_block",
            node=self.name,
            engine=self.consensus.name,
            height=block.height,
            txs=len(block.transactions),
            sim_time=self.now,
        ) as span:
            executed = self._verify_and_execute_inner(block)
            span.set_attr("valid", executed is not None)
            if executed is not None:
                self._set_state_span_attrs(span, executed[0])
        return executed

    def _verify_and_execute_inner(
        self, block: Block
    ) -> Optional[Tuple[StateDB, List[Receipt]]]:
        parent_id = block.header.parent_hash.hex()
        # The parent block may be stored with its state pruned/skipped
        # (e.g. after a restart): re-execute the gap rather than silently
        # rejecting the block.
        if not self._recover_states(parent_id):
            self.metrics.add("blocks_missing_parent_state", 1, scope=self.name)
            return None
        parent = self.store.get(parent_id)
        try:
            block.validate_structure()
        except ValidationError:
            return None
        if block.height != parent.height + 1 or not self.consensus.verify(
            block, parent
        ):
            return None
        state, receipts = self._execute_transactions(
            self._executed[parent_id].state, block.transactions, block
        )
        if state.state_root() != block.header.state_root:
            self.metrics.add("blocks_rejected_state_root", 1, scope=self.name)
            return None
        return state, receipts

    def _execute_transactions(
        self, parent_state: StateDB, txs: List[Transaction], block: Block
    ):
        context = ExecutionContext(
            block_height=block.height,
            timestamp_ms=block.header.timestamp_ms,
            proposer=block.header.proposer,
            node_name=self.name,
        )
        state, receipts = self._apply_block(parent_state, txs, context)
        return state, receipts

    def _apply_block(
        self,
        parent_state: StateDB,
        txs: List[Transaction],
        context: ExecutionContext,
    ):
        """Fork the parent and apply ``txs`` to the fork in block order."""
        state = parent_state.fork()
        receipts = []
        for tx in txs:
            receipt = self.executor.apply(state, tx, context)
            self.metrics.add_gas(receipt.gas_used, scope=self.name)
            receipts.append(receipt)
        return state, receipts

    def _set_state_span_attrs(self, span, state: StateDB) -> None:
        stats = state.stats()
        span.set_attr("state_writes", stats["keys_folded"])
        span.set_attr("journal_depth", stats["journal_depth"])
        span.set_attr("root_cache_hits", stats["root_cache_hits"])
        span.set_attr("root_recomputes", stats["root_recomputes"])

    # -- head adoption -----------------------------------------------------
    def _on_new_head(self, left: List[Block], joined: List[Block]) -> None:
        """Follow the store's canonical diff (``ChainStore.add``).

        The order matters: event subscribers submit transactions, so
        receipts and the pool are settled before any event goes out.
        """
        self._charge_lost_race()
        for block in left:
            for tx in block.transactions:
                self._receipts_by_tx.pop(tx.tx_id, None)
        # A branch that forked below the prune window re-joins without the
        # records of its pruned blocks (the finality assumption).
        records = [
            self._executed[block.block_id]
            for block in joined
            if block.block_id in self._executed
        ]
        self._evict_committed(joined)
        self._record_commits(records)
        self._readmit(left)
        self._emit_events(records)
        self._prune_states()
        self.metrics.add("blocks_adopted", 1, scope=self.name)
        if self._started:
            self._plan_round()

    # -- state pruning ------------------------------------------------------
    def _prune_states(self) -> None:
        """Bound per-block record retention to the finality window.

        The canonical block at the window boundary, everything newer and
        the recent fork tips keep their records; everything older is
        dropped with its receipts, so state memory scales with chain width
        inside the window rather than with total chain length.  Blocks
        attaching below the boundary can no longer be validated
        (documented finality assumption).
        """
        window = self.config.state_prune_window
        if window <= 0:
            return
        boundary_height = self.store.height - window
        boundary = self.store.block_at_height(boundary_height)
        if boundary is None:
            return
        stale = [
            block_id
            for block_id in self._executed
            if block_id != boundary.block_id
            and self.store.get(block_id).height <= boundary_height
        ]
        for block_id in stale:
            del self._executed[block_id]
        if stale:
            self.metrics.add("state_entries_pruned", len(stale), scope=self.name)

    def _evict_committed(self, joined: List[Block]) -> None:
        """Drop committed txs and purge nonces the chain has moved past.

        The post-block account nonce of every sender touched by the new
        canonical blocks is fed back to the pool, which purges any pooled
        transaction with a lower nonce — those can never execute and used
        to leak in the pool forever.
        """
        committed: List[str] = []
        senders: Set[str] = set()
        for block in joined:
            for tx in block.transactions:
                committed.append(tx.tx_id)
                senders.add(tx.sender)
        if not committed:
            return
        head_state = self.state
        nonces = {sender: head_state.nonce(sender) for sender in senders}
        self.mempool.commit(committed, nonces)

    def _record_commits(self, records: List[_Executed]) -> None:
        for record in records:
            for receipt in record.receipts:
                if receipt.tx_id not in self._receipts_by_tx:
                    self._receipts_by_tx[receipt.tx_id] = receipt
                    submitted = self._tx_submit_times.pop(receipt.tx_id, None)
                    if submitted is not None:
                        self.metrics.observe(
                            "tx_commit_latency_s", self.now - submitted
                        )
                        self.metrics.add("txs_committed", 1, scope=self.name)

    def _readmit(self, left: List[Block]) -> None:
        """Offer the txs of reorged-out blocks to the pool again.

        A fork must not lose transactions: what the winning branch did not
        commit goes back through normal admission (a stale-nonce or
        underpriced refusal is the pool's typed, counted outcome) and, when
        pooled, is announced — the winning side may never have seen it.
        """
        for block in left:
            for tx in block.transactions:
                if tx.tx_id not in self._receipts_by_tx and self._admit_tx(tx):
                    self.metrics.add("txs_readmitted", 1, scope=self.name)
                    self.p2p.announce_tx(tx)

    def _emit_events(self, records: List[_Executed]) -> None:
        for record in records:
            if record.emitted:
                continue
            record.emitted = True
            for receipt in record.receipts:
                for event in receipt.events:
                    self.events.append(event)
                    for subscriber in self._event_subscribers:
                        subscriber(event)

    # -- proposing ----------------------------------------------------------
    def _cancel_round(self) -> None:
        if self._proposal_handle is not None:
            self._proposal_handle.cancel()
            self._proposal_handle = None
        self._round_start = None

    def _charge_lost_race(self) -> None:
        """Account hash work burned since the round began (PoW racing)."""
        if self._round_start is None:
            return
        elapsed = self.now - self._round_start
        rate = self.consensus.work_per_second(self.name)
        if rate > 0 and elapsed > 0:
            self.metrics.add_hashes(elapsed * rate, scope=self.name)
        self._round_start = None

    def _plan_round(self) -> None:
        self._cancel_round()
        if not self._started:
            return
        if not self.config.mine_empty and len(self.mempool) == 0:
            return
        plan = self.consensus.plan_proposal(
            self.name, self.store.head, self.kernel.rng.random()
        )
        if plan.delay_s is None:
            return
        parent_id = self.store.head.block_id
        self._round_start = self.now
        self._proposal_handle = self.after(
            plan.delay_s, lambda: self._propose(parent_id), label=f"{self.name}:propose"
        )

    def _propose(self, parent_id: str) -> None:
        self._proposal_handle = None
        if self.store.head.block_id != parent_id:
            # Lost the race; a new round has been planned by _on_new_head.
            return
        with trace_span(
            "consensus.propose",
            node=self.name,
            engine=self.consensus.name,
            height=self.store.head.height + 1,
            sim_time=self.now,
        ) as span:
            self._propose_inner(span)

    def _propose_inner(self, span) -> None:
        parent = self.store.head
        parent_state = self._executed[parent.block_id].state
        # Priority-ordered executable selection: the pool looks up each
        # candidate sender's account nonce lazily and drains by effective
        # fee (replaces the old two-pass FIFO scan).
        txs = self.mempool.select(
            self.config.max_txs_per_block, nonces=parent_state.nonce
        )
        if not txs and not self.config.mine_empty:
            # Nothing executable (nonce gaps); wait for new txs or a new head.
            return
        context = ExecutionContext(
            block_height=parent.height + 1,
            timestamp_ms=int(self.now * 1000),
            proposer=self.name,
            node_name=self.name,
        )
        state, receipts = self._apply_block(parent_state, txs, context)
        block = build_block(
            parent=parent,
            transactions=txs,
            state_root=state.state_root(),
            proposer=self.name,
            timestamp_ms=int(self.now * 1000),
        )
        sealed = self.consensus.seal(self.name, block)
        attempts = sealed.header.consensus.get("attempts", 0)
        span.set_attr("txs", len(txs))
        span.set_attr("hashes", attempts)
        self._set_state_span_attrs(span, state)
        if attempts:
            self.metrics.add_hashes(attempts, scope=self.name)
        self._round_start = None
        self.metrics.add("blocks_proposed", 1, scope=self.name)
        self._adopt(sealed, state, receipts, relay=self.p2p.push_block)
        # A gossiped block buffered on us may have been waiting for exactly
        # this proposal (we re-proposed a parent another branch built on).
        for child in self._take_waiting(sealed.block_id):
            self._ingest_block(child)


def make_network_nodes(
    kernel: Kernel,
    network,
    names: List[str],
    genesis: Block,
    genesis_state: StateDB,
    consensus_factory: Callable[[], ConsensusEngine],
    metrics: Optional[MetricsRegistry] = None,
    config: Optional[NodeConfig] = None,
    seeds: Optional[List[str]] = None,
) -> Dict[str, BlockchainNode]:
    """Build one node per name on a shared sim network and genesis.

    ``consensus_factory`` is called once per node unless the engine is
    stateless; passing a single shared engine instance via a lambda is fine.
    Each node gets its own ``SimTransport`` endpoint on ``network`` and
    dials ``seeds`` — by default the other names, so the group forms a
    full mesh; an observer joining a running network passes the
    endpoints it should bootstrap from.
    """
    shared_metrics = metrics or MetricsRegistry()
    config = config or NodeConfig()
    # A node's own name among its seeds is ignored by its PeerManager.
    config = replace(
        config,
        p2p=replace(config.p2p, seeds=list(names if seeds is None else seeds)),
    )
    nodes = {}
    for name in names:
        nodes[name] = BlockchainNode(
            kernel=kernel,
            transport=SimTransport(network, name),
            name=name,
            genesis=genesis,
            genesis_state=genesis_state,
            consensus=consensus_factory(),
            metrics=shared_metrics,
            config=config,
        )
    return nodes
