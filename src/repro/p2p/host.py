"""P2PHost — one real TCP blockchain node, composed from existing parts.

A host is one thread: the asyncio loop that owns its sockets also runs the
node.  :class:`KernelPump` drives a private discrete-event
:class:`~repro.sim.kernel.Kernel` against the wall clock as callbacks on
that loop, so every engine callback, timer, RPC completion and inbound
request runs there, one at a time — the node and the p2p engines need no
locks and nothing is marshalled between threads.  The p2p and ``ctl.*``
handlers are ``async def``, which is how the RPC server spells "run me
inline on the loop"; sync handlers others register on ``host.registry``
keep its thread pool and reach the node through :meth:`KernelPump.call`.

A host bundles: ``EventLoopThread`` + Kernel + ``KernelPump`` +
``RpcTransport`` + ``BlockchainNode`` (which builds its ``P2PService`` over
that transport) + ``RpcServer``.  Its registry is the node's whole method
surface: the p2p methods (sync included), ``ctl.*`` and ``mempool.status``.
There is no sim ``Network``: the transport is the node's only wire.
``python -m repro.rpc.site_server --validators ...`` runs one host with a
site's data methods on the same registry.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.chain.blocks import Block, funded_genesis
from repro.chain.mempool import DUPLICATE, POOL_FULL, RATE_LIMITED, STALE_NONCE, UNDERPRICED
from repro.chain.state import StateDB
from repro.common.clock import WallClock
from repro.common.signatures import KeyPair
from repro.consensus.base import ConsensusEngine
from repro.consensus.node import BlockchainNode, NodeConfig
from repro.consensus.poa import ProofOfAuthority
from repro.p2p.config import P2PConfig
from repro.p2p.rpc_transport import RpcTransport, split_addr
from repro.p2p.service import P2P_METHODS
from repro.p2p.wire import tx_from_wire
from repro.rpc.errors import (
    OverloadedError,
    RateLimitedError,
    StaleNonceError,
    TxUnderpricedError,
)
from repro.rpc.runtime import EventLoopThread
from repro.rpc.server import MethodRegistry, RpcServer
from repro.sim.kernel import Kernel


def build_world(
    validators: List[str], fund: Dict[str, int], block_interval_s: float = 0.5
) -> Tuple[Block, StateDB, ProofOfAuthority]:
    """Deterministic genesis + PoA engine shared by every process.

    Key pairs are deterministic in their label and the genesis block hashes
    only the funded state, so independently launched processes given the
    same arguments form one network with no shared files.
    """
    genesis, state = funded_genesis(
        {KeyPair.generate(label).address: fund[label] for label in sorted(fund)}
    )
    keypairs = {name: KeyPair.generate(name) for name in validators}
    engine = ProofOfAuthority(validators, keypairs, block_interval_s=block_interval_s)
    return genesis, state, engine


class KernelPump:
    """Drives a discrete-event kernel forward with wall time on an asyncio loop.

    A *turn* is a loop callback: run every kernel event due by now, leave
    the clock at now, arm one ``call_later`` for the next event.  ``inject``
    asks for a turn that runs a callback, from any thread; ``call`` also
    returns its result — the two bridges into the kernel's domain.  Nothing
    else runs on the loop during a turn, so each turn's length is kept: the
    last ``TURN_RING`` of them, and the longest ever (:meth:`turn_ms`).
    """

    TURN_RING = 4096

    def __init__(
        self,
        kernel: Kernel,
        loop: asyncio.AbstractEventLoop,
        time_source: Optional[Callable[[], float]] = None,
    ):
        self.kernel = kernel
        self.loop = loop
        # Wall-clock reads live in common.clock by repo rule (MED103);
        # benchmarks pass one shared WallClock so hosts agree on "now".
        self._time = time_source or WallClock().now
        self._running = False
        self._in_turn = False
        self._timer: Optional[asyncio.TimerHandle] = None
        self._wall0 = 0.0
        self._kernel0 = 0.0
        self._turns: Deque[float] = deque(maxlen=self.TURN_RING)
        self._longest_turn = 0.0

    def start(self) -> None:
        if self._running:
            return
        self._wall0 = self._time()
        self._kernel0 = self.kernel.now
        self._running = True
        self.loop.call_soon_threadsafe(self._turn)

    def stop(self) -> None:
        """Turns become no-ops, including the one a pending timer fires."""
        self._running = False

    def inject(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` as a kernel event, from any thread."""
        self.loop.call_soon_threadsafe(self._turn, callback)

    def call(self, fn: Callable[[], Any], timeout_s: float = 30.0) -> Any:
        """Run ``fn`` on the kernel's thread and return its result."""
        try:
            on_loop = asyncio.get_running_loop() is self.loop
        except RuntimeError:  # no loop runs on this thread
            on_loop = False
        if on_loop and self._in_turn:
            return fn()
        future: concurrent.futures.Future = concurrent.futures.Future()
        if on_loop:
            # A turn, not bare ``fn()``: the clock would be as stale as the
            # last turn and what ``fn`` schedules would have no timer armed.
            self._turn(lambda: _resolve(future, fn))
        else:
            self.inject(lambda: _resolve(future, fn))
            # Not ``result(timeout_s)``: before Python 3.11 it raises a
            # TimeoutError that is not the builtin one callers catch.
            concurrent.futures.wait([future], timeout_s)
        if not future.done():
            future.cancel()
            raise TimeoutError("kernel did not run the call in time")
        return future.result()

    def turn_ms(self) -> Dict[str, float]:
        """p50 / p99 of the recent turns and the longest turn, in ms."""
        ordered = sorted(self._turns) or [0.0]
        last = len(ordered) - 1
        return {
            "p50": ordered[round(0.50 * last)] * 1e3,
            "p99": ordered[round(0.99 * last)] * 1e3,
            "max": self._longest_turn * 1e3,
        }

    def _on_kernel_clock(self, wall: float) -> float:
        """A ``time_source`` reading mapped onto the kernel's clock."""
        return self._kernel0 + (wall - self._wall0)

    def _turn(self, callback: Optional[Callable[[], None]] = None) -> None:
        if not self._running:
            return
        kernel = self.kernel
        started = self._time()
        target = max(kernel.now, self._on_kernel_clock(started))
        self._in_turn = True
        try:
            kernel.run(until=target)
            # The queue may empty before ``until``; keep the clock tracking
            # wall time so relative delays stay honest.
            kernel.clock.advance_to(target)
            if callback is not None:
                kernel.schedule(0.0, callback, label="pump:inject")
                kernel.run(until=target)  # and what it schedules for "now"
        finally:
            self._in_turn = False
            ended = self._time()
            self._turns.append(ended - started)
            self._longest_turn = max(self._longest_turn, ended - started)
            if self._timer is not None:
                self._timer.cancel()
            next_time = kernel.next_event_time()
            # Against wall time, not ``kernel.now``: the turn itself took time.
            self._timer = None if next_time is None else self.loop.call_later(
                max(0.0, next_time - self._on_kernel_clock(ended)), self._turn
            )


def _resolve(future: concurrent.futures.Future, fn: Callable[[], Any]) -> None:
    """Complete ``future`` with ``fn()`` unless its caller stopped waiting."""
    if not future.set_running_or_notify_cancel():
        return
    try:
        future.set_result(fn())
    except BaseException as exc:  # re-raised in the caller by ``result()``
        future.set_exception(exc)


def admission_to_wire(admission: Any, tx_id: str) -> Dict[str, Any]:
    """Map a mempool :class:`AdmissionResult` onto the RPC error band.

    Accepted/replaced/duplicate outcomes return a result object (duplicate
    is a no-op success: the tx is already pooled, resubmitting changed
    nothing).  Every refusal raises the matching typed error so clients
    branch on stable integer codes, with machine-usable hints — the fee
    floor for underpriced, the outbid price for a full pool — in ``data``.
    """
    if admission:
        wire: Dict[str, Any] = {
            "accepted": True,
            "status": admission.code,
            "tx_id": tx_id,
        }
        if admission.replaced_tx_id:
            wire["replaced_tx_id"] = admission.replaced_tx_id
        return wire
    if admission.code == DUPLICATE:
        return {"accepted": False, "status": DUPLICATE, "tx_id": tx_id}
    data: Dict[str, Any] = {"tx_id": tx_id}
    if admission.reason:
        data["reason"] = admission.reason
    if admission.fee_floor is not None:
        data["fee_floor"] = admission.fee_floor
    if admission.code == UNDERPRICED:
        raise TxUnderpricedError(admission.reason, data=data)
    if admission.code == POOL_FULL:
        raise OverloadedError(
            admission.reason or "mempool full; raise fee or retry", data=data
        )
    if admission.code == RATE_LIMITED:
        raise RateLimitedError(admission.reason, data=data)
    if admission.code == STALE_NONCE:
        raise StaleNonceError(admission.reason, data=data)
    raise OverloadedError(admission.reason or admission.code, data=data)


def register_node_methods(
    registry: MethodRegistry, node: Any, call: Callable[[Callable[[], Any]], Any]
) -> None:
    """``ctl.submit_tx`` and ``mempool.status`` over ``node``.

    ``call(fn)`` runs ``fn`` where the node lives (``KernelPump.call`` on a
    host).  A malformed tx raises ``ValidationError`` (INVALID_TX).
    ``ctl.submit_tx`` is not idempotent: the mempool deduplicates a signed
    tx, but a client retry could still race a nonce bump, so a
    ``ConnectionPool`` never retries it on its own.
    """

    async def submit_tx(tx: Any = None) -> Dict[str, Any]:
        transaction = tx_from_wire(tx)
        return admission_to_wire(call(lambda: node.submit_tx(transaction)), transaction.tx_id)

    async def mempool_status() -> Dict[str, Any]:
        return call(node.mempool.status)

    registry.register("ctl.submit_tx", submit_tx)
    registry.register("mempool.status", mempool_status, idempotent=True)


def register_p2p_methods(registry: MethodRegistry, dispatch: Any) -> None:
    """Expose the p2p method surface on an RPC server.

    ``dispatch(method, params)`` is the host's entry into its node
    (``P2PService.dispatch`` as a ``KernelPump`` turn).  The handlers are
    ``async def`` because the server runs those inline on its event loop —
    the thread the node lives on — where a sync handler would be sent to a
    worker thread only to come straight back; ``dispatch`` must therefore
    be safe to call on that loop and must not block.  ``p2p.push`` and
    ``p2p.announce`` arrive as notifications: the server runs them and sends
    nothing back.
    """

    def make_handler(method: str):
        async def handler(**params: Any) -> Any:
            return dispatch(method, params)

        return handler

    for method in P2P_METHODS:
        registry.register(method, make_handler(method), idempotent=True, timeout_s=15.0)


class P2PHost:
    """One TCP-speaking blockchain node (kernel, node, server, p2p)."""

    def __init__(
        self,
        name: str,
        listen_addr: str,
        genesis: Block,
        genesis_state: StateDB,
        consensus: ConsensusEngine,
        *,
        node_config: Optional[NodeConfig] = None,
        p2p_config: Optional[P2PConfig] = None,
        seed: int = 0,
        time_source: Optional[Callable[[], float]] = None,
        metrics=None,
    ):
        self.name = name
        self.listen_addr = listen_addr
        self.kernel = Kernel(seed=seed)
        self.loop = EventLoopThread(name=f"{name}-rpc-loop")
        self.pump = KernelPump(self.kernel, self.loop.loop, time_source=time_source)
        self.transport = RpcTransport(self.pump, local_addr=listen_addr)
        node_config = node_config or NodeConfig()
        if p2p_config is not None:
            node_config = replace(node_config, p2p=p2p_config)
        self.node = BlockchainNode(
            kernel=self.kernel,
            transport=self.transport,
            name=name,
            genesis=genesis,
            genesis_state=genesis_state,
            consensus=consensus,
            metrics=metrics,
            config=node_config,
        )
        self.service = self.node.p2p
        self.registry = MethodRegistry()
        register_p2p_methods(self.registry, self._dispatch_p2p)
        self._register_control_methods()
        self.server = RpcServer(self.registry, name=name, metrics=self.node.metrics)
        self.bound_addr: Optional[str] = None
        self._started = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> str:
        """Bind, start pumping, dial seeds; returns the bound ``host:port``."""
        if self._started:
            return self.bound_addr or self.listen_addr
        self._started = True
        self.pump.start()
        host, port = split_addr(self.listen_addr)
        bound_host, bound_port = self.loop.run(
            self.server.start(host, port), timeout_s=10.0
        )
        self.bound_addr = f"{bound_host}:{bound_port}"
        self.pump.call(self.node.start)
        return self.bound_addr

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        try:
            self.loop.run(self._shutdown(), timeout_s=20.0)
        except Exception:
            pass  # tearing down anyway
        self.loop.close()

    async def _shutdown(self) -> None:
        try:
            self.pump.call(self.node.stop)
        finally:
            await self.server.close()
            await self.transport.aclose()
            self.pump.stop()

    # -- inbound RPC --------------------------------------------------------
    def _dispatch_p2p(self, method: str, params: Dict[str, Any]) -> Any:
        """RPC-server handler (inline on the loop) -> p2p service."""
        sender = params.get("from") or ""
        return self.pump.call(lambda: self.service.dispatch(sender, method, params))

    def _register_control_methods(self) -> None:
        """Small operator API used by the benchmark and CLI tooling."""

        async def status(**_params: Any) -> Dict[str, Any]:
            head = self.node.store.head
            return {
                "name": self.name,
                "addr": self.bound_addr or self.listen_addr,
                "height": head.height,
                "head_id": head.block_id,
                "state_root": self.node.state.state_root().hex(),
                "peers": self.service.peers.connected(),
                "mempool": len(self.node.mempool),
            }

        async def counters(**_params: Any) -> Dict[str, float]:
            metrics = self.node.metrics
            names = (
                "p2p_push_sent",
                "p2p_push_recv",
                "p2p_announce_sent",
                "p2p_announce_recv",
                "p2p_announce_duplicate",
                "p2p_fetches",
                "p2p_fetch_retries",
                "p2p_compact_misses",
                "p2p_duplicate_bodies",
                "p2p_bodies_served",
                "p2p_sync_rounds",
                "p2p_sync_blocks",
                "p2p_sync_completed",
                "blocks_adopted",
            )
            reply = {name: metrics.counter(name, scope=self.name) for name in names}
            # Peer requests this host's server shed: the refusals fetch retries absorb.
            reply["p2p_refusals"] = sum(
                metrics.counter(f"rpc_errors[{method}:overloaded]", scope=self.name)
                for method in P2P_METHODS
            )
            for stat, value in self.pump.turn_ms().items():
                reply[f"pump_turn_ms_{stat}"] = value
            return reply

        register_node_methods(self.registry, self.node, self.pump.call)
        self.registry.register("ctl.status", status, idempotent=True)
        self.registry.register("ctl.counters", counters, idempotent=True)
