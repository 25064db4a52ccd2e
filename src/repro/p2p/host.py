"""P2PHost — one real TCP blockchain node, composed from existing parts.

The trick that keeps the p2p engine identical across simulation and TCP is
the :class:`KernelPump`: a thread that drives a private discrete-event
:class:`~repro.sim.kernel.Kernel` against the wall clock.  The kernel
becomes the node's single-threaded executor — every engine callback,
timer, RPC completion, and inbound request runs as a kernel event on the
pump thread, so the node and the p2p engines need no locks.  RPC I/O
happens on a separate :class:`~repro.rpc.runtime.EventLoopThread`; results
are marshalled back with :meth:`KernelPump.inject`.

A host bundles: Kernel + ``KernelPump`` + ``EventLoopThread`` +
``RpcTransport`` + ``BlockchainNode`` (which builds its ``P2PService`` over
that transport) + ``RpcServer`` (p2p method surface plus a small control
API).  There is no sim ``Network``: the transport is the node's only wire.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Dict, Optional

from repro.chain.blocks import Block
from repro.chain.state import StateDB
from repro.common.clock import WallClock
from repro.consensus.base import ConsensusEngine
from repro.consensus.node import BlockchainNode, NodeConfig
from repro.p2p.config import P2PConfig
from repro.p2p.rpc_transport import RpcTransport, split_addr
from repro.p2p.wire import tx_from_wire
from repro.rpc.methods import register_p2p_methods
from repro.rpc.runtime import EventLoopThread
from repro.rpc.server import MethodRegistry, RpcServer
from repro.sim.kernel import Kernel


class KernelPump:
    """Drives a discrete-event kernel forward with wall time on a thread.

    ``inject`` enqueues a callback from any thread to run as a kernel
    event; ``call`` additionally waits for its result — the two bridges
    between the outside world and the kernel's single-threaded domain.
    """

    def __init__(
        self,
        kernel: Kernel,
        time_source: Optional[Callable[[], float]] = None,
        max_idle_wait_s: float = 0.2,
    ):
        self.kernel = kernel
        # Wall-clock reads live in common.clock by repo rule (MED103);
        # benchmarks pass one shared WallClock so hosts agree on "now".
        self._time = time_source or WallClock().now
        self.max_idle_wait_s = max_idle_wait_s
        self._inbox: "deque[Callable[[], None]]" = deque()
        self._wake = threading.Event()
        self._stop_flag = False
        self._thread: Optional[threading.Thread] = None
        self._wall0 = 0.0
        self._kernel0 = 0.0

    def start(self) -> None:
        if self._thread is not None:
            return
        self._wall0 = self._time()
        self._kernel0 = self.kernel.now
        self._thread = threading.Thread(
            target=self._run, name="p2p-kernel-pump", daemon=True
        )
        self._thread.start()

    def stop(self, timeout_s: float = 2.0) -> None:
        self._stop_flag = True
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout_s)
            self._thread = None

    def inject(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` as a kernel event, from any thread."""
        self._inbox.append(callback)
        self._wake.set()

    def call(self, fn: Callable[[], Any], timeout_s: float = 30.0) -> Any:
        """Run ``fn`` on the kernel thread and return its result."""
        if threading.current_thread() is self._thread:
            return fn()
        done = threading.Event()
        box: Dict[str, Any] = {}

        def run() -> None:
            try:
                box["result"] = fn()
            except BaseException as exc:  # propagated to the caller below
                box["error"] = exc
            finally:
                done.set()

        self.inject(run)
        if not done.wait(timeout_s):
            raise TimeoutError("kernel pump did not run the call in time")
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _run(self) -> None:
        while not self._stop_flag:
            while self._inbox:
                callback = self._inbox.popleft()
                self.kernel.schedule(0.0, callback, label="pump:inject")
            target = self._kernel0 + (self._time() - self._wall0)
            if target > self.kernel.now:
                self.kernel.run(until=target)
                if self.kernel.now < target:
                    # Queue went empty before ``until``; keep the clock
                    # tracking wall time so relative delays stay honest.
                    self.kernel.clock.advance_to(target)
            next_time = self.kernel.next_event_time()
            if next_time is None:
                wait = self.max_idle_wait_s
            else:
                wait = min(self.max_idle_wait_s, max(0.0, next_time - self.kernel.now))
            if wait > 0 and not self._inbox:
                self._wake.wait(wait)
            self._wake.clear()


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
        self.pump = KernelPump(self.kernel, time_source=time_source)
        self.loop = EventLoopThread(name=f"{name}-rpc-loop")
        self.transport = RpcTransport(self.pump, self.loop, local_addr=listen_addr)
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
        self.server = RpcServer(
            self.registry, name=name, metrics=self.node.metrics
        )
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
            self.pump.call(self.node.stop, timeout_s=10.0)
        except Exception:
            pass  # tearing down anyway
        try:
            self.loop.run(self.server.close(), timeout_s=10.0)
        except Exception:
            pass
        self.pump.stop()
        self.loop.close()

    # -- inbound RPC --------------------------------------------------------
    def _dispatch_p2p(self, method: str, params: Dict[str, Any]) -> Any:
        """RPC-server handler -> kernel thread -> p2p service."""
        sender = params.get("from") or ""
        return self.pump.call(
            lambda: self.service.dispatch(sender, method, params), timeout_s=20.0
        )

    def _register_control_methods(self) -> None:
        """Small operator API used by the benchmark and CLI tooling."""

        def submit_tx(**params: Any) -> Dict[str, Any]:
            tx = tx_from_wire(params.get("tx"))
            admission = self.pump.call(lambda: self.node.submit_tx(tx))
            return {
                "accepted": bool(admission),
                "status": admission.code,
                "tx_id": tx.tx_id,
            }

        def status(**_params: Any) -> Dict[str, Any]:
            def read() -> Dict[str, Any]:
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

            return self.pump.call(read)

        def counters(**_params: Any) -> Dict[str, float]:
            def read() -> Dict[str, float]:
                names = (
                    "p2p_announce_sent",
                    "p2p_announce_recv",
                    "p2p_announce_duplicate",
                    "p2p_fetches",
                    "p2p_duplicate_bodies",
                    "p2p_bodies_served",
                    "p2p_sync_rounds",
                    "p2p_sync_blocks",
                    "p2p_sync_completed",
                    "blocks_adopted",
                )
                return {
                    name: self.node.metrics.counter(name, scope=self.name)
                    for name in names
                }

            return self.pump.call(read)

        self.registry.register("ctl.submit_tx", submit_tx)
        self.registry.register("ctl.status", status, idempotent=True)
        self.registry.register("ctl.counters", counters, idempotent=True)
