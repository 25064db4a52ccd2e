"""RpcTransport — the p2p Transport over PR 4's framed-TCP JSON-RPC stack.

The protocol engine stays single-threaded: it runs on a discrete-event
kernel that a :class:`~repro.p2p.host.KernelPump` drives against the wall
clock on the host's asyncio loop — the same loop that owns the sockets.
``request`` is therefore always called on that loop: it starts the pool
call as a task there and the task's done-callback completes straight into
the engine (as a pump turn), so engine callbacks never race and nothing
crosses a thread.  Timers are real: the pump advances the kernel clock
with wall time, so the same ``schedule``-based ping/backoff/timeout logic
that runs in simulation runs here unchanged.

Retries are owned by the engine (redial backoff, fetch-from-next-source),
so the pools are built with a single-attempt policy — stacking the RPC
layer's own retries underneath would double-apply announcements.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional, Set

from repro.p2p.transport import DispatchFn, ErrorCallback, P2PError, PeerUnreachable, ResultCallback
from repro.rpc.client import ConnectionPool, RetryPolicy
from repro.rpc.errors import RpcError


def split_addr(addr: str) -> tuple:
    """``host:port`` → (host, port); the p2p address format over TCP."""
    host, _, port = addr.rpartition(":")
    return host or "127.0.0.1", int(port)


class RpcTransport:
    """Engine-facing transport speaking framed TCP to peer RPC servers."""

    def __init__(
        self,
        pump,
        local_addr: str,
        *,
        connect_timeout_s: float = 3.0,
        max_connections: int = 2,
    ):
        self.pump = pump  # repro.p2p.host.KernelPump
        self.local_addr = local_addr
        self.connect_timeout_s = connect_timeout_s
        self.max_connections = max_connections
        self.dispatch: Optional[DispatchFn] = None
        self._pools: Dict[str, ConnectionPool] = {}
        self._inflight: Set[asyncio.Task] = set()
        self._closed = False

    # -- Transport surface ---------------------------------------------------
    @property
    def now(self) -> float:
        return self.pump.kernel.now

    @property
    def rng(self):
        return self.pump.kernel.rng

    def schedule(self, delay_s: float, callback: Callable[[], None], label: str = ""):
        return self.pump.kernel.schedule(delay_s, callback, label or "p2p")

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
            if on_error is not None:
                self.schedule(0.0, lambda: on_error(PeerUnreachable("transport closed")))
            return
        task = self.pump.loop.create_task(
            self._pool(peer).call(method, params, timeout_s=timeout_s)
        )
        self._inflight.add(task)

        def done(task: asyncio.Task) -> None:
            self._inflight.discard(task)
            self.pump.call(lambda: self._complete(task, on_result, on_error))

        task.add_done_callback(done)

    def close(self) -> None:
        # Reached from ``node.stop()`` on the loop, where waiting for the
        # pools would be waiting on ourselves: ``aclose`` releases them.
        self._closed = True

    async def aclose(self) -> None:
        """Fail what is in flight and close every pool."""
        self._closed = True
        tasks = list(self._inflight)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            await pool.close()

    # -- plumbing ------------------------------------------------------------
    def _pool(self, peer: str) -> ConnectionPool:
        pool = self._pools.get(peer)
        if pool is None:
            host, port = split_addr(peer)
            pool = ConnectionPool(
                host,
                port,
                max_connections=self.max_connections,
                connect_timeout_s=self.connect_timeout_s,
                retry=RetryPolicy(attempts=1),
            )
            self._pools[peer] = pool
        return pool

    def _complete(
        self,
        task: asyncio.Task,
        on_result: ResultCallback,
        on_error: Optional[ErrorCallback],
    ) -> None:
        error: Optional[BaseException] = (
            ConnectionError("transport closed") if task.cancelled() else task.exception()
        )
        if error is None:
            on_result(task.result())
            return
        if on_error is None:
            return
        if isinstance(error, RpcError) and not _is_transient(error):
            on_error(P2PError(str(error)))
        else:
            on_error(PeerUnreachable(str(error)))


def _is_transient(error: RpcError) -> bool:
    """Failures where the peer may simply be down/busy, not wrong."""
    from repro.rpc.errors import OverloadedError, RpcTimeoutError, ShuttingDownError

    return isinstance(error, (OverloadedError, RpcTimeoutError, ShuttingDownError))
