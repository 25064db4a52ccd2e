"""The chain as a gateway transport: Figure 5's round through smart contracts.

:class:`ChainGateway` carries each ``site.query`` of
:meth:`~repro.rpc.gateway.Gateway.aexecute` as a ``request_task``
transaction on the platform's chain.  The site's control code
(:class:`~repro.offchain.control.ControlNode`) picks the task up from the
``TaskRequested`` event, checks the grant, the dataset's anchor and consent,
runs the tool over its local records, posts the result hash on chain
(``post_result``) and hands the partial to the requester off chain: that
hand-over answers the request.  The plan, the fan-out, the deadline and the
composition are the RPC transports' own code, so the three transports
compose the same answer from the same partials.

Time is the simulation's: a deadline is a kernel event, and ``latency_s`` is
simulated seconds.  Every ``site.query`` of a query is submitted before the
kernel runs (one pump per event-loop turn runs it until no request waits),
so the sites work in the same simulated seconds.  A transaction is not
idempotent, so a request that failed or timed out is never submitted again.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chain.transactions import make_call
from repro.common.serialize import canonical_bytes
from repro.common.signatures import KeyPair
from repro.core.platform import MedicalBlockchainNetwork
from repro.datamgmt.store import listing_version
from repro.offchain.control import NonceTracker
from repro.offchain.tasks import TaskResult
from repro.rpc.codec import EncodedParams, Outgoing, Response
from repro.rpc.errors import MethodNotFoundError, RpcError, ServerRpcError, StaleCatalogError
from repro.rpc.gateway import Gateway
from repro.rpc.methods import query_tool_params, vector_from_wire


class ChainGateway(Gateway):
    """Dispatch through ``request_task`` transactions, as ``researcher``."""

    transport = "chain"
    request_timeout_s = 600.0
    retryable = ()  # a transaction is never sent twice

    def __init__(self, platform: MedicalBlockchainNetwork, researcher: KeyPair):
        super().__init__()
        self.platform = platform
        self.researcher = researcher
        self.kernel = platform.kernel
        self._entry = platform.nodes[platform.node_names[0]]
        self._nonces = NonceTracker()
        self._submitted = 0
        #: task id -> (site, request_task tx id, the future its partial resolves)
        self._pending: Dict[str, Tuple[str, str, asyncio.Future]] = {}
        self._pumping = False
        for site in platform.sites.values():
            site.control.on_result(self._deliver)

    def now(self) -> float:
        return self.kernel.now

    def call_later(self, delay: float, callback: Any, *args: Any) -> Any:
        return self.kernel.schedule(delay, functools.partial(callback, *args), "gateway")

    def site_names(self) -> List[str]:
        return sorted(self.platform.sites)

    def _run(self, coro: Any) -> Any:
        """On the calling thread, with ``asyncio.run``: the kernel runs where
        the caller does.  So the sync calls (``execute``, ``catalog``) are
        for sync code; inside a running event loop, await ``aexecute``."""
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(coro)
        coro.close()
        raise RuntimeError(
            "ChainGateway's sync calls run their own event loop; "
            "inside a running one, await aexecute instead"
        )

    def send(
        self,
        site: str,
        requests: Sequence[Outgoing],
        futures: Optional[List[asyncio.Future]] = None,
    ) -> List[asyncio.Future]:
        """Each ``site.query`` submitted as a ``request_task`` transaction
        (``site.catalog`` answered from the on-chain registry); the kernel
        runs at the end of this loop turn."""
        loop = asyncio.get_running_loop()
        if futures is None:
            futures = [loop.create_future() for _ in requests]
        for (method, params, _), future in zip(requests, futures):
            try:
                if method == "site.catalog":
                    future.set_result(Response(None, result=self._listing(site)))
                elif method == "site.query":
                    task_id, tx_id = self._submit(site, params)
                    self._pending[task_id] = (site, tx_id, future)
                else:
                    raise MethodNotFoundError(f"the chain serves no {method!r}")
            except RpcError as exc:
                future.set_exception(exc)
        if self._pending and not self._pumping:
            self._pumping = True
            loop.call_soon(self._pump)
        return futures

    def _listing(self, site: str) -> Dict[str, Any]:
        """``site``'s ``site.catalog`` reply, read from the data contract."""
        refs = [ref for ref in self.platform.catalog() if ref.site == site]
        return {
            "site": site,
            "datasets": [dataclasses.asdict(ref) for ref in refs],
            "version": listing_version((ref.dataset_id, ref.record_count) for ref in refs),
        }

    def _submit(self, site: str, params: EncodedParams) -> Tuple[str, str]:
        """Submit the ``request_task`` transaction of one ``site.query``:
        its task id and transaction id.  A plan against a listing the chain
        no longer holds is refused with the fresh one, as a site server
        refuses it."""
        query = json.loads(params) if isinstance(params, bytes) else dict(params or {})
        version = query.get("catalog_version")
        if version is not None:
            listing = self._listing(site)
            if version != listing["version"]:
                raise StaleCatalogError(data=listing)
        vector = vector_from_wire(query.get("vector"))
        tool_params = query_tool_params(vector, query.get("params"))
        self._submitted += 1
        task_id = f"{query.get('task_id') or vector.query_id}-tx-{self._submitted}"
        address = self.researcher.address
        tx = make_call(
            self.researcher,
            self.platform.contracts.analytics_contract_id,
            "request_task",
            {
                "task_id": task_id,
                "tool_id": vector.tool_id(),
                "dataset_ids": query.get("dataset_ids", []),
                # Heavy params (model weights) stay off chain, by content hash.
                "params": {"params_ref": self.platform.depot.put(tool_params)},
                "purpose": vector.purpose,
            },
            nonce=self._nonces.next_nonce(address, self._entry.state.nonce(address)),
            timestamp_ms=int(self.kernel.now * 1000),
        )
        self._entry.submit_tx(tx)
        # Down-link cost: the params shipped to the executing site.
        self.platform.metrics.add_bytes(len(canonical_bytes(tool_params)), scope="query-service")
        return task_id, tx.tx_id

    def _pump(self) -> None:
        self._pumping = False
        if self._settled():
            return
        try:
            self.kernel.run(stop_when=self._settled)
        except Exception as exc:  # noqa: BLE001 - e.g. a tool's own error
            # Nothing else would run the kernel, and the deadlines are its
            # events: every waiting request fails with the error, which the
            # query raises, as a direct kernel.run would have.
            pending, self._pending = self._pending, {}
            for _, _, future in pending.values():
                if not future.done():
                    future.set_exception(exc)
                    future.exception()  # retrieved: only an awaited one raises

    def _settled(self) -> bool:
        """Whether no request waits any more; a task the site's control code
        refused, or whose ``request_task`` failed, fails its request."""
        for task_id, (site, tx_id, future) in list(self._pending.items()):
            if not future.done():
                reason = self.platform.sites[site].control.rejected.get(task_id)
                if reason is None:
                    receipt = self._entry.receipt(tx_id)
                    if receipt is not None and not receipt.success:
                        reason = f"request_task rejected: {receipt.error}"
                if reason is None:
                    continue
                future.set_exception(ServerRpcError(reason))
            del self._pending[task_id]
        return not self._pending

    def _deliver(self, result: TaskResult) -> None:
        """A site's control code handed over a partial (``on_result``)."""
        site, _, future = self._pending.get(result.task_id, (None, None, None))
        if future is None or future.done():
            return
        self.platform.metrics.add_bytes(len(result.result_bytes), scope=site)
        # Decoded from its canonical bytes, as the RPC transports read it.
        partial = json.loads(result.result_bytes)
        outcome = {"task_id": result.task_id, "result": partial, "result_hash": result.result_hash}
        future.set_result(Response(None, result=outcome))
