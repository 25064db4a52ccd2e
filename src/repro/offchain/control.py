"""Per-node off-chain control code (Figure 1).

The on-chain smart contract is identical on every node; what differs per
node is the *control code*, which feeds each contract different local data
and coordinates the local task code.  A :class:`ControlNode` binds one
site's blockchain node to that site's data store and tool registry:

1. the monitor node surfaces a ``TaskRequested`` event;
2. the control node checks that the requested data sets are hosted here;
3. it enforces the on-chain access policy (data contract ``check_access``);
4. it verifies local data integrity against the on-chain Merkle anchor;
5. it runs the analytics tool locally (task runner, flops charged locally);
6. it posts the result hash back on chain (``post_result``) and ships only
   the small result payload — never raw records — to the requester.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.chain.executor import ContractEvent
from repro.chain.transactions import Transaction, make_call
from repro.common.errors import AccessDeniedError, IntegrityError, OracleError
from repro.common.signatures import KeyPair
from repro.consensus.node import BlockchainNode
from repro.contracts.deploy import PlatformContracts
from repro.offchain.anchoring import require_dataset_integrity
from repro.offchain.oracle import MonitorNode
from repro.offchain.tasks import TaskResult, TaskRunner

if TYPE_CHECKING:
    from repro.datamgmt.store import HospitalDataStore


class NonceTracker:
    """Tracks the next usable nonce per address, across pending txs."""

    def __init__(self) -> None:
        self._next: Dict[str, int] = {}

    def next_nonce(self, address: str, chain_nonce: int) -> int:
        nonce = max(chain_nonce, self._next.get(address, 0))
        self._next[address] = nonce + 1
        return nonce


ResultDelivery = Callable[[TaskResult], None]


class ControlNode:
    """The off-chain control code of one data-hosted site."""

    def __init__(
        self,
        site: str,
        keypair: KeyPair,
        node: BlockchainNode,
        monitor: MonitorNode,
        contracts: PlatformContracts,
        host: HospitalDataStore,
        runner: TaskRunner,
        nonces: Optional[NonceTracker] = None,
        verify_integrity: bool = True,
        params_resolver: Optional[Callable[[str], Dict[str, Any]]] = None,
        compute_rate_flops: Optional[float] = None,
    ):
        self.site = site
        self.keypair = keypair
        self.node = node
        self.monitor = monitor
        self.contracts = contracts
        self.host = host
        self.runner = runner
        self.nonces = nonces or NonceTracker()
        self.verify_integrity = verify_integrity
        self.params_resolver = params_resolver
        # When set, posting a result is delayed by flops/rate simulated
        # seconds, so experiment E4 can measure parallel-compute makespan.
        self.compute_rate_flops = compute_rate_flops
        self.completed: Dict[str, TaskResult] = {}
        self.rejected: Dict[str, str] = {}
        self._deliveries: List[ResultDelivery] = []
        monitor.on("TaskRequested", self._on_task_requested)

    # -- wiring ----------------------------------------------------------
    def on_result(self, delivery: ResultDelivery) -> None:
        """Register a callback receiving each completed :class:`TaskResult`."""
        self._deliveries.append(delivery)

    def submit_signed_call(
        self, contract_id: str, method: str, args: Dict[str, Any]
    ) -> Transaction:
        """Sign and submit a contract call from this site's key."""
        nonce = self.nonces.next_nonce(
            self.keypair.address, self.node.state.nonce(self.keypair.address)
        )
        tx = make_call(
            self.keypair,
            contract_id,
            method,
            args,
            nonce=nonce,
            timestamp_ms=int(self.node.now * 1000),
        )
        self.node.submit_tx(tx)
        return tx

    # -- the Figure 1 control path -----------------------------------------
    def _on_task_requested(self, event: ContractEvent) -> None:
        task_id = event.data.get("task_id", "")
        dataset_ids = list(event.data.get("dataset_ids", []))
        local = [ds for ds in dataset_ids if self.host.has_dataset(ds)]
        if not local:
            return  # some other site's control code will pick this up
        try:
            self.execute_task(
                task_id=task_id,
                tool_id=event.data.get("tool_id", ""),
                dataset_ids=local,
                requester=event.data.get("requester", ""),
                purpose=event.data.get("purpose", ""),
                params=self._task_params(task_id),
            )
        except (AccessDeniedError, IntegrityError, OracleError) as exc:
            self.rejected[task_id] = str(exc)
            self.submit_signed_call(
                self.contracts.analytics_contract_id,
                "fail_task",
                {"task_id": task_id, "reason": str(exc)},
            )

    def _task_params(self, task_id: str) -> Dict[str, Any]:
        task = self.node.call_view(
            self.contracts.analytics_contract_id, "get_task", {"task_id": task_id}
        )
        params = dict(task.get("params") or {}) if task else {}
        # Heavy inputs (e.g. model weights) live off chain, referenced by
        # content hash — the contract stays a light-weight policy point.
        ref = params.pop("params_ref", None)
        if ref and self.params_resolver is not None:
            resolved = self.params_resolver(ref)
            resolved.update(params)
            return resolved
        return params

    def execute_task(
        self,
        task_id: str,
        tool_id: str,
        dataset_ids: Sequence[str],
        requester: str,
        purpose: str,
        params: Dict[str, Any],
    ) -> TaskResult:
        """Run one task end to end: policy check, integrity check, execute,
        anchor the result on chain, deliver the payload off chain."""
        ids = list(dict.fromkeys(dataset_ids))  # each named dataset once
        records: List[Dict[str, Any]] = []
        for dataset_id in ids:
            self._enforce_access(dataset_id, requester, purpose)
            dataset_records = self.host.get_records(dataset_id)
            if self.verify_integrity:
                self._enforce_integrity(dataset_id, dataset_records)
            records.extend(dataset_records)
        consented = self._apply_consent(records, purpose)
        if consented is records:
            # Nobody opted out: the store's cached table holds the same
            # records, with the columns earlier tasks projected.
            consented = self.host.table(ids)
        result = self.runner.run(task_id, tool_id, consented, params)
        self.node.metrics.add_flops(result.flops, scope=self.site)
        if self.compute_rate_flops:
            # Model local compute time: finish (post + deliver) after the
            # analytic's simulated duration.
            delay = result.flops / self.compute_rate_flops
            self.node.after(delay, lambda: self._finish_task(task_id, result))
        else:
            self._finish_task(task_id, result)
        return result

    def _finish_task(self, task_id: str, result: TaskResult) -> None:
        self.completed[task_id] = result
        self.submit_signed_call(
            self.contracts.analytics_contract_id,
            "post_result",
            {
                "task_id": task_id,
                "result_hash": result.result_hash,
                "summary": result.summary(),
            },
        )
        for delivery in self._deliveries:
            delivery(result)

    def _apply_consent(
        self, records: List[Dict[str, Any]], purpose: str
    ) -> List[Dict[str, Any]]:
        """Exclude records of patients who opted out of this purpose.

        Consent lives on chain (patient-consent contract); the off-chain
        control code is where it takes effect — no analytic ever sees an
        opted-out patient's record.
        """
        opted_out = set(
            self.node.call_view(
                self.contracts.consent_contract_id, "opted_out", {"scope": purpose}
            )
            or []
        )
        if not opted_out:
            return records
        return [
            record
            for record in records
            if record.get("patient_id") not in opted_out
        ]

    def _enforce_access(self, dataset_id: str, requester: str, purpose: str) -> None:
        allowed = self.node.call_view(
            self.contracts.data_contract_id,
            "check_access",
            {
                "dataset_id": dataset_id,
                "grantee": requester,
                "purpose": purpose,
                "now_ms": int(self.node.now * 1000),
            },
        )
        if not allowed:
            raise AccessDeniedError(
                f"no on-chain grant for {requester[:12]} on {dataset_id} ({purpose})"
            )

    def _enforce_integrity(
        self, dataset_id: str, records: List[Dict[str, Any]]
    ) -> None:
        entry = self.node.call_view(
            self.contracts.data_contract_id, "get_dataset", {"dataset_id": dataset_id}
        )
        if entry is None:
            raise IntegrityError(f"dataset {dataset_id} has no on-chain registration")
        require_dataset_integrity(records, entry["merkle_root"], dataset_id)
