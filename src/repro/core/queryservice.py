"""Global query service (Figure 5's top layer).

Accepts a research question (natural language or a ready
:class:`QueryVector`), decomposes it into per-site work, lets each site
execute against its local data, and composes the partial results into one
global answer.  For ``train`` queries it runs a full federated loop: every
round ships the global model parameters to the sites and averages the
returned site updates.

Every round is one :meth:`~repro.rpc.gateway.Gateway.aexecute`, over one of
three transports with one algorithm: the platform's chain
(:class:`~repro.core.chain_gateway.ChainGateway`, the default: smart-contract
tasks run by each site's control code, in simulated time), or site servers
in process (``InprocGateway``) or over TCP (``TcpGateway``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

import numpy as np

from repro.analytics.features import FEATURE_DIM
from repro.analytics.models import LogisticModel, MLPModel, SupervisedModel
from repro.common.errors import QueryError
from repro.common.hashing import hash_value_hex
from repro.common.signatures import KeyPair
from repro.core.chain_gateway import ChainGateway
from repro.core.platform import MedicalBlockchainNetwork
from repro.query.parser import parse_query
from repro.query.vector import QueryVector
from repro.rpc.gateway import Gateway, GatewayAnswer


class GlobalQueryService:
    """Figure 5: query service + data service for one researcher identity.

    Its calls block until the answer is composed.  The default
    ``ChainGateway`` runs each round in an event loop of its own on the
    calling thread, so call them from sync code, not from a running loop.
    """

    def __init__(
        self,
        platform: MedicalBlockchainNetwork,
        researcher: KeyPair,
        gateway: Optional[Gateway] = None,
    ):
        self.platform = platform
        self.researcher = researcher
        #: Where each round runs: the platform's chain unless a gateway to
        #: site servers is given.
        self.gateway = gateway if gateway is not None else ChainGateway(platform, researcher)

    # -- public API ---------------------------------------------------------
    def ask(self, question: str, purpose: str = "research") -> GatewayAnswer:
        """Natural-language entry point."""
        vector = parse_query(question, purpose=purpose)
        return self.execute(vector)

    def execute(
        self, vector: QueryVector, timeout_s: Optional[float] = None
    ) -> GatewayAnswer:
        """Decompose, dispatch, await, compose."""
        vector.validate()
        if vector.intent == "train":
            return self._execute_train(vector, timeout_s)
        if vector.intent == "fetch":
            return self._execute_fetch(vector)
        if vector.intent == "evaluate":
            raise QueryError(
                "evaluate queries carry model parameters; call "
                "GlobalQueryService.evaluate_model(model, vector) instead"
            )
        return self.gateway.execute(vector, timeout_s)

    def evaluate_model(
        self,
        model: SupervisedModel,
        vector: QueryVector,
        timeout_s: Optional[float] = None,
    ) -> GatewayAnswer:
        """Federated evaluation: score a model on every site's local data.

        The model's parameters ship to each site (off chain, by content
        hash); each site returns loss/accuracy/AUC over its *own* held-out
        records, and the composed answer is the sample-weighted global
        metric — distributed validation without centralizing a single
        record.
        """
        vector.validate()
        if vector.intent != "evaluate":
            raise QueryError("evaluate_model requires an 'evaluate' query vector")
        params = {"global_params": [p.tolist() for p in model.get_params()]}
        return self.gateway.execute(vector, timeout_s, params=params)

    def _execute_fetch(self, vector: QueryVector) -> GatewayAnswer:
        """Retrieve records through the HIE exchange (grants enforced,
        payload encrypted to the requester, schema projected).

        This is the paper's "if the users' submitted requests are retrieving
        data, the system will return the encrypted data which only the
        requesting user can decrypt", with "the returned data format based
        on users' requested schema".
        """
        from repro.sharing.encryption import decrypt

        start = self.platform.kernel.now
        records: List[Any] = []
        partials: Dict[str, Dict[str, Any]] = {}
        failures: Dict[str, str] = {}
        bytes_on_wire = 0
        for ref in self.platform.catalog():
            site = self.platform.sites.get(ref.site)
            if site is None:
                continue
            try:
                receipt = site.exchange.request_records(
                    self.researcher,
                    ref.dataset_id,
                    vector.purpose,
                    fields=vector.requested_schema or None,
                )
            except Exception as exc:  # AccessDenied / Integrity / Oracle
                failures[ref.site] = str(exc)
                continue
            payload = decrypt(self.researcher.private, receipt.envelope)
            records.extend(payload["records"])
            bytes_on_wire += receipt.payload_bytes
            partials[ref.site] = {"records": receipt.record_count}
        if not partials:
            raise QueryError(f"fetch produced no records; failures: {failures}")
        result = {"records": records, "count": len(records)}
        return GatewayAnswer(
            query_id=vector.query_id,
            result=result,
            result_hash=hash_value_hex(result),
            site_partials=partials,
            failed_sites=failures,
            latency_s=self.platform.kernel.now - start,
            bytes_on_wire=bytes_on_wire,
            transport="chain",
        )

    def train_model(
        self, vector: QueryVector, timeout_s: Optional[float] = None
    ) -> SupervisedModel:
        """Convenience: run a ``train`` query and materialize the model."""
        answer = self.execute(vector, timeout_s)
        model: SupervisedModel
        if vector.model == "mlp":
            model = MLPModel(FEATURE_DIM)
        else:
            model = LogisticModel(FEATURE_DIM)
        model.set_params(
            [np.asarray(p, dtype=float) for p in answer.result["params"]]
        )
        return model

    def _execute_train(
        self, vector: QueryVector, timeout_s: Optional[float]
    ) -> GatewayAnswer:
        """Federated averaging, one gateway round per round: the last
        round's answer, with every round's latency and bytes."""
        params: Dict[str, Any] = {}
        latency_s, total_bytes = 0.0, 0
        for round_index in range(vector.rounds):
            params["seed"] = round_index
            answer = self.gateway.execute(vector, timeout_s, params=params)
            latency_s += answer.latency_s
            total_bytes += answer.bytes_on_wire
            params = {"global_params": answer.result["params"]}
        return dataclasses.replace(answer, latency_s=latency_s, bytes_on_wire=total_bytes)
