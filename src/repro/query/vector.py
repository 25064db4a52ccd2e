"""Query vectors.

Section IV: users submit requests "in the form of query vector which
consists of various parameters expressing the users' query interest"; the
system maps the vector into smart contracts.  A :class:`QueryVector` is the
typed, canonical form every request takes after parsing and before
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.errors import QueryError
from repro.common.hashing import sha256_hex
from repro.common.serialize import canonical_bytes

#: Intents the engine can decompose and compose.
INTENTS = (
    "count",
    "prevalence",
    "mean",
    "histogram",
    "describe",
    "train",
    "evaluate",
    "cluster",
    "compare",
    "fetch",
)

#: Intents whose per-site partial results merge losslessly.
MERGEABLE_INTENTS = frozenset(
    {"count", "prevalence", "mean", "histogram", "train", "compare", "evaluate"}
)


@dataclass
class QueryVector:
    """Structured research query."""

    intent: str
    outcome: str = ""          # e.g. "stroke" for prevalence/train
    target_field: str = ""     # dotted path, e.g. "vitals.sbp", for mean/histogram
    filters: Dict[str, Any] = field(default_factory=dict)
    model: str = "logistic"    # for intent == "train"
    rounds: int = 10           # federated rounds for intent == "train"
    bins: int = 10             # for intent == "histogram"
    value_range: Optional[List[float]] = None  # [low, high] for histogram
    purpose: str = "research"
    requested_schema: List[str] = field(default_factory=list)  # for "fetch"
    group_field: str = ""                # for "compare": dotted path or "sex"
    group_values: List[Any] = field(default_factory=list)  # the two groups

    def validate(self) -> None:
        if self.intent not in INTENTS:
            raise QueryError(f"unknown intent {self.intent!r}")
        if self.intent in ("prevalence", "train", "evaluate") and not self.outcome:
            raise QueryError(f"intent {self.intent!r} requires an outcome")
        if self.intent in ("mean", "histogram", "describe", "compare") and not self.target_field:
            raise QueryError(f"intent {self.intent!r} requires a target field")
        if self.intent == "histogram" and (
            self.value_range is None or len(self.value_range) != 2
        ):
            raise QueryError("histogram requires value_range=[low, high]")
        if self.intent == "compare":
            if not self.group_field or len(self.group_values) != 2:
                raise QueryError(
                    "compare requires group_field and exactly two group_values"
                )

    @property
    def query_id(self) -> str:
        """Content-addressed id (stable across nodes): a hash of every field."""
        return self.query_id_of(canonical_bytes(self))

    @staticmethod
    def query_id_of(encoded: bytes) -> str:
        """The ``query_id`` of the vector whose canonical bytes are ``encoded``."""
        return "q-" + sha256_hex(encoded)[:16]

    def tool_id(self) -> str:
        """The site tool this intent dispatches onto."""
        mapping = {
            "count": "count",
            "prevalence": "prevalence",
            "mean": "numeric_summary",
            "histogram": "histogram",
            "describe": "describe",
            "train": "local_train",
            "evaluate": "evaluate_model",
            "cluster": "cluster",
            "compare": "compare_groups",
        }
        if self.intent not in mapping:
            raise QueryError(f"intent {self.intent!r} has no site tool (use HIE fetch)")
        return mapping[self.intent]

    def tool_params(self) -> Dict[str, Any]:
        """Parameters handed to the site tool (predicates pushed down)."""
        params: Dict[str, Any] = {"filters": dict(self.filters)}
        if self.intent == "prevalence":
            params["outcome"] = self.outcome
        elif self.intent == "mean":
            params["field"] = self.target_field
        elif self.intent == "describe":
            params["field"] = self.target_field
        elif self.intent == "histogram":
            params["field"] = self.target_field
            params["bins"] = self.bins
            params["low"], params["high"] = self.value_range
        elif self.intent in ("train", "evaluate"):
            params["outcome"] = self.outcome
            params["model"] = self.model
        elif self.intent == "cluster":
            params["k"] = self.bins if self.bins else 3
        elif self.intent == "compare":
            params["field"] = self.target_field
            params["group_field"] = self.group_field
            params["group_values"] = list(self.group_values)
        return params
