"""Virtual cohort: a large logical data set that never moves.

Section III.A's goal — "build a large size core initial training data set"
from "individual and distributed EMR data sets hosted by various hospitals"
— without copying data.  A :class:`VirtualCohort` holds *references* to
site-hosted datasets plus mergeable summary machinery, so global statistics
and model updates are composed from per-site partials (the compose step of
Figures 5/6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.errors import QueryError


@dataclass(frozen=True)
class DatasetRef:
    """Pointer to one site-hosted dataset."""

    site: str
    dataset_id: str
    record_count: int
    schema: str = "patient-canonical-v1"


#: Resolves a site name to something with ``get_records(dataset_id)``.
HostResolver = Callable[[str], Any]


def field_getter(path: str) -> Callable[[Dict[str, Any]], Any]:
    """``get_field`` for one path, split once: use it in per-record loops."""
    parts = path.split(".")

    def getter(record: Dict[str, Any]) -> Any:
        value: Any = record
        for part in parts:
            if not isinstance(value, dict) or part not in value:
                raise QueryError(f"record has no field {path!r}")
            value = value[part]
        return value

    return getter


def get_field(record: Dict[str, Any], path: str) -> Any:
    """Fetch a possibly nested field via dotted path (``vitals.sbp``)."""
    return field_getter(path)(record)


@dataclass
class NumericSummary:
    """Mergeable moments summary (count/sum/sum-of-squares/min/max)."""

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.total_sq += value * value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def merge(self, other: "NumericSummary") -> "NumericSummary":
        merged = NumericSummary(
            count=self.count + other.count,
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )
        return merged

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return max(0.0, self.total_sq / self.count - self.mean**2)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "NumericSummary":
        summary = cls()
        for value in values:
            summary.add(value)
        return summary

    @classmethod
    def from_dict_parts(cls, parts: Dict[str, float]) -> "NumericSummary":
        summary = cls()
        summary.count = int(parts["count"])
        summary.total = parts["mean"] * summary.count
        summary.total_sq = (parts["variance"] + parts["mean"] ** 2) * summary.count
        summary.minimum = parts.get("min", 0.0)
        summary.maximum = parts.get("max", 0.0)
        return summary


class VirtualCohort:
    """Composition of distributed datasets behind one logical interface."""

    def __init__(self, resolver: HostResolver):
        self._resolver = resolver
        self._refs: List[DatasetRef] = []

    def add_ref(self, ref: DatasetRef) -> None:
        self._refs.append(ref)

    @property
    def refs(self) -> List[DatasetRef]:
        return list(self._refs)

    @property
    def total_records(self) -> int:
        return sum(ref.record_count for ref in self._refs)

    @property
    def sites(self) -> List[str]:
        return sorted({ref.site for ref in self._refs})

    # -- pushed-down computation ------------------------------------------
    def map_sites(
        self, fn: Callable[[List[Dict[str, Any]], DatasetRef], Any]
    ) -> Dict[str, List[Any]]:
        """Run ``fn`` against each referenced dataset *at its site*.

        The records never leave the resolver's return path; only ``fn``'s
        (small) output is collected — move-compute-to-data in miniature.
        """
        partials: Dict[str, List[Any]] = {}
        for ref in self._refs:
            host = self._resolver(ref.site)
            records = host.get_records(ref.dataset_id)
            partials.setdefault(ref.site, []).append(fn(records, ref))
        return partials

    def numeric_summary(
        self, path: str, predicate: Optional[Callable[[Dict[str, Any]], bool]] = None
    ) -> NumericSummary:
        """Global summary of a numeric field, composed from site partials."""

        field = field_getter(path)

        def local(records: List[Dict[str, Any]], __: DatasetRef) -> NumericSummary:
            summary = NumericSummary()
            for record in records:
                if predicate is None or predicate(record):
                    summary.add(field(record))
            return summary

        merged = NumericSummary()
        for site_partials in self.map_sites(local).values():
            for partial in site_partials:
                merged = merged.merge(partial)
        return merged

    def count_where(self, predicate: Callable[[Dict[str, Any]], bool]) -> int:
        """Global count of matching records, composed from site counts."""

        def local(records: List[Dict[str, Any]], __: DatasetRef) -> int:
            return sum(1 for record in records if predicate(record))

        return sum(
            partial
            for site_partials in self.map_sites(local).values()
            for partial in site_partials
        )

    def prevalence(self, outcome: str) -> float:
        """Fraction of patients with a binary outcome, across all sites."""
        total = self.total_records
        if total == 0:
            return 0.0
        positives = self.count_where(
            lambda record: bool(record.get("outcomes", {}).get(outcome, 0))
        )
        return positives / total
