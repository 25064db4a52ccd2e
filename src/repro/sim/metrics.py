"""Metrics and resource accounting for simulated experiments.

The paper's central complaints are quantitative — wasted electricity from
duplicated mining/validation (Digiconomist, section I) and the cost of
moving huge medical data sets (section IV).  This module gives every
experiment a uniform way to account CPU work, hash operations, bytes moved,
and derived energy, so benchmarks E1–E12 can report them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class EnergyModel:
    """Converts abstract work units into joules.

    Defaults are order-of-magnitude figures for commodity server hardware;
    experiments only compare *ratios*, so absolute calibration is not
    load-bearing.
    """

    joules_per_hash: float = 1e-6  # one SHA-256 double-hash attempt
    joules_per_gas: float = 5e-8  # one unit of contract gas
    joules_per_byte_transferred: float = 1e-8  # NIC + switch energy
    joules_per_flop: float = 1e-10  # numeric analytics work

    def energy_joules(
        self,
        hashes: float = 0.0,
        gas: float = 0.0,
        bytes_transferred: float = 0.0,
        flops: float = 0.0,
    ) -> float:
        return (
            hashes * self.joules_per_hash
            + gas * self.joules_per_gas
            + bytes_transferred * self.joules_per_byte_transferred
            + flops * self.joules_per_flop
        )


@dataclass
class Histogram:
    """Simple value recorder with summary statistics."""

    values: List[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile; ``fraction`` in [0, 1]."""
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
        return ordered[rank]


class MetricsRegistry:
    """Per-experiment counter/histogram store with resource accounting.

    Counters are keyed by ``(name, scope)`` where scope is typically a node
    name; aggregate views sum across scopes.
    """

    def __init__(self, energy_model: Optional[EnergyModel] = None):
        self.energy_model = energy_model or _DEFAULT_ENERGY_MODEL
        self._counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self._histograms: Dict[str, Histogram] = defaultdict(Histogram)

    # -- counters ---------------------------------------------------------
    def add(self, name: str, value: float = 1.0, scope: str = "") -> None:
        self._counters[(name, scope)] += value

    def counter(self, name: str, scope: str = "") -> float:
        return self._counters[(name, scope)]

    def counter_total(self, name: str) -> float:
        return sum(
            value for (key, __), value in self._counters.items() if key == name
        )

    def scopes(self, name: str) -> Dict[str, float]:
        return {
            scope: value
            for (key, scope), value in self._counters.items()
            if key == name
        }

    # -- resource shorthands ----------------------------------------------
    def add_hashes(self, count: float, scope: str = "") -> None:
        self.add("hashes", count, scope)

    def add_gas(self, amount: float, scope: str = "") -> None:
        self.add("gas", amount, scope)

    def add_bytes(self, count: float, scope: str = "") -> None:
        self.add("bytes_transferred", count, scope)

    def add_flops(self, count: float, scope: str = "") -> None:
        self.add("flops", count, scope)

    def total_energy_joules(self) -> float:
        """Energy implied by all recorded resource counters."""
        return self.energy_model.energy_joules(
            hashes=self.counter_total("hashes"),
            gas=self.counter_total("gas"),
            bytes_transferred=self.counter_total("bytes_transferred"),
            flops=self.counter_total("flops"),
        )

    def node_energy_joules(self, scope: str) -> float:
        return self.energy_model.energy_joules(
            hashes=self.counter("hashes", scope),
            gas=self.counter("gas", scope),
            bytes_transferred=self.counter("bytes_transferred", scope),
            flops=self.counter("flops", scope),
        )

    # -- histograms ---------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        self._histograms[name].record(value)

    def histogram(self, name: str) -> Histogram:
        return self._histograms[name]

    def summary(self) -> Dict[str, float]:
        """Flat dict of aggregate counters plus derived energy."""
        names = {key for key, __ in self._counters}
        out = {name: self.counter_total(name) for name in sorted(names)}
        out["energy_joules"] = self.total_energy_joules()
        return out

    # -- snapshot ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data dump of every counter and histogram."""
        return {
            "counters": [
                [name, scope, value]
                for (name, scope), value in self._counters.items()
            ],
            "histograms": {
                name: list(histogram.values)
                for name, histogram in self._histograms.items()
            },
        }


_DEFAULT_ENERGY_MODEL = EnergyModel()

# -- process-wide registry ---------------------------------------------------
#
# Library code that has no registry handed to it (analytics tools, the
# task runner) records into the one registry of the process.

_GLOBAL_REGISTRY = MetricsRegistry()


def current_metrics() -> MetricsRegistry:
    """The process-wide registry (never None)."""
    return _GLOBAL_REGISTRY
