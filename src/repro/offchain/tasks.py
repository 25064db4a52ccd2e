"""Off-chain analytics task runner.

Control nodes execute registered tools against *local* records — the
"move computing to data" half of the paper's design strategy.  A tool is a
plain callable ``(records, params) -> result dict``; the runner wraps it
with flop accounting (for the energy model) and result hashing (so the
on-chain ``post_result`` commitment is verifiable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.errors import OracleError
from repro.common.hashing import hash_value_hex, sha256_hex
from repro.common.serialize import canonical_bytes
from repro.obs.tracer import trace_span
from repro.sim.metrics import current_metrics

ToolFn = Callable[[Sequence[Dict[str, Any]], Dict[str, Any]], Dict[str, Any]]


@dataclass
class ToolSpec:
    """A registered analytics tool."""

    tool_id: str
    fn: ToolFn
    description: str = ""
    flops_per_record: float = 100.0

    def code_hash(self) -> str:
        """Anchor for on-chain tool registration (code integrity)."""
        import inspect

        try:
            source = inspect.getsource(self.fn)
        except (OSError, TypeError):
            source = repr(self.fn)
        return hash_value_hex({"tool_id": self.tool_id, "source": source})


@dataclass
class TaskResult:
    """Outcome of a local task execution."""

    task_id: str
    tool_id: str
    site: str
    result: Dict[str, Any]
    result_hash: str
    records_used: int
    flops: float
    #: ``result``'s canonical bytes, which ``result_hash`` is taken over.
    result_bytes: bytes = field(repr=False)

    def summary(self) -> Dict[str, Any]:
        """Small on-chain-safe summary (ints/strings only)."""
        return {
            "records_used": self.records_used,
            "flops": int(self.flops),
            "keys": sorted(self.result.keys()),
        }


class ToolRegistry:
    """Per-site registry of executable analytics tools."""

    def __init__(self) -> None:
        self._tools: Dict[str, ToolSpec] = {}

    def register(self, spec: ToolSpec) -> None:
        if spec.tool_id in self._tools:
            raise OracleError(f"tool {spec.tool_id!r} already registered")
        self._tools[spec.tool_id] = spec

    def get(self, tool_id: str) -> ToolSpec:
        spec = self._tools.get(tool_id)
        if spec is None:
            raise OracleError(f"tool {tool_id!r} is not available at this site")
        return spec

    def has(self, tool_id: str) -> bool:
        return tool_id in self._tools

    def tool_ids(self) -> List[str]:
        return sorted(self._tools)


class TaskRunner:
    """Executes tools over local records with resource accounting."""

    def __init__(self, site: str, registry: Optional[ToolRegistry] = None):
        self.site = site
        self.registry = registry or ToolRegistry()

    def run(
        self,
        task_id: str,
        tool_id: str,
        records: Sequence[Dict[str, Any]],
        params: Dict[str, Any],
    ) -> TaskResult:
        spec = self.registry.get(tool_id)
        with trace_span(
            "tool.run", tool=spec.tool_id, site=self.site, records=len(records)
        ) as span:
            result = spec.fn(records, dict(params))
            if not isinstance(result, dict):
                raise OracleError(f"tool {spec.tool_id!r} must return a dict")
            flops = spec.flops_per_record * max(1, len(records))
            span.set_attr("flops", flops)
        # Distinct counter names from the sim-side "flops" resource counter:
        # ControlNode already charges result.flops to the platform registry.
        metrics = current_metrics()
        metrics.add("tool_tasks", 1, scope=self.site)
        metrics.add("tool_flops", flops, scope=self.site)
        encoded = canonical_bytes(result)
        return TaskResult(
            task_id=task_id,
            tool_id=spec.tool_id,
            site=self.site,
            result=result,
            result_hash=sha256_hex(encoded),
            records_used=len(records),
            flops=flops,
            result_bytes=encoded,
        )
