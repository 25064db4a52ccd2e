"""Dynamically-established analytics pipelines.

Section IV ("Analytics Services"): *"The analytics decision tree is based on
the resulting data and condition of the results of previous computing step.
The pipeline of these tools need dynamically established."*  A pipeline is a
list of steps; each step has a guard over the accumulated context, so later
steps run (or not) depending on earlier results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import MedchainError

StepFn = Callable[[Dict[str, Any]], Any]
Guard = Callable[[Dict[str, Any]], bool]


@dataclass
class PipelineStep:
    """One analytic step with an optional execution guard."""

    name: str
    fn: StepFn
    guard: Optional[Guard] = None
    description: str = ""


@dataclass
class StepOutcome:
    name: str
    ran: bool
    output: Any = None
    error: str = ""


class AnalyticsPipeline:
    """Sequential, condition-gated execution of analytic steps.

    The context dict accumulates each step's output under its name, so
    guards and later steps can branch on previous results.
    """

    def __init__(self, name: str):
        self.name = name
        self._steps: List[PipelineStep] = []

    def add_step(
        self,
        name: str,
        fn: StepFn,
        guard: Optional[Guard] = None,
        description: str = "",
    ) -> "AnalyticsPipeline":
        if any(step.name == name for step in self._steps):
            raise MedchainError(f"duplicate step name {name!r}")
        self._steps.append(PipelineStep(name, fn, guard, description))
        return self

    def run(
        self, initial_context: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Execute; returns the final context with ``__trace__`` outcomes."""
        context: Dict[str, Any] = dict(initial_context or {})
        trace: List[StepOutcome] = []
        for step in self._steps:
            if step.guard is not None and not step.guard(context):
                trace.append(StepOutcome(name=step.name, ran=False))
                continue
            try:
                output = step.fn(context)
            except MedchainError as exc:
                trace.append(StepOutcome(name=step.name, ran=True, error=str(exc)))
                context["__error__"] = f"{step.name}: {exc}"
                break
            context[step.name] = output
            trace.append(StepOutcome(name=step.name, ran=True, output=output))
        context["__trace__"] = trace
        return context
