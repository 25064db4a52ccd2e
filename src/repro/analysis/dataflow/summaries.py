"""Interprocedural function summaries for the PHI taint pass.

A :class:`FunctionSummary` compresses one module-level function into what a
caller needs to know, so call sites are resolved without re-walking callee
bodies at every call (the summary-based interprocedural strategy):

- ``returns`` — the taint of the return value, expressed over the callee's
  own parameters (``params={'record'}`` means "returns whatever taint the
  ``record`` argument carries") plus any fresh source taint picked up
  inside;
- ``param_sink_flows`` — parameters that reach a site-boundary sink inside
  the callee, with the internal trace steps, so the *caller* can report a
  complete source → helper → sink flow (MED203);
- ``unknown`` — the analysis gave up (recursion, call-depth cap, ambiguous
  callee).  An unknown callee's result is UNKNOWN, never silently CLEAN.

Summaries are computed lazily and memoized per analysis run; recursion is
cut by an in-progress stack that poisons the cycle to ``unknown``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.dataflow.lattice import CLEAN, Taint, TaintStep

#: Follow helper calls at most this deep before poisoning to unknown.
DEFAULT_MAX_CALL_DEPTH = 8


@dataclass(frozen=True)
class ParamSinkFlow:
    """One parameter of a function that flows to a boundary sink inside."""

    param: str
    sink_kind: str  # e.g. "chain state", "obs trace attribute"
    steps: Tuple[TaintStep, ...]  # internal hops, ending with the sink step


@dataclass(frozen=True)
class FunctionSummary:
    """What a call site needs to know about one function."""

    name: str
    returns: Taint = CLEAN
    param_sink_flows: Tuple[ParamSinkFlow, ...] = ()
    unknown: bool = False

    @property
    def leaks_params_to_return(self) -> bool:
        """True when any parameter's taint survives into the return value —
        the test that turns a *declared* sanitizer into a false one
        (MED205)."""
        return bool(self.returns.params) or self.returns.tainted


UNKNOWN_SUMMARY = FunctionSummary(name="<unknown>", unknown=True)
