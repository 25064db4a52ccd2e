"""MED2xx "PHI escape" rule family.

Every rule reports the same underlying defect — raw patient data provably
reaches a site-boundary sink — but the code names the *mechanism* of the
escape, chosen from the kinds of the propagation steps in the completed
trace (most specific wins):

- **MED205** the flow passed through a *declared* sanitizer whose summary
  proves PHI survives (false-sanitizer re-identification);
- **MED203** the flow crossed a helper-call boundary (interprocedural);
- **MED204** the flow travelled through container aliasing / mutation;
- **MED202** the flow was stringified (f-string / ``str()``) on the way;
- **MED201** none of the above: a direct store of the record.

All five are ERROR severity: the site-boundary contract is the paper's
central privacy property, so any proven escape blocks deploy and CI.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.analysis.dataflow.engine import Flow, TaintEngine
from repro.analysis.dataflow.lattice import (
    STEP_CALL,
    STEP_CONTAINER,
    STEP_FORMAT,
    STEP_SANITIZER_BYPASS,
    STEP_SOURCE,
    TaintStep,
)
from repro.analysis.findings import Finding, RuleInfo, Severity
from repro.analysis.registry import (
    DATAFLOW_FAMILY,
    ContractContext,
    ModuleContext,
    register_rule_info,
)

MED201 = register_rule_info(
    RuleInfo(
        code="MED201",
        name="phi-direct-store",
        family=DATAFLOW_FAMILY,
        default_severity=Severity.ERROR,
        summary="Raw patient data is written directly to a site-boundary "
        "sink (chain state, RPC response, gossip, trace export).",
    )
)
MED202 = register_rule_info(
    RuleInfo(
        code="MED202",
        name="phi-format-leak",
        family=DATAFLOW_FAMILY,
        default_severity=Severity.ERROR,
        summary="Patient data is interpolated into a string (f-string / "
        "str()) that crosses the site boundary.",
    )
)
MED203 = register_rule_info(
    RuleInfo(
        code="MED203",
        name="phi-helper-leak",
        family=DATAFLOW_FAMILY,
        default_severity=Severity.ERROR,
        summary="Patient data escapes the site boundary through an "
        "interprocedural helper call.",
    )
)
MED204 = register_rule_info(
    RuleInfo(
        code="MED204",
        name="phi-container-leak",
        family=DATAFLOW_FAMILY,
        default_severity=Severity.ERROR,
        summary="Patient data escapes via container aliasing: a mutation "
        "through one name leaks through another bound to the same object.",
    )
)
MED205 = register_rule_info(
    RuleInfo(
        code="MED205",
        name="phi-false-sanitizer",
        family=DATAFLOW_FAMILY,
        default_severity=Severity.ERROR,
        summary="A declared sanitizer (anonymize_*/redact_*/...) provably "
        "passes patient data through to a boundary sink "
        "(re-identification risk).",
    )
)

DATAFLOW_RULES: Tuple[RuleInfo, ...] = (MED201, MED202, MED203, MED204, MED205)

#: Mechanism priority: the most specific step kind present names the rule.
_CODE_BY_STEP_KIND = (
    (STEP_SANITIZER_BYPASS, "MED205"),
    (STEP_CALL, "MED203"),
    (STEP_CONTAINER, "MED204"),
    (STEP_FORMAT, "MED202"),
)


def code_for_trace(steps: Tuple[TaintStep, ...]) -> str:
    """Pick the MED2xx code from the mechanism steps of a completed trace."""
    kinds = {step.kind for step in steps}
    for kind, code in _CODE_BY_STEP_KIND:
        if kind in kinds:
            return code
    return "MED201"


def _finding_from_flow(
    flow: Flow,
    *,
    file: str,
    map_line: Optional[Callable[[int], int]] = None,
) -> Finding:
    mapper = map_line or (lambda line: line)
    steps = tuple(
        TaintStep(
            kind=step.kind,
            detail=step.detail,
            line=mapper(step.line) if step.line else 0,
            file=step.file or file,
        )
        for step in flow.steps
    )
    source_detail = next(
        (s.detail for s in steps if s.kind == STEP_SOURCE), "patient data"
    )
    path = " -> ".join(
        f"{s.kind}@{s.line}" if s.line else s.kind for s in steps
    )
    return Finding(
        code=code_for_trace(flow.steps),
        message=(
            f"PHI escapes the site boundary: {source_detail} reaches "
            f"{flow.sink_kind} [{path}]"
        ),
        severity=Severity.ERROR,
        file=file,
        line=mapper(flow.line),
        col=flow.col,
        symbol=flow.symbol,
        trace=tuple(step.to_dict() for step in steps),
    )


def check_module(ctx: ModuleContext) -> List[Finding]:
    """Run the taint pass over one repo python module."""
    engine = TaintEngine(ctx.tree, contract_mode=False)
    flows = engine.run()
    return [_finding_from_flow(flow, file=ctx.file) for flow in flows]


def check_contract(ctx: ContractContext) -> List[Finding]:
    """Run the taint pass over one MedScript contract module."""
    engine = TaintEngine(ctx.module.tree, contract_mode=True)
    flows = engine.run()
    return [
        _finding_from_flow(flow, file=ctx.file, map_line=ctx.map_line)
        for flow in flows
    ]
