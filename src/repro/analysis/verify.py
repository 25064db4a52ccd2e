"""Deploy-time contract verification gate.

:func:`verify_contract` is the one-call form used by
:func:`repro.contracts.deploy.platform_deploy_tx` (before every platform
contract's deploy tx is signed) and by any off-chain admission service: it
runs the full contract-family analysis and raises a typed
:class:`~repro.common.errors.ContractVerificationError` when findings at or
above the failure threshold remain.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.engine import analyze_contract_source
from repro.analysis.findings import Finding, Severity
from repro.common.errors import ContractVerificationError


def verify_contract(
    source: str,
    *,
    name: str = "<contract>",
    max_gas: Optional[int] = None,
    fail_on: Severity = Severity.ERROR,
    taint: bool = True,
) -> List[Finding]:
    """Statically verify contract source; raise on gate-failing findings.

    Returns the full finding list (including sub-threshold warnings, so
    callers can log them) when the contract passes.  Raises
    :class:`ContractVerificationError` carrying the findings when any
    finding reaches ``fail_on``.  ``taint=True`` (the default) includes the
    MED2xx PHI escape pass; rejected findings carry their full
    source → path → sink trace on ``Finding.trace``.
    """
    findings = analyze_contract_source(
        source, file=name, max_gas=max_gas, taint=taint
    )
    failing = [finding for finding in findings if finding.severity >= fail_on]
    if failing:
        summary = "; ".join(
            f"{finding.code}@{finding.line}: {finding.message}"
            for finding in failing[:3]
        )
        more = f" (+{len(failing) - 3} more)" if len(failing) > 3 else ""
        raise ContractVerificationError(
            f"contract {name!r} failed static verification with "
            f"{len(failing)} finding(s): {summary}{more}",
            findings=findings,
        )
    return findings
