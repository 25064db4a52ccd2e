"""Finding reporters: human text, machine JSON, and SARIF 2.1.0."""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.findings import AnalysisResult, Finding, count_by_severity
from repro.analysis.registry import all_rules

#: Severity -> SARIF result level.
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def render_text(result: AnalysisResult) -> str:
    lines: List[str] = [f.render() for f in result.sorted_findings()]
    counts = count_by_severity(result.findings)
    summary = (
        f"{result.files_analyzed} file(s), "
        f"{result.contracts_analyzed} embedded contract(s) analyzed; "
        + (
            ", ".join(
                f"{counts[key]} {key}"
                for key in ("error", "warning", "info")
                if key in counts
            )
            or "no findings"
        )
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def _sarif_location(
    file: str, line: int, col: int = 0, message: str = ""
) -> Dict[str, Any]:
    location: Dict[str, Any] = {
        "physicalLocation": {
            "artifactLocation": {"uri": file.replace("\\", "/")},
            "region": {"startLine": max(line, 1), "startColumn": col + 1},
        }
    }
    if message:
        location["message"] = {"text": message}
    return location


def _sarif_result(finding: Finding) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": finding.code,
        "level": _SARIF_LEVELS[finding.severity.name.lower()],
        "message": {"text": finding.message},
        "locations": [
            _sarif_location(finding.file, finding.line, finding.col)
        ],
    }
    if finding.trace:
        # The taint trace becomes a SARIF code flow so code-scanning UIs
        # render the source -> path -> sink hops inline.
        result["codeFlows"] = [
            {
                "threadFlows": [
                    {
                        "locations": [
                            {
                                "location": _sarif_location(
                                    step.get("file", finding.file),
                                    step.get("line", 0),
                                    message=f"[{step['kind']}] "
                                    f"{step['detail']}",
                                )
                            }
                            for step in finding.trace
                        ]
                    }
                ]
            }
        ]
    return result


def sarif_as_dict(result: AnalysisResult) -> Dict[str, Any]:
    """The full SARIF 2.1.0 log for one analysis run."""
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {
                                "id": rule.code,
                                "name": rule.name,
                                "shortDescription": {"text": rule.summary},
                                "defaultConfiguration": {
                                    "level": _SARIF_LEVELS[
                                        rule.default_severity.name.lower()
                                    ]
                                },
                            }
                            for rule in all_rules()
                        ],
                    }
                },
                "results": [
                    _sarif_result(finding)
                    for finding in result.sorted_findings()
                ],
            }
        ],
    }


def render_sarif(result: AnalysisResult) -> str:
    return json.dumps(sarif_as_dict(result), indent=2, sort_keys=True)


def render_rules() -> str:
    """The rule catalog (``--list-rules``)."""
    lines = []
    for rule in all_rules():
        lines.append(
            f"{rule.code}  {rule.name:<26} [{rule.family}] "
            f"{rule.default_severity.name.lower():<7} {rule.summary}"
        )
    return "\n".join(lines)
