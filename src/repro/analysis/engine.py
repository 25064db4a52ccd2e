"""Analysis engine: orchestrates checkers over contracts, files, and trees.

Three entrypoints:

- :func:`analyze_contract_source` — run the contract family over one
  MedScript module (the deploy gate calls this);
- :func:`analyze_file` — run the repo family over one python file, plus the
  contract family over any embedded ``*_SOURCE`` contract literals it
  defines (the library audit);
- :func:`analyze_paths` — walk directories, used by the CLI and CI.

Suppressions: a ``# repro: noqa`` comment suppresses every finding on its
line; ``# repro: noqa[MED001,MED005]`` suppresses just those codes.  The
comment lives on the offending line (inside contract literals too — the
engine maps embedded lines back to host-file coordinates).  The grammar
findings (MED002, MED003, MED009) cannot be suppressed: they are the VM's
own compile errors, so a silenced one would only fail the deploy on chain.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.dataflow.rules import check_contract, check_module
from repro.analysis.findings import AnalysisResult, Finding, Severity
from repro.analysis.registry import (
    ContractContext,
    ModuleContext,
    contract_checkers,
    repo_checkers,
)
from repro.contracts.runtime import HOST_FUNCTION_NAMES
from repro.contracts.vm import _PURE_BUILTINS, parse_contract

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)

PURE_BUILTIN_NAMES: FrozenSet[str] = frozenset(_PURE_BUILTINS)

#: Codes a ``noqa`` comment cannot silence: ``vm.parse_contract``'s violations.
UNSUPPRESSIBLE_CODES: FrozenSet[str] = frozenset({"MED002", "MED003", "MED009"})

#: suffix marking module-level string constants audited as contract source
EMBEDDED_SOURCE_SUFFIX = "_SOURCE"


def parse_suppressions(
    source: str, line_offset: int = 0
) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed codes (``None`` = all codes)."""
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for index, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        key = index + line_offset
        if codes is None:
            suppressions[key] = None
        else:
            parsed = {code.strip().upper() for code in codes.split(",") if code.strip()}
            existing = suppressions.get(key)
            if existing is None and key in suppressions:
                continue  # blanket suppression already present
            suppressions[key] = (existing or set()) | parsed
    return suppressions


def apply_suppressions(
    findings: Iterable[Finding],
    suppressions: Dict[int, Optional[Set[str]]],
) -> List[Finding]:
    kept = []
    for finding in findings:
        if finding.code in UNSUPPRESSIBLE_CODES:
            kept.append(finding)
            continue
        allowed = suppressions.get(finding.line, ())
        if allowed is None:  # blanket noqa
            continue
        if finding.code in allowed:
            continue
        kept.append(finding)
    return kept


def analyze_contract_source(
    source: str,
    *,
    file: str = "<contract>",
    line_offset: int = 0,
    max_gas: Optional[int] = None,
    suppressions: Optional[Dict[int, Optional[Set[str]]]] = None,
    taint: bool = True,
) -> List[Finding]:
    """Run every contract-family checker over one MedScript module.

    The MED2xx PHI taint pass is on by default for contracts — the deploy
    gate must reject PHI-escaping contracts without opt-in flags.
    """
    try:
        module = parse_contract(source)
    except SyntaxError as exc:
        return [
            Finding(
                code="MED009",
                message=f"contract does not parse: {exc.msg}",
                severity=Severity.ERROR,
                file=file,
                line=(exc.lineno or 1) + line_offset,
                col=exc.offset or 0,
            )
        ]
    ctx = ContractContext(
        source=source,
        module=module,
        host_functions=HOST_FUNCTION_NAMES,
        pure_builtins=PURE_BUILTIN_NAMES,
        file=file,
        line_offset=line_offset,
        max_gas=max_gas,
    )
    findings: List[Finding] = []
    for checker in contract_checkers():
        findings.extend(checker.check(ctx))
    if taint:
        findings.extend(check_contract(ctx))
    if suppressions is None:
        suppressions = parse_suppressions(source, line_offset)
    return apply_suppressions(findings, suppressions)


def _package_path(path: str) -> str:
    """Path of a module relative to its package root (best effort).

    ``src/repro/chain/state.py`` -> ``repro/chain/state.py``; files outside
    a ``repro`` package keep their normalized relative path, which simply
    never matches the path-scoped rules.
    """
    normalized = os.path.normpath(path).replace(os.sep, "/")
    marker = "/repro/"
    index = normalized.rfind(marker)
    if index >= 0:
        return "repro/" + normalized[index + len(marker):]
    if normalized.startswith("repro/"):
        return normalized
    return normalized.lstrip("./")


def extract_embedded_contracts(
    tree: ast.Module,
) -> List[Tuple[str, int, str]]:
    """Embedded contract literals: ``(name, literal_line, source)`` triples.

    A module-level ``NAME_SOURCE = '''...'''`` string that parses and
    defines at least one function is treated as deployable contract source
    (this is how ``repro/contracts/library.py`` ships the platform
    contracts).
    """
    out: List[Tuple[str, int, str]] = []
    for node in tree.body:
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith(EMBEDDED_SOURCE_SUFFIX)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            continue
        source = node.value.value
        try:
            parsed = ast.parse(source)
        except SyntaxError:
            continue  # not contract source; plain string that happens to match
        if any(isinstance(sub, ast.FunctionDef) for sub in parsed.body):
            out.append((node.targets[0].id, node.value.lineno, source))
    return out


def analyze_file(
    path: str,
    *,
    max_gas: Optional[int] = None,
    audit_embedded: bool = True,
    taint: bool = False,
) -> List[Finding]:
    """Repo lints for one file, plus embedded-contract verification.

    ``taint=True`` additionally runs the MED2xx PHI escape pass over the
    module itself (embedded contract literals are taint-checked regardless,
    as part of the contract audit).
    """
    findings, _ = _analyze_file(
        path, max_gas=max_gas, audit_embedded=audit_embedded, taint=taint
    )
    return findings


def _analyze_file(
    path: str,
    *,
    max_gas: Optional[int] = None,
    audit_embedded: bool = True,
    taint: bool = False,
) -> Tuple[List[Finding], int]:
    """Implementation: returns (findings, embedded_contract_count)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                code="MED100",
                message=f"file does not parse: {exc.msg}",
                severity=Severity.ERROR,
                file=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
            )
        ], 0
    ctx = ModuleContext(
        source=source,
        tree=tree,
        file=path,
        package_path=_package_path(path),
        lines=source.splitlines(),
    )
    findings: List[Finding] = []
    for checker in repo_checkers():
        findings.extend(checker.check(ctx))
    if taint:
        findings.extend(check_module(ctx))
    suppressions = parse_suppressions(source)
    findings = apply_suppressions(findings, suppressions)
    embedded = extract_embedded_contracts(tree) if audit_embedded else []
    for _name, literal_line, contract_source in embedded:
        # Content line 1 sits on the line after the opening quote of a
        # leading-newline triple-quoted literal; plain literals start on
        # the assignment line itself.
        offset = literal_line - 1 + (1 if contract_source.startswith("\n") else 0)
        findings.extend(
            analyze_contract_source(
                contract_source.lstrip("\n"),
                file=path,
                line_offset=offset,
                max_gas=max_gas,
            )
        )
    return findings, len(embedded)


def iter_python_files(paths: Iterable[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d != "__pycache__" and not d.startswith(".")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def analyze_paths(
    paths: Iterable[str],
    *,
    max_gas: Optional[int] = None,
    audit_embedded: bool = True,
    taint: bool = False,
) -> AnalysisResult:
    """Walk files under ``paths`` and run the full repo + library audit."""
    result = AnalysisResult()
    seen: Set[str] = set()
    for path in iter_python_files(paths):
        real = os.path.realpath(path)
        if real in seen:
            continue
        seen.add(real)
        findings, embedded_count = _analyze_file(
            path, max_gas=max_gas, audit_embedded=audit_embedded, taint=taint
        )
        result.extend(findings)
        result.files_analyzed += 1
        result.contracts_analyzed += embedded_count
    return result
