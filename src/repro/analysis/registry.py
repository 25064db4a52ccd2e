"""Pluggable checker registry.

Checkers self-register at import time via the :func:`register` decorator and
are grouped into two families:

- ``contract`` — verification of MedScript contract source (run by the
  platform's deploy gate, ``platform_deploy_tx``, and by the CLI over
  embedded ``*_SOURCE`` literals);
- ``repo``     — convention lints over the ``repro`` codebase itself.

Third-party extensions (or tests) can register additional checkers; the
engine iterates whatever the registry holds, sorted by rule code so output
order is stable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Type

from repro.analysis.contract_ir import ContractIR, build
from repro.analysis.findings import Finding, RuleInfo
from repro.contracts.vm import ContractModule

CONTRACT_FAMILY = "contract"
REPO_FAMILY = "repo"
DATAFLOW_FAMILY = "dataflow"


@dataclass
class ContractContext:
    """Everything a contract checker may inspect for one contract module."""

    source: str
    module: ContractModule  # the VM's one parse: tree, functions, constants, violations
    host_functions: FrozenSet[str]
    pure_builtins: FrozenSet[str]
    file: str = "<contract>"
    line_offset: int = 0  # added to every reported line (embedded sources)
    max_gas: Optional[int] = None  # gas ceiling for MED008; None disables

    @cached_property
    def ir(self) -> ContractIR:
        """The contract IR the MED0xx rules read, built from ``module`` on first use."""
        return build(self.module)

    def map_line(self, line: int) -> int:
        return line + self.line_offset


@dataclass
class ModuleContext:
    """Everything a repo checker may inspect for one python module."""

    source: str
    tree: ast.Module
    file: str  # real path on disk
    package_path: str  # path relative to the package root, "/" separated
    lines: List[str] = field(default_factory=list)

    def in_package(self, *prefixes: str) -> bool:
        """True when the module lives under any ``repro/<prefix>`` subtree."""
        return any(
            self.package_path.startswith(f"repro/{prefix.strip('/')}/")
            or self.package_path == f"repro/{prefix.strip('/')}.py"
            for prefix in prefixes
        )


class ContractChecker:
    """Base class for contract-family checkers."""

    rule: RuleInfo

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        raise NotImplementedError


class RepoChecker:
    """Base class for repo-family checkers."""

    rule: RuleInfo

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError


_CONTRACT_CHECKERS: Dict[str, Type[ContractChecker]] = {}
_REPO_CHECKERS: Dict[str, Type[RepoChecker]] = {}
# Rules implemented outside the one-class-per-code checker protocol (the
# dataflow taint pass emits five codes from one engine) still appear in the
# catalog via this table.
_EXTRA_RULES: Dict[str, RuleInfo] = {}


def register_rule_info(rule: RuleInfo) -> RuleInfo:
    """Register a rule that is not backed by a checker class (dataflow)."""
    existing = _EXTRA_RULES.get(rule.code)
    if existing is not None and existing != rule:
        raise ValueError(f"duplicate rule code {rule.code}")
    _EXTRA_RULES[rule.code] = rule
    return rule


def register(checker_cls):
    """Class decorator: add a checker to the registry, keyed by rule code."""
    rule = checker_cls.rule
    if rule.family == CONTRACT_FAMILY:
        table = _CONTRACT_CHECKERS
    elif rule.family == REPO_FAMILY:
        table = _REPO_CHECKERS
    else:
        raise ValueError(f"unknown checker family {rule.family!r}")
    if rule.code in table and table[rule.code] is not checker_cls:
        raise ValueError(f"duplicate rule code {rule.code}")
    table[rule.code] = checker_cls
    return checker_cls


def contract_checkers() -> List[ContractChecker]:
    return [_CONTRACT_CHECKERS[code]() for code in sorted(_CONTRACT_CHECKERS)]


def repo_checkers() -> List[RepoChecker]:
    return [_REPO_CHECKERS[code]() for code in sorted(_REPO_CHECKERS)]


def all_rules() -> List[RuleInfo]:
    """The full rule catalog, sorted by code."""
    rules = [cls.rule for cls in _CONTRACT_CHECKERS.values()]
    rules += [cls.rule for cls in _REPO_CHECKERS.values()]
    rules += list(_EXTRA_RULES.values())
    return sorted(rules, key=lambda rule: rule.code)
