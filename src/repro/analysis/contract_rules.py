"""Contract-verification checkers (MED0xx).

These run over MedScript contract source *before* deployment — the
off-chain admission gate the MediChain-style architectures put in front of
on-chain registration.  Every rule protects the consensus-critical
property the paper relies on: the identical contract code must execute
identically (and boundedly) on every node.

Rule catalog:

- MED001 — reference to a nondeterministic / forbidden name
- MED002 — float (or complex) literal
- MED003 — true division ``/`` (yields floats under Python semantics)
- MED004 — loop with no gas-reachable bound (``while`` on a constant-true
  test with no ``break``/``return`` in the body: guaranteed gas exhaustion)
- MED005 — aliasable mutable value written to storage twice without
  rebinding (aliasing hazard for any runtime without copy-on-bridge)
- MED006 — call to a function that exists neither in the contract, the
  VM's pure builtins, nor :data:`repro.contracts.runtime.HOST_FUNCTION_NAMES`
- MED007 — unreachable statements after ``return`` / ``break`` / ``continue``
- MED008 — static worst-case gas estimate exceeds the configured ceiling
- MED009 — syntax the VM forbids (imports, attributes, comprehensions,
  non-literal constants, a module with no functions, ...)
- MED010 — read of a name that is never bound, or of a function outside
  call position

MED002, MED003 and MED009 are not rules of their own: they report
:func:`repro.contracts.vm.parse_contract`'s violations, so the gate admits
exactly what ``compile_contract`` compiles.
"""

from __future__ import annotations

import ast
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, RuleInfo, Severity
from repro.analysis.gasmodel import GasEstimator, format_gas
from repro.analysis.registry import (
    CONTRACT_FAMILY,
    ContractChecker,
    ContractContext,
    register,
    register_rule_info,
)
from repro.contracts.vm import assigned_names, bound_names

#: Names whose appearance in contract code signals nondeterminism (or an
#: attempt to reach outside the sandbox).  The VM would raise ``undefined
#: name`` at runtime; the analyzer rejects them at admission time with a
#: specific diagnosis.
FORBIDDEN_NAMES = frozenset(
    {
        "random",
        "time",
        "datetime",
        "id",
        "hash",
        "float",
        "complex",
        "set",
        "frozenset",
        "input",
        "open",
        "print",
        "eval",
        "exec",
        "compile",
        "globals",
        "locals",
        "vars",
        "getattr",
        "setattr",
        "delattr",
        "object",
        "type",
        "super",
        "uuid",
        "uuid4",
        "urandom",
        "__import__",
    }
)

_TERMINATORS = (ast.Return, ast.Break, ast.Continue)


def _known_names(ctx: ContractContext, func: ast.FunctionDef) -> Set[str]:
    """Names a call in ``func`` can reach."""
    return (
        bound_names(func)
        | set(ctx.module.constants)
        | set(ctx.module.functions)
        | set(ctx.pure_builtins)
        | set(ctx.host_functions)
    )


def _walk_functions(
    ctx: ContractContext,
) -> Iterable[Tuple[str, ast.FunctionDef]]:
    for name, func in sorted(ctx.module.functions.items()):
        yield name, func


@register
class ForbiddenNameChecker(ContractChecker):
    rule = RuleInfo(
        code="MED001",
        name="nondeterministic-name",
        family=CONTRACT_FAMILY,
        default_severity=Severity.ERROR,
        summary="reference to a nondeterministic or sandbox-escaping name "
        "(random, time, id, eval, ...)",
    )

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        for name, func in _walk_functions(ctx):
            local = bound_names(func)
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in FORBIDDEN_NAMES
                    and node.id not in local
                ):
                    yield Finding(
                        code=self.rule.code,
                        message=f"use of forbidden name {node.id!r} "
                        "(nondeterministic or outside the VM sandbox)",
                        severity=self.rule.default_severity,
                        file=ctx.file,
                        line=ctx.map_line(node.lineno),
                        col=node.col_offset,
                        symbol=name,
                    )


def _has_escape(body: List[ast.stmt]) -> bool:
    """True when any path out of the loop body exists (break/return)."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Break, ast.Return)):
                return True
    return False


def _is_constant_true(test: ast.expr) -> bool:
    if isinstance(test, ast.Constant):
        return bool(test.value)
    return False


@register
class UnboundedLoopChecker(ContractChecker):
    rule = RuleInfo(
        code="MED004",
        name="unbounded-loop",
        family=CONTRACT_FAMILY,
        default_severity=Severity.ERROR,
        summary="while-loop on a constant-true test with no break/return: "
        "terminates only by gas exhaustion",
    )

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        for name, func in _walk_functions(ctx):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.While)
                    and _is_constant_true(node.test)
                    and not _has_escape(node.body)
                ):
                    yield Finding(
                        code=self.rule.code,
                        message="loop has no gas-reachable bound: the test "
                        "is constant-true and the body never breaks or "
                        "returns, so every call burns its entire gas limit",
                        severity=self.rule.default_severity,
                        file=ctx.file,
                        line=ctx.map_line(node.lineno),
                        col=node.col_offset,
                        symbol=name,
                    )


@register
class StorageAliasChecker(ContractChecker):
    rule = RuleInfo(
        code="MED005",
        name="storage-alias-write",
        family=CONTRACT_FAMILY,
        default_severity=Severity.WARNING,
        summary="same mutable local written to storage twice without "
        "rebinding (aliasing hazard)",
    )

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        for name, func in _walk_functions(ctx):
            written: Dict[str, int] = {}  # value name -> first write line
            for node in self._statements_in_order(func):
                # A rebinding (``AugAssign`` included: MedScript computes
                # ``a <op> b`` afresh) clears the alias.
                for rebound_name in assigned_names(node):
                    written.pop(rebound_name, None)
                for call in self._storage_set_calls(node):
                    if len(call.args) < 2:
                        continue
                    value = call.args[1]
                    if not isinstance(value, ast.Name):
                        continue
                    if value.id in written:
                        yield Finding(
                            code=self.rule.code,
                            message=f"{value.id!r} was already written to "
                            f"storage on line "
                            f"{ctx.map_line(written[value.id])} and has not "
                            "been rebound: two storage slots would alias "
                            "the same mutable value on runtimes without "
                            "copy-on-write bridges",
                            severity=self.rule.default_severity,
                            file=ctx.file,
                            line=ctx.map_line(call.lineno),
                            col=call.col_offset,
                            symbol=name,
                        )
                    else:
                        written[value.id] = call.lineno

    @staticmethod
    def _statements_in_order(func: ast.FunctionDef) -> List[ast.stmt]:
        out: List[ast.stmt] = []

        def visit(body: List[ast.stmt]) -> None:
            for stmt in body:
                out.append(stmt)
                for attr in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, attr, None)
                    if inner:
                        visit(inner)

        visit(func.body)
        return out

    @staticmethod
    def _storage_set_calls(stmt: ast.stmt) -> List[ast.Call]:
        calls = []
        # Only look at this statement's own expression, not nested blocks
        # (nested statements are visited separately, in order).
        nodes: List[ast.AST] = []
        if isinstance(stmt, ast.Expr):
            nodes = [stmt.value]
        elif isinstance(stmt, ast.Assign):
            nodes = [stmt.value]
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            nodes = [stmt.value]
        for root in nodes:
            for node in ast.walk(root):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "storage_set"
                ):
                    calls.append(node)
        return calls


@register
class UnknownHostFunctionChecker(ContractChecker):
    rule = RuleInfo(
        code="MED006",
        name="unknown-host-function",
        family=CONTRACT_FAMILY,
        default_severity=Severity.ERROR,
        summary="call to a function not defined by the contract, the VM "
        "builtins, or the HostBridge",
    )

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        for name, func in _walk_functions(ctx):
            known = _known_names(ctx, func)
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id not in known
                    and node.func.id not in FORBIDDEN_NAMES  # MED001's job
                ):
                    yield Finding(
                        code=self.rule.code,
                        message=f"call to {node.func.id!r}: no such contract "
                        "function, VM builtin, or HostBridge host function",
                        severity=self.rule.default_severity,
                        file=ctx.file,
                        line=ctx.map_line(node.lineno),
                        col=node.col_offset,
                        symbol=name,
                    )


@register
class UnreachableCodeChecker(ContractChecker):
    rule = RuleInfo(
        code="MED007",
        name="unreachable-code",
        family=CONTRACT_FAMILY,
        default_severity=Severity.WARNING,
        summary="statements after return/break/continue never execute",
    )

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        for name, func in _walk_functions(ctx):
            yield from self._check_block(ctx, name, func.body)

    def _check_block(
        self, ctx: ContractContext, symbol: str, body: List[ast.stmt]
    ) -> Iterable[Finding]:
        terminated_at: Optional[ast.stmt] = None
        for stmt in body:
            if terminated_at is not None:
                yield Finding(
                    code=self.rule.code,
                    message="unreachable: execution cannot continue past "
                    f"the {type(terminated_at).__name__.lower()} on line "
                    f"{ctx.map_line(terminated_at.lineno)}",
                    severity=self.rule.default_severity,
                    file=ctx.file,
                    line=ctx.map_line(stmt.lineno),
                    col=stmt.col_offset,
                    symbol=symbol,
                )
                break  # one finding per dead block is enough
            if isinstance(stmt, _TERMINATORS):
                terminated_at = stmt
            for attr in ("body", "orelse"):
                inner = getattr(stmt, attr, None)
                if inner:
                    yield from self._check_block(ctx, symbol, inner)


@register
class GasCeilingChecker(ContractChecker):
    rule = RuleInfo(
        code="MED008",
        name="gas-ceiling",
        family=CONTRACT_FAMILY,
        default_severity=Severity.ERROR,
        summary="static worst-case gas estimate exceeds the configured "
        "ceiling (only runs when a ceiling is set)",
    )

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        if ctx.max_gas is None:
            return
        estimator = GasEstimator(ctx.module.functions)
        for name, cost in estimator.estimate_all().items():
            if cost > ctx.max_gas:
                func = ctx.module.functions[name]
                yield Finding(
                    code=self.rule.code,
                    message=f"worst-case gas {format_gas(cost)} exceeds the "
                    f"ceiling {format_gas(ctx.max_gas)}"
                    + (
                        " (unbounded: recursion or VM-limit loops)"
                        if math.isinf(cost)
                        else ""
                    ),
                    severity=self.rule.default_severity,
                    file=ctx.file,
                    line=ctx.map_line(func.lineno),
                    col=func.col_offset,
                    symbol=name,
                )


register_rule_info(
    RuleInfo(
        code="MED002",
        name="float-literal",
        family=CONTRACT_FAMILY,
        default_severity=Severity.ERROR,
        summary="float/complex literal (floats are nondeterministic across "
        "nodes; use milli-unit integers)",
    )
)
register_rule_info(
    RuleInfo(
        code="MED003",
        name="true-division",
        family=CONTRACT_FAMILY,
        default_severity=Severity.ERROR,
        summary="true division `/` yields floats; use `//`",
    )
)


#: The kind of violation each of MED002/MED003 reports; every other is MED009.
_GATE_CODE = {"float": "MED002", "division": "MED003"}


@register
class GrammarChecker(ContractChecker):
    """The VM's grammar, reported: every violation, not just the first."""

    rule = RuleInfo(
        code="MED009",
        name="disallowed-syntax",
        family=CONTRACT_FAMILY,
        default_severity=Severity.ERROR,
        summary="syntax outside the MedScript subset (imports, attribute "
        "access, comprehensions, try/except, ...)",
    )

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        for violation in ctx.module.violations:
            node = violation.node
            yield Finding(
                code=_GATE_CODE.get(violation.kind, self.rule.code),
                message=violation.text,
                severity=Severity.ERROR,
                file=ctx.file,
                line=ctx.map_line(getattr(node, "lineno", 1)),
                col=getattr(node, "col_offset", 0),
                symbol=violation.function,
            )


@register
class UndefinedNameChecker(ContractChecker):
    rule = RuleInfo(
        code="MED010",
        name="undefined-name",
        family=CONTRACT_FAMILY,
        default_severity=Severity.ERROR,
        summary="read of a name that is never bound in the function, "
        "constants, builtins, or host functions",
    )

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        for name, func in _walk_functions(ctx):
            # Outside call position a name has a value only if the
            # activation holds it: a parameter, a local or a constant.
            values = bound_names(func) | set(ctx.module.constants)
            call_targets = {
                node.func
                for node in ast.walk(func)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            }
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id not in values
                    and node.id not in FORBIDDEN_NAMES  # MED001's job
                    and node not in call_targets  # MED006's job
                ):
                    yield Finding(
                        code=self.rule.code,
                        message=(
                            f"function {node.id!r} read as a value; the VM "
                            "only calls functions"
                            if node.id in _known_names(ctx, func)
                            else f"name {node.id!r} is never bound; the VM "
                            "would raise at runtime on every node"
                        ),
                        severity=self.rule.default_severity,
                        file=ctx.file,
                        line=ctx.map_line(node.lineno),
                        col=node.col_offset,
                        symbol=name,
                    )
