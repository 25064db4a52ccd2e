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
- MED007 — unreachable statements after ``return`` / ``break`` / ``continue``,
  and a function whose name a host function or builtin takes first
- MED008 — static worst-case gas estimate exceeds the configured ceiling
- MED009 — syntax the VM forbids (imports, attributes, comprehensions,
  non-literal constants, a module with no functions, ...)
- MED010 — read of a name that is never bound, or of a function outside
  call position

MED002, MED003 and MED009 are not rules of their own: they report
:func:`repro.contracts.vm.parse_contract`'s violations, so the gate admits
exactly what ``compile_contract`` compiles.  MED004-MED008 and MED010 are
filters and folds over the contract IR (:mod:`repro.analysis.contract_ir`),
which resolves every call and charges every node as the VM does.
"""

from __future__ import annotations

import ast
import math
from typing import Dict, Iterable

from repro.analysis.contract_ir import format_gas
from repro.analysis.findings import Finding, RuleInfo, Severity
from repro.analysis.registry import (
    CONTRACT_FAMILY,
    ContractChecker,
    ContractContext,
    register,
    register_rule_info,
)
from repro.contracts.vm import FUNCTION, HOST, UNDEFINED, assigned_names, bound_names

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


def _finding(
    rule: RuleInfo, ctx: ContractContext, node: ast.AST, symbol: str, message: str
) -> Finding:
    return Finding(
        code=rule.code,
        message=message,
        severity=rule.default_severity,
        file=ctx.file,
        line=ctx.map_line(node.lineno),
        col=node.col_offset,
        symbol=symbol,
    )


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
        for name, func in sorted(ctx.module.functions.items()):
            local = bound_names(func)
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in FORBIDDEN_NAMES
                    and node.id not in local
                ):
                    yield _finding(
                        self.rule,
                        ctx,
                        node,
                        name,
                        f"use of forbidden name {node.id!r} "
                        "(nondeterministic or outside the VM sandbox)",
                    )


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
        for name, function in sorted(ctx.ir.functions.items()):
            for node in function.nodes:
                if node.loop and node.loop.forever and not node.loop.escapes:
                    yield _finding(
                        self.rule,
                        ctx,
                        node.ast,
                        name,
                        "loop has no gas-reachable bound: the test is "
                        "constant-true and the body never breaks or returns, "
                        "so every call burns its entire gas limit",
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
        for name, function in sorted(ctx.ir.functions.items()):
            written: Dict[str, int] = {}  # value name -> first write line
            for stmt in function.statements():
                # A rebinding (``AugAssign`` included: MedScript computes
                # ``a <op> b`` afresh) clears the alias.
                for rebound_name in assigned_names(stmt.ast):
                    written.pop(rebound_name, None)
                for node in stmt.walk(nested=False):
                    call = node.ast
                    if not (
                        isinstance(call, ast.Call)
                        and node.ref is not None
                        and (node.ref.name, node.ref.kind) == ("storage_set", HOST)
                        and len(call.args) >= 2
                        and isinstance(call.args[1], ast.Name)
                    ):
                        continue
                    value = call.args[1].id
                    if value not in written:
                        written[value] = call.lineno
                        continue
                    yield _finding(
                        self.rule,
                        ctx,
                        call,
                        name,
                        f"{value!r} was already written to storage on line "
                        f"{ctx.map_line(written[value])} and has not been "
                        "rebound: two storage slots would alias the same "
                        "mutable value on runtimes without copy-on-write bridges",
                    )


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
        for name, function in sorted(ctx.ir.functions.items()):
            for node in function.nodes:
                ref = node.ref
                if (
                    isinstance(node.ast, ast.Call)
                    and ref is not None
                    and not ref.local
                    and ref.kind == UNDEFINED
                    and ref.name not in FORBIDDEN_NAMES  # MED001's job
                ):
                    yield _finding(
                        self.rule,
                        ctx,
                        node.ast,
                        name,
                        f"call to {ref.name!r}: no such contract function, "
                        "VM builtin, or HostBridge host function",
                    )


@register
class UnreachableCodeChecker(ContractChecker):
    rule = RuleInfo(
        code="MED007",
        name="unreachable-code",
        family=CONTRACT_FAMILY,
        default_severity=Severity.WARNING,
        summary="statements after return/break/continue, or a function a "
        "host function or builtin shadows, never execute",
    )

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        for name, function in sorted(ctx.ir.functions.items()):
            if function.ref.kind != FUNCTION:
                yield _finding(
                    self.rule,
                    ctx,
                    function.ast,
                    name,
                    f"unreachable from contract code: a call to {name!r} "
                    f"reaches the {function.ref.kind} function, never this one",
                )
            nested = (block for stmt in function.statements() for block in stmt.blocks)
            for block in (function.body, *nested):
                for stmt, after in zip(block, block[1:]):
                    if isinstance(stmt.ast, _TERMINATORS):
                        yield _finding(
                            self.rule,
                            ctx,
                            after.ast,
                            name,
                            "unreachable: execution cannot continue past the "
                            f"{type(stmt.ast).__name__.lower()} on line "
                            f"{ctx.map_line(stmt.ast.lineno)}",
                        )
                        break  # one finding per dead block is enough


@register
class GasCeilingChecker(ContractChecker):
    rule = RuleInfo(
        code="MED008",
        name="gas-ceiling",
        family=CONTRACT_FAMILY,
        default_severity=Severity.ERROR,
        summary="static worst-case gas estimate exceeds the configured "
        "ceiling (only runs when a ceiling is set; the estimate names the "
        "sizes it assumes for sha256_hex and storage_keys)",
    )

    def check(self, ctx: ContractContext) -> Iterable[Finding]:
        if ctx.max_gas is None:
            return
        for name, cost in ctx.ir.bounds().items():
            if cost > ctx.max_gas:
                # A finite bound holds only at the sizes the IR assumes for some hosts.
                if math.isinf(cost):
                    condition = " (unbounded: recursion or VM-limit loops)"
                else:
                    assumed = ctx.ir.assumptions(name)
                    condition = f" (if {'; '.join(assumed)})" if assumed else ""
                yield _finding(
                    self.rule,
                    ctx,
                    ctx.ir.functions[name].ast,
                    name,
                    f"worst-case gas {format_gas(cost)} exceeds the ceiling "
                    f"{format_gas(ctx.max_gas)}{condition}",
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
        for name, function in sorted(ctx.ir.functions.items()):
            for node in function.nodes:
                # Outside call position a name has a value only if the
                # activation holds it: a parameter, a local or a constant.
                ref = node.ref
                if (
                    isinstance(node.ast, ast.Name)
                    and ref is not None
                    and not ref.local
                    and ref.name not in FORBIDDEN_NAMES  # MED001's job
                ):
                    yield _finding(
                        self.rule,
                        ctx,
                        node.ast,
                        name,
                        f"function {ref.name!r} read as a value; the VM only calls functions"
                        if ref.kind != UNDEFINED
                        else f"name {ref.name!r} is never bound; the VM would "
                        "raise at runtime on every node",
                    )
