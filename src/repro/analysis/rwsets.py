"""Static storage read/write-set derivation for MedScript contracts.

The optimistic parallel block scheduler (``repro.chain.scheduler``) needs to
know, *before executing anything*, which storage slots a contract call may
touch.  This module derives that from the deployed source with the same AST
machinery the MED-rule checkers use (the VM's one parse,
:func:`repro.contracts.vm.parse_contract` — never a second parser), producing per-method
:class:`MethodRWSet` summaries whose slots are :class:`SlotTemplate`\\ s:
sequences of literal fragments and method-parameter placeholders that the
scheduler specializes with a transaction's actual arguments.

Soundness stance: for a method that is *not* flagged ``unknown``, the
resolved templates are an **over-approximation** of every storage slot any
execution of that method can touch — branches contribute the union of their
paths, and anything the deriver cannot prove (computed keys or callees,
rebound parameters, aliased helpers, keyword storage arguments, recursion
past the depth cap, numeric ``+`` on keys) poisons the whole method to
``unknown``, which the scheduler serializes.  The scheduler additionally
validates observed reads at commit time and re-executes on any surprise, so
an unsound template could cost a full-block serial retry, never a wrong
state root; the over-approximation guarantee is what makes that retry a
bug signal rather than a steady-state cost.

Resolution rules (anything outside them poisons the method to ``unknown``):

- string/int/bool constants, and module-level literal constants;
- method parameters that are never rebound (substituted at resolve time;
  literal defaults apply when the caller omits the argument);
- locals assigned exactly once, at the top level of the method body, from a
  resolvable expression;
- ``+`` concatenation, f-strings, and ``str(...)`` over resolvable parts;
- calls to other contract functions are followed with arguments mapped into
  the callee's parameters (bounded depth, cycles are unknown).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.engine import PURE_BUILTIN_NAMES
from repro.contracts.runtime import HOST_FUNCTION_NAMES
from repro.contracts.vm import assigned_names, parse_contract

#: Host functions that read a storage slot named by their first argument.
READING_HOST_CALLS = frozenset({"storage_get", "storage_has"})
#: Host functions that write the slot named by their first argument.
#: ``storage_delete`` also *reads* (tombstoning checks presence first), so
#: the scheduler treats deletes as read+write.
WRITING_HOST_CALLS = frozenset({"storage_set", "storage_delete"})
#: Host function performing a prefix scan over storage.
PREFIX_HOST_CALL = "storage_keys"

#: Follow contract-internal calls at most this deep before giving up.
#: Overridable per derivation via ``read_write_sets(..., max_depth=)``;
#: chains past the cap poison the method to ``unknown`` (never mis-resolve).
MAX_CALL_DEPTH = 8

_STORAGE_HOST_CALLS = READING_HOST_CALLS | WRITING_HOST_CALLS | {PREFIX_HOST_CALL}
#: Calls that provably cannot touch storage: pure builtins plus the
#: non-storage host functions.  Any other callee (helper aliases, computed
#: callables, unknown names) poisons the method to ``unknown``.
_SAFE_CALLS = (
    frozenset(PURE_BUILTIN_NAMES)
    | frozenset(HOST_FUNCTION_NAMES) - _STORAGE_HOST_CALLS
)

_LIT = "lit"
_PARAM = "param"


@dataclass(frozen=True)
class SlotTemplate:
    """A storage-slot name as literal fragments and parameter placeholders.

    ``parts`` is a tuple of ``("lit", text)`` and ``("param", name)`` pairs;
    joining the fragments (with each parameter replaced by ``str(value)``,
    mirroring the runtime's ``str(key)`` coercion) yields the slot name.
    """

    parts: Tuple[Tuple[str, str], ...]

    @property
    def is_literal(self) -> bool:
        return all(kind == _LIT for kind, _ in self.parts)

    @property
    def params(self) -> FrozenSet[str]:
        return frozenset(text for kind, text in self.parts if kind == _PARAM)

    def resolve(self, args: Mapping[str, Any]) -> Optional[str]:
        """Concrete slot name under ``args``, or ``None`` if a placeholder
        has no binding (or a non-scalar one)."""
        out: List[str] = []
        for kind, text in self.parts:
            if kind == _LIT:
                out.append(text)
                continue
            if text not in args:
                return None
            value = args[text]
            if not isinstance(value, (str, int, bool)):
                return None  # containers make unstable slot names
            out.append(str(value))
        return "".join(out)

    def render(self) -> str:
        """Human-readable form, e.g. ``"balance:{user}"``."""
        return "".join(
            text if kind == _LIT else "{" + text + "}" for kind, text in self.parts
        )


@dataclass(frozen=True)
class MethodRWSet:
    """Per-method storage footprint summary."""

    method: str
    reads: FrozenSet[SlotTemplate] = frozenset()
    writes: FrozenSet[SlotTemplate] = frozenset()
    read_prefixes: FrozenSet[SlotTemplate] = frozenset()
    unknown: bool = False
    #: literal parameter defaults, used by :meth:`resolve` for omitted args
    defaults: Mapping[str, Any] = field(default_factory=dict)

    def resolve(
        self, args: Mapping[str, Any]
    ) -> Optional["ResolvedAccess"]:
        """Specialize every template with a call's actual arguments.

        Returns ``None`` when the method is unknown or any template fails to
        resolve — the caller must fall back to serial execution.
        """
        if self.unknown:
            return None
        bound = dict(self.defaults)
        bound.update(args)
        reads: Set[str] = set()
        writes: Set[str] = set()
        prefixes: Set[str] = set()
        for template, sink in (
            *((t, reads) for t in self.reads),
            *((t, writes) for t in self.writes),
            *((t, prefixes) for t in self.read_prefixes),
        ):
            slot = template.resolve(bound)
            if slot is None:
                return None
            sink.add(slot)
        return ResolvedAccess(
            reads=frozenset(reads),
            writes=frozenset(writes),
            read_prefixes=frozenset(prefixes),
        )


@dataclass(frozen=True)
class ResolvedAccess:
    """Concrete slot names touched by one specialized method call."""

    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    read_prefixes: FrozenSet[str] = frozenset()


class _Unresolvable(Exception):
    """Internal signal: a storage key cannot be expressed as a template."""


def _literal_value(node: ast.expr) -> Optional[Any]:
    try:
        value = ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None
    return value if isinstance(value, (str, int, bool)) else None


class _Deriver:
    """One pass over a parsed contract module."""

    def __init__(
        self,
        functions: Dict[str, ast.FunctionDef],
        constants: Dict[str, ast.expr],
        max_depth: int = MAX_CALL_DEPTH,
    ):
        self.functions = functions
        self.max_depth = max_depth
        self.constants = {
            name: value
            for name, node in constants.items()
            if (value := _literal_value(node)) is not None
        }

    # -- expression resolution -------------------------------------------
    def _resolve(self, node: ast.expr, env: Mapping[str, Any]) -> "_Tmpl":
        """Resolve an expression to a template; raise :class:`_Unresolvable`.

        Tracks whether the expression is *definitely a string* so that ``+``
        is only folded into concatenation when at least one side is: then
        either the runtime value is a string too (concat matches the
        template) or the runtime raises before touching storage.  Without
        the guard, ``storage_get(2 + 3)`` would template as ``"23"`` while
        the runtime computes slot ``"5"`` — an under-approximation the
        scheduler must never see.
        """
        if isinstance(node, ast.Constant) and isinstance(
            node.value, (str, int, bool)
        ):
            return _Tmpl(
                ((_LIT, str(node.value)),), isinstance(node.value, str)
            )
        if isinstance(node, ast.Name):
            if node.id in env:
                value = env[node.id]
                if isinstance(value, _Param):
                    return _Tmpl(((_PARAM, value.name),), False)
                if isinstance(value, _Tmpl):  # pre-resolved local
                    return value
                return _Tmpl(((_LIT, str(value)),), isinstance(value, str))
            raise _Unresolvable(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self._resolve(node.left, env)
            right = self._resolve(node.right, env)
            if not (left.defstr or right.defstr):
                raise _Unresolvable("numeric-addition key")
            return _Tmpl(left.parts + right.parts, True)
        if isinstance(node, ast.JoinedStr):
            parts: Tuple[Tuple[str, str], ...] = ()
            for value in node.values:
                if isinstance(value, ast.Constant):
                    parts += ((_LIT, str(value.value)),)
                elif isinstance(value, ast.FormattedValue):
                    if value.format_spec is not None or value.conversion not in (
                        -1,
                        115,  # !s is a plain str() coercion
                    ):
                        raise _Unresolvable("format spec")
                    parts += self._resolve(value.value, env).parts
                else:  # pragma: no cover - ast guarantees the two above
                    raise _Unresolvable(type(value).__name__)
            return _Tmpl(parts, True)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "str"
            and len(node.args) == 1
            and not node.keywords
        ):
            return _Tmpl(self._resolve(node.args[0], env).parts, True)
        raise _Unresolvable(type(node).__name__)

    # -- function analysis ------------------------------------------------
    def analyze(
        self,
        func: ast.FunctionDef,
        env: Mapping[str, Any],
        stack: Tuple[str, ...],
        acc: "_Acc",
    ) -> None:
        if func.name in stack or len(stack) >= self.max_depth:
            acc.unknown = True
            return
        env = dict(env)
        assign_counts: Dict[str, int] = {}
        for node in ast.walk(func):
            for name in assigned_names(node):
                assign_counts[name] = assign_counts.get(name, 0) + 1
        for name in assign_counts:  # rebound somewhere: not a known value
            env.pop(name, None)
        # Single top-level assignments from resolvable expressions extend
        # the environment (straight-line constant propagation).
        for stmt in func.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and assign_counts.get(stmt.targets[0].id) == 1
            ):
                try:
                    env[stmt.targets[0].id] = self._resolve(stmt.value, env)
                except _Unresolvable:
                    pass
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Name):
                acc.unknown = True  # computed callee: cannot see inside it
                continue
            name = node.func.id
            if name in READING_HOST_CALLS | WRITING_HOST_CALLS:
                if node.keywords or not node.args:
                    acc.unknown = True
                    continue
                try:
                    parts = self._resolve(node.args[0], env).parts
                except _Unresolvable:
                    acc.unknown = True
                    continue
                template = SlotTemplate(parts=parts)
                if name in WRITING_HOST_CALLS:
                    acc.writes.add(template)
                    if name == "storage_delete":
                        acc.reads.add(template)
                else:
                    acc.reads.add(template)
            elif name == PREFIX_HOST_CALL:
                if node.keywords:
                    acc.unknown = True
                    continue
                if not node.args:
                    acc.read_prefixes.add(SlotTemplate(parts=((_LIT, ""),)))
                    continue
                try:
                    parts = self._resolve(node.args[0], env).parts
                except _Unresolvable:
                    acc.unknown = True
                    continue
                acc.read_prefixes.add(SlotTemplate(parts=parts))
            elif name in self.functions:
                self._follow_call(node, env, stack + (func.name,), acc)
            elif name not in _SAFE_CALLS:
                # A name we cannot prove storage-free (an aliased helper, a
                # shadowed builtin): assume the worst.
                acc.unknown = True

    def _follow_call(
        self,
        node: ast.Call,
        env: Mapping[str, Any],
        stack: Tuple[str, ...],
        acc: "_Acc",
    ) -> None:
        callee = self.functions[node.func.id]
        params = [arg.arg for arg in callee.args.args]
        callee_env: Dict[str, Any] = dict(self.constants)
        defaults = callee.args.defaults
        for param, default in zip(params[len(params) - len(defaults):], defaults):
            value = _literal_value(default)
            if value is not None:
                callee_env[param] = _Tmpl(
                    ((_LIT, str(value)),), isinstance(value, str)
                )
        if len(node.args) > len(params):
            acc.unknown = True
            return
        for param, arg in zip(params, node.args):
            try:
                callee_env[param] = self._resolve(arg, env)
            except _Unresolvable:
                callee_env.pop(param, None)  # poisoned: keys using it fail
        for keyword in node.keywords:
            if keyword.arg is None or keyword.arg not in params:
                acc.unknown = True
                return
            try:
                callee_env[keyword.arg] = self._resolve(keyword.value, env)
            except _Unresolvable:
                callee_env.pop(keyword.arg, None)
        self.analyze(callee, callee_env, stack, acc)


@dataclass
class _Acc:
    reads: Set[SlotTemplate] = field(default_factory=set)
    writes: Set[SlotTemplate] = field(default_factory=set)
    read_prefixes: Set[SlotTemplate] = field(default_factory=set)
    unknown: bool = False


class _Param:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


@dataclass(frozen=True)
class _Tmpl:
    """A resolved expression: template parts plus a definitely-str flag."""

    parts: Tuple[Tuple[str, str], ...]
    defstr: bool


def read_write_sets(
    source: str, *, max_depth: int = MAX_CALL_DEPTH
) -> Dict[str, MethodRWSet]:
    """Derive per-method storage read/write sets for a contract module.

    Returns one :class:`MethodRWSet` per public method (underscore-prefixed
    functions are reachable only through public ones and are folded into
    their callers).  A module that does not parse yields an empty dict —
    such source cannot deploy anyway, and callers treat absent methods as
    unknown.  ``max_depth`` bounds how deep contract-internal call chains
    are followed; a chain past the cap marks the method ``unknown`` (the
    scheduler then serializes it) rather than ever mis-resolving.
    """
    try:
        module = parse_contract(source)
    except SyntaxError:
        return {}
    deriver = _Deriver(module.functions, module.constants, max_depth=max_depth)
    sets: Dict[str, MethodRWSet] = {}
    for name, func in sorted(module.functions.items()):
        if name.startswith("_"):
            continue
        params = [arg.arg for arg in func.args.args]
        env: Dict[str, Any] = dict(deriver.constants)
        for param in params:
            env[param] = _Param(param)
        acc = _Acc()
        deriver.analyze(func, env, (), acc)
        defaults: Dict[str, Any] = {}
        for param, default in zip(
            params[len(params) - len(func.args.defaults):], func.args.defaults
        ):
            value = _literal_value(default)
            if value is not None:
                defaults[param] = value
        sets[name] = MethodRWSet(
            method=name,
            reads=frozenset(acc.reads),
            writes=frozenset(acc.writes),
            read_prefixes=frozenset(acc.read_prefixes),
            unknown=acc.unknown,
            defaults=defaults,
        )
    return sets
