"""Static storage read/write-set derivation for MedScript contracts.

The optimistic parallel block scheduler (``repro.chain.scheduler``) needs to
know, *before executing anything*, which storage slots a contract call may
touch.  :func:`read_write_sets` reads that off the contract IR
(:mod:`repro.analysis.contract_ir`, built on the VM's one parse), producing
per-method :class:`MethodRWSet` summaries whose slots are
:class:`SlotTemplate`\\ s: sequences of literal fragments and
method-parameter placeholders that the scheduler specializes with a
transaction's actual arguments.

Soundness stance: for a method that is *not* flagged ``unknown``, the
resolved templates are an **over-approximation** of every storage slot any
execution of that method can touch — branches contribute the union of their
paths, and anything the derivation cannot prove (computed keys or callees,
rebound parameters, names no table defines, keyword storage arguments,
recursion past the depth cap, numeric ``+`` on keys) poisons the whole
method to ``unknown``, which the scheduler serializes.  The scheduler
additionally validates observed reads at commit time and re-executes on any
surprise, so an unsound template could cost a full-block serial retry, never
a wrong state root; the over-approximation guarantee is what makes that
retry a bug signal rather than a steady-state cost.

A call goes where the VM sends it: a storage host function is a slot access
even where a contract function shares its name, and a call to a contract
function is followed with its arguments bound as the VM binds them (a
positional argument wins over a keyword of the same name).  A key is a
:func:`repro.analysis.contract_ir.symbol` of the call's first argument:
constants, parameters never rebound (literal defaults apply when the caller
omits the argument), locals assigned once at the top level, and ``+``,
f-strings and ``str(...)`` over those.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.contract_ir import LIT, PARAM, Function, Symbol, build, literal_symbol, symbol
from repro.contracts.vm import HOST, UNDEFINED, parse_contract

#: Follow contract-internal calls at most this deep before giving up.
#: Overridable per derivation via ``read_write_sets(..., max_depth=)``;
#: chains past the cap poison the method to ``unknown`` (never mis-resolve).
MAX_CALL_DEPTH = 8

#: What each storage host function does to the slot (or prefix) its first
#: argument names.  ``storage_delete`` also *reads* (tombstoning checks
#: presence first), so the scheduler treats deletes as read+write.
_ACCESS = {
    "storage_get": ("reads",),
    "storage_has": ("reads",),
    "storage_set": ("writes",),
    "storage_delete": ("reads", "writes"),
    "storage_keys": ("read_prefixes",),
}


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
        return all(kind == LIT for kind, _ in self.parts)

    @property
    def params(self) -> FrozenSet[str]:
        return frozenset(text for kind, text in self.parts if kind == PARAM)

    def resolve(self, args: Mapping[str, Any]) -> Optional[str]:
        """Concrete slot name under ``args``, or ``None`` if a placeholder
        has no binding (or a non-scalar one)."""
        out: List[str] = []
        for kind, text in self.parts:
            if kind == LIT:
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
            text if kind == LIT else "{" + text + "}" for kind, text in self.parts
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
        ir = build(parse_contract(source))
    except SyntaxError:
        return {}

    def visit(function: Function, arguments: Dict[str, Symbol], stack: Tuple[str, ...]) -> bool:
        """Add the slots ``function`` touches to ``found``; ``False`` if one may be missed."""
        if function.name in stack or len(stack) >= max_depth:
            return False
        env = ir.scope(function, arguments)
        known = True
        for node in function.nodes:
            call, ref = node.ast, node.ref
            if not isinstance(call, ast.Call):
                continue
            if ref is None or ref.kind == UNDEFINED:
                # A computed callee, or a name no table defines: a host
                # function this one does not list may touch storage.
                known = False
            elif node.function and node.args is not None:  # else it fails before its body
                target = ir.functions[node.function]
                bound = {param: literal_symbol(value) for param, value in target.defaults.items()}
                bound.update((param, symbol(arg, env)) for param, arg in node.args.items())
                bound = {param: value for param, value in bound.items() if value is not None}
                known &= visit(target, bound, stack + (function.name,))
            elif ref.kind == HOST and ref.name in _ACCESS:
                key = symbol(call.args[0], env) if call.args else (((LIT, ""),), True)
                if call.keywords or key is None or not (call.args or ref.name == "storage_keys"):
                    known = False
                    continue
                for sink in _ACCESS[ref.name]:
                    found[sink].add(SlotTemplate(parts=key[0]))
        return known

    sets: Dict[str, MethodRWSet] = {}
    for name, function in sorted(ir.functions.items()):
        if name.startswith("_"):
            continue
        found = {sink: set() for sink in ("reads", "writes", "read_prefixes")}
        placeholders = {param: (((PARAM, param),), False) for param in function.params}
        known = visit(function, placeholders, ())
        sets[name] = MethodRWSet(
            method=name,
            **{sink: frozenset(templates) for sink, templates in found.items()},
            unknown=not known,
            defaults={
                param: value
                for param, value in function.defaults.items()
                if isinstance(value, (str, int, bool))
            },
        )
    return sets
