"""One model of a MedScript contract for every static pass that reads it.

:func:`build` turns :func:`repro.contracts.vm.parse_contract`'s output into a
:class:`ContractIR`: per function, its statements in source order as
:class:`Node` s. A node holds the gas the VM charges for it
(``contracts/gas.py``'s constants, where ``vm._Lowering`` charges them) and
the nodes it runs once; its nested bodies (the arms of an ``if`` or a
conditional expression, or a loop's body and ``else`` with the loop's static
bound, what runs every iteration and whether a ``break`` or ``return``
leaves it); and for a bare name, read or called, what it reaches in the
VM's order (:func:`repro.contracts.vm.callee`).

The IR is the AST's own bodies, not a basic-block graph: MedScript has no
goto, ``try`` or ``raise``. Its readers are folds and filters: MED008's bound
(:meth:`ContractIR.bound`), MED004-MED007 and MED010. Syntax the VM refuses
becomes a node that charges what reaching it charges, with everything
beneath it as parts, so the rules still see the names and calls in it.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.contracts import gas as G
from repro.contracts.runtime import HOST_FUNCTION_NAMES
from repro.contracts.vm import FUNCTION, HOST, ContractModule, bound_names, callee

Gas = Union[int, float]  # int, or math.inf for "unbounded"

#: Bytes assumed hashed per ``sha256_hex`` call (worst-case payloads are
#: unbounded in principle; this matches the largest payloads the platform
#: contracts hash in practice).
ASSUMED_HASH_BYTES = 4096
#: Keys assumed returned per ``storage_keys`` call.
ASSUMED_STORAGE_KEYS = 1024
#: What the bound assumes of each host it prices at an assumed size. Nothing
#: caps them at run time: a registry past 1024 entries must still list them.
ASSUMPTIONS = {
    "sha256_hex": f"sha256_hex hashes at most {ASSUMED_HASH_BYTES:,} bytes a call",
    "storage_keys": f"storage_keys returns at most {ASSUMED_STORAGE_KEYS:,} keys a call",
}

#: What a host function charges on top of the ``GAS_CALL`` of every call.
HOST_CHARGES: Dict[str, int] = {
    "storage_get": G.GAS_STORAGE_READ,
    "storage_set": G.GAS_STORAGE_WRITE,
    "storage_has": G.GAS_STORAGE_READ,
    "storage_delete": G.GAS_STORAGE_WRITE,
    "storage_keys": G.GAS_STORAGE_READ * ASSUMED_STORAGE_KEYS,
    "emit": G.GAS_EMIT_EVENT,
    "sha256_hex": G.GAS_HASH_PER_BYTE * ASSUMED_HASH_BYTES,
}

_STMT = G.GAS_STATEMENT
_EXPR = G.GAS_EXPRESSION
_MAX_LOOP = G.MAX_ITERATIONS_PER_LOOP


def format_gas(value: Gas) -> str:
    return "unbounded" if math.isinf(value) else f"{int(value):,}"


@dataclass(frozen=True)
class Ref:
    """A bare name, read or called, and what it reaches."""

    name: str
    local: bool  # the activation may hold it: then it reads (or calls) that
    kind: str  # what it reaches when no local holds it: ``vm.callee``'s kind


@dataclass(eq=False)
class Loop:
    bound: int  # the most iterations the VM runs
    each: Tuple["Node", ...]  # run every iteration, before the body
    forever: bool  # a ``while`` on a constant-true test
    escapes: bool  # a ``break`` or ``return`` in the body leaves it


@dataclass(eq=False)
class Node:
    """One statement, expression or assignment target, as the VM runs it."""

    ast: ast.AST
    charge: int = 0  # what the node itself charges each time it runs
    parts: Tuple["Node", ...] = ()  # each run once per run of the node
    #: nested bodies: a loop's body and ``else``; else arms, one of which runs
    blocks: Tuple[Tuple["Node", ...], ...] = ()
    loop: Optional[Loop] = None
    ref: Optional[Ref] = None

    @property
    def function(self) -> Optional[str]:
        """The contract function this call reaches when no local holds its name."""
        if self.ref is not None and self.ref.kind == FUNCTION and isinstance(self.ast, ast.Call):
            return self.ref.name
        return None

    def walk(self, nested: bool = True) -> Iterator["Node"]:
        """This node and every node beneath it, in source order.

        ``nested=False`` leaves out nested statements: what remains is the
        statement's own expressions.
        """
        yield self
        each = self.loop.each if self.loop else ()
        children = self.parts + each + tuple(node for block in self.blocks for node in block)
        for child in dict.fromkeys(children):  # a node may run twice, but is one site
            if nested or not isinstance(child.ast, ast.stmt):
                yield from child.walk(nested)


@dataclass(eq=False)
class Function:
    ast: ast.FunctionDef
    ref: Ref  # what a call to its name reaches: not this function if a host or builtin has the name
    head: Tuple[Node, ...]  # defaults, decorators, annotations: read, never charged
    body: Tuple[Node, ...]

    @property
    def name(self) -> str:
        return self.ast.name

    @cached_property
    def nodes(self) -> Tuple[Node, ...]:
        """Every node, in source order."""
        return tuple(node for top in self.head + self.body for node in top.walk())

    def statements(self) -> Iterator[Node]:
        """Every statement, in source order (pre-order)."""
        return (node for node in self.nodes if isinstance(node.ast, ast.stmt))


@dataclass(eq=False)
class ContractIR:
    module: ContractModule
    functions: Dict[str, Function]
    _bounds: Dict[str, Gas] = field(default_factory=dict, repr=False)

    def bounds(self) -> Dict[str, Gas]:
        """Worst-case gas of every public entrypoint."""
        public = sorted(name for name in self.functions if not name.startswith("_"))
        return {name: self.bound(name) for name in public}

    def bound(self, name: str) -> Gas:
        """Worst-case gas of a call to contract function ``name``, ``GAS_CALL`` included."""
        if name not in self._bounds:
            self._bounds[name] = math.inf  # what a call cycle back into ``name`` reads
            self._bounds[name] = G.GAS_CALL + self.gas(self.functions[name].body)
        return self._bounds[name]

    def assumptions(self, name: str) -> List[str]:
        """What :meth:`bound` of ``name`` assumes: an :data:`ASSUMPTIONS` entry
        per host priced at an assumed size that a call to ``name`` can reach."""
        seen, todo, hosts = {name}, [name], set()
        while todo:
            for node in self.functions[todo.pop()].nodes:
                if node.ref is not None and node.ref.kind == HOST and isinstance(node.ast, ast.Call):
                    hosts.add(node.ref.name)
                elif node.function and node.function not in seen:
                    seen.add(node.function)
                    todo.append(node.function)
        return [ASSUMPTIONS[host] for host in sorted(hosts) if host in ASSUMPTIONS]

    def gas(self, nodes: Sequence[Node]) -> Gas:
        """Worst-case gas of running ``nodes`` once each: the max of the arms
        at a branch, bound × body at a loop, the callee's bound at a call."""
        total: Gas = 0
        for node in nodes:
            total += node.charge + self.gas(node.parts)
            if node.function:
                total += self.bound(node.function)
            arms = [self.gas(block) for block in node.blocks]
            if node.loop:
                each = G.GAS_LOOP_ITERATION + self.gas(node.loop.each) + arms[0]
                total += (node.loop.bound * each if node.loop.bound else 0) + arms[1]
            elif arms:
                total += max(arms)
        return total


def build(module: ContractModule) -> ContractIR:
    """The IR of a parsed contract module, whatever violations it lists."""
    functions = {name: _Builder(func, module).function() for name, func in module.functions.items()}
    return ContractIR(module, functions)


def _literal(node: ast.AST) -> Any:
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None


def _for_bound(iterable: ast.expr) -> int:
    """The most iterations a ``for`` over ``iterable`` runs: a literal
    ``range``'s or sequence's length, else the VM's ceiling."""
    if isinstance(iterable, (ast.List, ast.Tuple)):
        return len(iterable.elts)
    if isinstance(iterable, ast.Constant) and isinstance(iterable.value, (str, tuple)):
        return len(iterable.value)
    call = iterable if isinstance(iterable, ast.Call) else None
    if call and isinstance(call.func, ast.Name) and call.func.id == "range":
        ints = [_literal(arg) for arg in call.args]
        if all(isinstance(value, int) and not isinstance(value, bool) for value in ints):
            try:
                return min(len(range(*ints)), _MAX_LOOP)
            except (TypeError, ValueError, OverflowError):  # arity, a zero step, a huge length
                pass
    return _MAX_LOOP


class _Builder:
    """Builds one function's nodes with the charges ``vm._Lowering`` makes.

    A node the VM runs as a sum of its sub-expressions (and any syntax it
    refuses) is :meth:`generic`; the rest have a method each.
    """

    def __init__(self, func: ast.FunctionDef, module: ContractModule):
        self.func = func
        self.functions = module.functions
        # As in the lowering: only these can be in the activation.
        self.maybe_local = bound_names(func) | set(module.constants)
        self.loops: List[bool] = []  # per enclosing loop: whether a break or return left it

    def function(self) -> Function:
        func = self.func
        head = self.generic(func.args) + self.exprs(*func.decorator_list, func.returns)
        ref = self.ref(func.name, local=False)
        return Function(func, ref, head, self.block(func.body))

    def ref(self, name: str, local: bool = True) -> Ref:
        kind, _ = callee(name, self.functions, HOST_FUNCTION_NAMES)
        return Ref(name, local and name in self.maybe_local, kind)

    def block(self, body: Sequence[ast.stmt]) -> Tuple[Node, ...]:
        return tuple(map(self.stmt, body))

    def exprs(self, *nodes: Optional[ast.expr]) -> Tuple[Node, ...]:
        return tuple(self.expr(node) for node in nodes if node is not None)

    def generic(self, node: ast.AST, skip: Sequence[str] = ()) -> Tuple[Node, ...]:
        """Nodes for what lies beneath ``node``, in field order."""
        out: List[Node] = []
        for name, value in ast.iter_fields(node):
            for child in () if name in skip else value if isinstance(value, list) else [value]:
                if isinstance(child, ast.expr):
                    out.append(self.expr(child))
                elif isinstance(child, ast.stmt):
                    out.append(self.stmt(child))
                elif isinstance(child, ast.AST):
                    out.extend(self.generic(child))
        return tuple(out)

    # -- statements: ``return``, expressions, ``assert``, ``if``, ``pass`` ... are generic
    def stmt(self, node: ast.stmt) -> Node:
        if isinstance(node, ast.Return):
            self.loops[:] = [True] * len(self.loops)
        elif isinstance(node, ast.Break) and self.loops:
            self.loops[-1] = True
        build = getattr(self, "_stmt_" + type(node).__name__, None)
        if build is not None:
            return build(node)
        bodies = (getattr(node, name, None) for name in ("body", "orelse"))
        blocks = tuple(self.block(body) for body in bodies if isinstance(body, list))
        return Node(node, _STMT, self.generic(node, ("body", "orelse")), blocks)

    def _stmt_Assign(self, node: ast.Assign) -> Node:
        return Node(node, _STMT, (self.expr(node.value), *map(self.target, node.targets)))

    def _stmt_AugAssign(self, node: ast.AugAssign) -> Node:
        # The target is read, uncharged, before the value and stored after it:
        # a subscript's container and key run twice.
        target = self.target(node.target)
        return Node(node, _STMT, (target, self.expr(node.value), target))

    def _stmt_While(self, node: ast.While) -> Node:
        test = self.expr(node.test)  # runs once more than the body: the check that leaves
        known = isinstance(node.test, ast.Constant)
        bound = 0 if known and not node.test.value else _MAX_LOOP
        return self._loop(node, test, test, bound, known and bool(node.test.value))

    def _stmt_For(self, node: ast.For) -> Node:
        each = self.target(node.target)
        return self._loop(node, self.expr(node.iter), each, _for_bound(node.iter), False)

    def _loop(self, node: ast.stmt, head: Node, each: Node, bound: int, forever: bool) -> Node:
        self.loops.append(False)
        body = self.block(node.body)
        escapes = self.loops.pop()
        orelse = self.block(node.orelse)  # a ``break`` here leaves an outer loop
        return Node(node, _STMT, (head,), (body, orelse), Loop(bound, (each,), forever, escapes))

    def target(self, node: ast.expr) -> Node:
        """The store into an assignment target: a subscript runs its container and key."""
        if isinstance(node, ast.Subscript):
            return Node(node, 0, self.exprs(node.value, node.slice))
        if isinstance(node, (ast.Tuple, ast.List)):
            return Node(node, 0, tuple(map(self.target, node.elts)))
        return Node(node, 0, () if isinstance(node, ast.Name) else self.generic(node))

    # -- expressions: constants, operators, subscripts and displays are generic
    def expr(self, node: ast.expr) -> Node:
        build = getattr(self, "_expr_" + type(node).__name__, None)
        if build is not None:
            return build(node)
        power = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        return Node(node, _EXPR + (G.GAS_POW if power else 0), self.generic(node))

    def _expr_Name(self, node: ast.Name) -> Node:
        return Node(node, _EXPR, ref=self.ref(node.id) if isinstance(node.ctx, ast.Load) else None)

    def _expr_IfExp(self, node: ast.IfExp) -> Node:
        arms = ((self.expr(node.body),), (self.expr(node.orelse),))
        return Node(node, _EXPR, self.exprs(node.test), arms)

    def _expr_JoinedStr(self, node: ast.JoinedStr) -> Node:
        # Literal segments cost nothing; the VM ignores conversions and format specs.
        fields = (part.value for part in node.values if isinstance(part, ast.FormattedValue))
        return Node(node, _EXPR, self.exprs(*fields))

    def _expr_Call(self, node: ast.Call) -> Node:
        values = self.exprs(*node.args, *(keyword.value for keyword in node.keywords))
        if not isinstance(node.func, ast.Name):
            return Node(node, _EXPR + G.GAS_CALL, (self.expr(node.func), *values))
        # The call and the load of its name charge an expression each; a
        # contract function's bound holds its GAS_CALL. A local holding data
        # fails the call before that, so the bound is what the name reaches.
        ref = self.ref(node.func.id)
        if ref.kind != FUNCTION:
            charge = 2 * _EXPR + G.GAS_CALL + HOST_CHARGES.get(ref.name, 0)
            return Node(node, charge, values, ref=ref)
        return Node(node, 2 * _EXPR, values, ref=ref)
