"""MedScript: a deterministic, gas-metered smart-contract VM.

Contracts are written in a strict subset of Python (parsed with ``ast``,
never ``exec``).  The subset is chosen so that execution is *deterministic
across nodes* — the consensus-critical property the paper relies on when it
runs "the identical smart contract code in all the nodes" (section I):

- integers, strings, booleans, lists, dicts, tuples — no floats;
- ``if`` / ``while`` / ``for`` / function definitions / ``return``;
- a whitelist of pure builtins (``len``, ``range``, ``min``, ...);
- host functions injected by the runtime (``storage_get``, ``storage_set``,
  ``emit``, ``require``, ``sender``, ``block_height``, ``timestamp_ms``,
  ``sha256_hex``);
- functions are called, never handled: outside call position a name reads
  only a parameter, a local or a module constant, so no function value (and
  no address) exists in a contract;
- only data (``None``, scalars, lists, tuples, str-keyed dicts) has a text
  form: ``str``, f-strings, ``%`` and the host's key/message/name arguments
  refuse an iterator or a ``range``, whose text would be an address;
- every AST node evaluated charges gas; storage and events cost extra.

:func:`parse_contract` is the one definition of this subset: the VM
compiles a module only if it lists no violation, and the deploy gate
(``repro.analysis``, MED002/MED003/MED009) reports the same list.

No attribute access, no imports, no comprehensions, no closures over
mutable state: what remains is small enough to audit and big enough to be
Turing-complete (bounded by gas), matching the paper's "arbitrary
computation codes" framing.

Execution model: :func:`compile_contract` parses the module and then
lowers every function, once, into a tree of Python closures.  Each AST node
becomes one callable ``(meter, env, interpreter)`` whose node type, operator,
child closures and gas constants were resolved when it was built, so running
a contract dispatches on nothing.  The lowered form holds no per-call state
(that lives in the ``GasMeter``, the ``env`` dict of one function activation
and the :class:`Interpreter`), so one :class:`ContractSource` is shared by
every call, thread and node of a process.

Gas is consensus: a closure charges exactly what the node-by-node tree walk
it replaced charged, in the same order relative to every child evaluation,
host call and raise site.  ``GasMeter.used`` is therefore the same integer on
success, on a ``ContractError`` and at the charge that overshoots the limit.
A call-free expression whose gas is fixed at compile time (names, constants,
``+ - * // %``, one comparison other than ``in``, subscripts, list and tuple
displays), and a region (a run of assignments, ``if`` and ``while`` built of
such expressions only) are also compiled from the validated tree to bytecode
with empty builtins: that runs unmetered, sums its fixed charges, and falls
back to the node-by-node closures, from the untouched meter and ``env``, when
the gas is short or it raises.  It calls nothing and changes nothing.
The walker lives on as ``tests/contracts/vm_oracle.py``, and the differential
suite holds the two to identical results, gas, error text and host-call order,
at every gas limit from zero to the full cost.

Python errors a contract can provoke (``1 // 0``, ``-'a'``, ``1 < 'a'``, a
bad subscript, iterating an int, ...) surface as :class:`ContractError`, so
the runtime turns them into a failed receipt instead of letting them escape
block execution.

State aliasing: the world state stores values by reference (the
immutable-value convention of ``repro.chain.state``), so the host bridge
copies every container crossing the ``storage_get``/``storage_set``
boundary.  Contract code may therefore freely mutate values it read
from storage — the mutation only becomes state once written back.
Authors of new host functions must preserve this isolation: never hand a
reference obtained from ``StateDB`` to contract code, and never store a
reference contract code can still reach.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass, field
from itertools import groupby, islice
from types import CodeType, FunctionType
from typing import Any, Callable, Container, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ContractError, OutOfGasError
from repro.common.serialize import FLOAT_LEAVES
from repro.contracts import gas as G
from repro.obs.tracer import trace_span


def _out_of_gas(meter: "GasMeter") -> OutOfGasError:
    return OutOfGasError(f"out of gas: used {meter.used} > limit {meter.limit}")


class GasMeter:
    """Tracks gas consumption against a limit."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int) -> None:
        self.used += amount
        if self.used > self.limit:
            raise _out_of_gas(self)

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.used)


_FLOAT_ERROR = "floats are forbidden in contracts (non-deterministic)"


def _check_value(value: Any) -> Any:
    """Reject non-deterministic value types (floats, sets, objects)."""
    if isinstance(value, float):
        raise ContractError(_FLOAT_ERROR)
    return value


#: A container of these types only is data without a call per item.
_DATA_LEAVES = FLOAT_LEAVES | {bytes}
_STR_KEYS = frozenset({str})

#: Containers nested deeper than this are not data a contract may hand to the
#: host or return; a list that contains itself is the limiting case.
MAX_VALUE_DEPTH = 32


def _data_fault(value: Any, depth: int = 0, checked: Optional[set] = None) -> str:
    """Why ``value`` is not a MedScript value every node agrees on ("" when it is).

    Data is ``None``, scalars, and lists, tuples and str-keyed dicts of data.
    An iterator (``reversed(xs)``, ``zip(a, b)``), a ``range`` or a slice is
    not, and neither is a list that holds itself; depth is bounded here so the
    verdict does not depend on how deep the interpreter's own stack is.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return ""
    if not isinstance(value, (list, tuple, dict)):
        return f"a {type(value).__name__} is not data"
    checked = set() if checked is None else checked
    if id(value) in checked:  # shared sub-structure: walk it once
        return ""
    if depth >= MAX_VALUE_DEPTH:
        return f"nested deeper than {MAX_VALUE_DEPTH}"
    items = value
    if isinstance(value, dict):
        if not (set(map(type, value)) <= _STR_KEYS or all(isinstance(key, str) for key in value)):
            return "dict keys must be str"
        items = value.values()
    if not set(map(type, items)) <= _DATA_LEAVES:
        for item in items:
            fault = _data_fault(item, depth + 1, checked)
            if fault:
                return fault
    checked.add(id(value))
    return ""


def _text(value: Any) -> str:
    """``str(value)``, for data only: anything else would print an address."""
    if value.__class__ is not str:
        fault = _data_fault(value)
        if fault:
            raise ContractError(f"value has no text form: {fault}")
    return str(value)


def _contract_error(label: str, exc: BaseException) -> ContractError:
    """The receipt error for ``exc``: ``label: exc``, but a missing key that is
    not data (``str(KeyError)`` is its repr, an address) is named by its kind."""
    if isinstance(exc, KeyError) and exc.args:
        fault = _data_fault(exc.args[0])
        if fault:
            return ContractError(f"{label}: missing key ({fault})")
    return ContractError(f"{label}: {exc}")


def _str(*args: Any, **kwargs: Any) -> str:
    """The ``str`` builtin, refusing to convert what is not data."""
    for value in args + tuple(kwargs.values()):
        _text(value)
    return str(*args, **kwargs)


def _mod(a: Any, b: Any) -> Any:
    """``a % b``; ``%`` on a string formats ``b`` as text, so ``b`` must be data."""
    if isinstance(a, (str, bytes)):
        _text(b)
        _check_format(a, b)
    return a % b


_MAX_SIZE = G.MAX_VALUE_SIZE
_SEQUENCES = (str, bytes, list, tuple)
_TOO_LARGE = f"arithmetic error: result over {_MAX_SIZE} items or bits"

#: One ``%`` conversion: mapping key, flags, width, precision, length, type.
_CONVERSION = re.compile(r"%(?:\([^)]*\))?[-+ #0]*(\*|\d+)?(?:\.(\*|\d*))?[hlL]?(.?)", re.DOTALL)


def _check_format(template: Any, values: Any) -> None:
    """Refuse, before formatting, a ``%`` conversion whose width or precision
    (written out, or a ``*`` that takes it from ``values``) is over the cap."""
    text = template if isinstance(template, str) else template.decode("latin-1")
    values = values if isinstance(values, tuple) else (values,)
    taken = 0
    for conversion in _CONVERSION.finditer(text):
        for size in conversion.group(1, 2):
            if size == "*":
                size = values[taken] if taken < len(values) else 0
                taken += 1
            elif size:
                size = int(size)
            if isinstance(size, int) and abs(size) > _MAX_SIZE:
                raise ContractError(_TOO_LARGE)
        taken += conversion.group(3) != "%"


def _consuming(builtin: Callable[..., Any]) -> Callable[..., Any]:
    """``builtin``, refusing a first argument of more than the cap's items before it is read.

    A ``range`` or a container has a length; an iterator (``zip``,
    ``enumerate``, ``reversed``) is read up to one item past the cap.
    """

    def call(*args: Any, **kwargs: Any) -> Any:
        if args:
            items = args[0]
            if hasattr(items, "__next__"):
                items = list(islice(items, _MAX_SIZE + 1))
                args = (items,) + args[1:]
            if hasattr(items, "__len__"):
                try:
                    size = len(items)
                except OverflowError:  # a ``range`` too long for a machine int
                    size = _MAX_SIZE + 1
                if size > _MAX_SIZE:
                    raise ContractError(f"call error: argument over {_MAX_SIZE} items")
        return builtin(*args, **kwargs)

    return call


def _sized(result: Any) -> Any:
    """``result``, unless it is a sequence longer than the cap."""
    if isinstance(result, _SEQUENCES) and len(result) > _MAX_SIZE:
        raise ContractError(_TOO_LARGE)
    return result


def _add(a: Any, b: Any) -> Any:
    """``a + b``; an int grows a bit per gas, so only a sequence is sized."""
    result = a + b
    return result if result.__class__ is int else _sized(result)


def _mul(a: Any, b: Any) -> Any:
    """``a * b``: an int product no wider than the cap; a repetition checked before it is built."""
    if isinstance(a, int) and isinstance(b, int):
        result = a * b
        if result.bit_length() > _MAX_SIZE:
            raise ContractError(_TOO_LARGE)
        return result
    count, items = (a, b) if isinstance(a, int) else (b, a)
    if isinstance(count, int) and isinstance(items, _SEQUENCES) and len(items) * count > _MAX_SIZE:
        raise ContractError(_TOO_LARGE)
    return a * b


def _pow(a: Any, b: Any) -> Any:
    """``a ** b``, no wider than the cap; refused unbuilt when even its lower bound is wider."""
    # ``a ** b`` has more than ``(a.bit_length() - 1) * b`` bits.
    if isinstance(a, int) and isinstance(b, int) and b > 0 and (a.bit_length() - 1) * b > _MAX_SIZE:
        raise ContractError(_TOO_LARGE)
    result = a ** b
    if isinstance(result, int) and result.bit_length() > _MAX_SIZE:
        raise ContractError(_TOO_LARGE)
    return result


_ALLOWED_BINOPS = {
    ast.Add: _add,
    ast.Sub: operator.sub,
    ast.Mult: _mul,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: _mod,
    ast.Pow: _pow,
}

_ALLOWED_UNARY = {
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
    ast.Not: operator.not_,
}

# Every ``ast.cmpop`` there is; a comparison cannot name a disallowed one.
_COMPARE = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
    ast.Is: operator.is_,
    ast.IsNot: operator.is_not,
}

_PURE_BUILTINS: Dict[str, Callable[..., Any]] = {
    "len": len,
    "range": range,
    "min": _consuming(min),
    "max": _consuming(max),
    "sum": _consuming(sum),
    "abs": abs,
    "sorted": _consuming(sorted),
    "int": int,
    "str": _str,
    "bool": bool,
    "list": _consuming(list),
    "dict": _consuming(dict),
    "tuple": _consuming(tuple),
    "enumerate": enumerate,
    "zip": zip,
    "reversed": reversed,
    "divmod": divmod,
}

#: What operators, subscripts, builtins and host functions raise on bad
#: contract values; each site converts them to :class:`ContractError`.
_VALUE_ERRORS = (
    TypeError,
    ValueError,
    ZeroDivisionError,
    OverflowError,
    KeyError,
    IndexError,
)

# -- the grammar -----------------------------------------------------------------

#: Syntax a contract may not contain.
DISALLOWED_SYNTAX = frozenset(
    {
        ast.Import,
        ast.ImportFrom,
        ast.Attribute,
        ast.Lambda,
        ast.GeneratorExp,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.With,
        ast.Try,
        ast.Raise,
        ast.Global,
        ast.Nonlocal,
        ast.ClassDef,
        ast.AsyncFunctionDef,
        ast.Await,
        ast.Yield,
        ast.YieldFrom,
        ast.Starred,
        ast.NamedExpr,
        ast.Set,
    }
)

#: ``ContractError`` text per violation kind (prefixed ``"<function>: "``
#: inside a function); ``{node}`` is the offending node's type.
_VIOLATION_TEXT = {
    "statement": "disallowed top-level statement: {node}",
    "target": "top-level assignments must bind a single name",
    "constant": "top-level constants must be literals",
    "empty": "contract defines no functions",
    "parameters": "only plain positional parameters are allowed",
    "syntax": "disallowed syntax {node}",
    "nested": "nested functions are not allowed",
    "float": "float literals are forbidden",
    "division": "use // (true division yields floats)",
}


@dataclass(frozen=True)
class Violation:
    """One place where a module leaves the MedScript subset."""

    node: ast.AST
    function: str  # the enclosing function; "" at top level
    kind: str  # a key of ``_VIOLATION_TEXT``

    @property
    def text(self) -> str:
        """What is wrong, without where."""
        return _VIOLATION_TEXT[self.kind].format(node=type(self.node).__name__)

    @property
    def message(self) -> str:
        """The text :func:`compile_contract` rejects the module with."""
        if self.function:
            return f"{self.function}: {self.text}"
        return _FLOAT_ERROR if self.kind == "float" else self.text


@dataclass
class ContractModule:
    """One parse of contract source: everything any consumer of it reads."""

    tree: ast.Module
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: value node of every top-level ``NAME = ...``
    constants: Dict[str, ast.expr] = field(default_factory=dict)
    #: in the order the VM meets them: top-level statements in order; per
    #: function, the parameter shape, then ``ast.walk`` order
    violations: List[Violation] = field(default_factory=list)


def parse_contract(source: str) -> ContractModule:
    """Parse ``source`` and list every grammar violation; ``SyntaxError`` if it is not Python."""
    module = ContractModule(ast.parse(source))
    violations = module.violations
    for node in module.tree.body:
        if isinstance(node, ast.FunctionDef):
            module.functions[node.name] = node
            if node.args.vararg or node.args.kwarg or node.args.kwonlyargs:
                violations.append(Violation(node, node.name, "parameters"))
            violations.extend(_node_violations(node, node.name))
        elif isinstance(node, ast.Assign):
            if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
                violations.append(Violation(node, "", "target"))
                continue
            module.constants[node.targets[0].id] = node.value
            try:
                ast.literal_eval(node.value)
            except (ValueError, TypeError, SyntaxError):
                violations.append(Violation(node.value, "", "constant"))
                continue
            violations.extend(_node_violations(node.value, ""))
        elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            violations.append(Violation(node, "", "statement"))  # else: a docstring
    if not module.functions:
        violations.append(Violation(module.tree, "", "empty"))
    return module


def _node_violations(root: ast.AST, function: str) -> Iterator[Violation]:
    for node in ast.walk(root):
        if type(node) in DISALLOWED_SYNTAX:
            kind = "syntax"
        elif isinstance(node, ast.FunctionDef) and node is not root:
            kind = "nested"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            kind = "float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            kind = "division"
        else:
            continue
        yield Violation(node, function, kind)


def assigned_names(node: ast.AST) -> List[str]:
    """Names one statement binds itself, not those of statements nested in it."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.For, ast.NamedExpr)):
        targets = [node.target]
    else:
        return []
    return [
        sub.id
        for target in targets
        for sub in ast.walk(target)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
    ]


def bound_names(func: ast.FunctionDef) -> Set[str]:
    """Every name an activation of ``func`` can hold: parameters and assignment targets."""
    names = {arg.arg for arg in func.args.args}
    for node in ast.walk(func):
        names.update(assigned_names(node))
    return names


#: What a call to a bare name reaches when the activation holds no local of
#: that name (a local is tried first and, holding data, fails the call).
HOST, BUILTIN, FUNCTION, UNDEFINED = "host", "builtin", "function", "undefined"


def callee(
    name: str, functions: Dict[str, ast.FunctionDef], hosts: Container[str] = ()
) -> Tuple[str, Any]:
    """``(kind, function)`` a call to ``name`` reaches when no local holds it.

    The host's function first, if ``hosts`` names one (the lowering passes
    none: it looks the host up when the call runs), then the pure builtin,
    then the contract function; ``(UNDEFINED, None)`` when nothing does.
    """
    if name in hosts:
        return HOST, None
    if name in _PURE_BUILTINS:
        return BUILTIN, _PURE_BUILTINS[name]
    if name in functions:
        return FUNCTION, functions[name]
    return UNDEFINED, None


@dataclass
class ContractSource:
    """Parsed, statically-checked and lowered contract module."""

    source: str
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    constants: Dict[str, Any] = field(default_factory=dict)
    #: The closures :class:`Interpreter` runs, one entry per ``functions`` key.
    code: Dict[str, "_Function"] = field(default_factory=dict, repr=False)

    @property
    def methods(self) -> List[str]:
        return sorted(name for name in self.functions if not name.startswith("_"))


def compile_contract(source: str) -> ContractSource:
    """Parse, statically validate and lower a MedScript contract module.

    Raises :class:`ContractError` with the first violation of the grammar.
    """
    try:
        module = parse_contract(source)
    except SyntaxError as exc:
        raise _contract_error("contract syntax error", exc) from exc
    if module.violations:
        raise ContractError(module.violations[0].message)
    compiled = ContractSource(
        source=source,
        functions=module.functions,
        constants={name: _literal(node) for name, node in module.constants.items()},
    )
    # Lowered last: a closure binds the module's constants and sibling
    # functions, which may be defined below the function that names them.
    for name, func in compiled.functions.items():
        compiled.code[name] = _Function(func, compiled)
    return compiled


def _literal(node: ast.AST) -> Any:
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError) as exc:
        raise ContractError("top-level constants must be literals") from exc
    return _check_value(value)


# -- lowering ------------------------------------------------------------------
#
# A closure is called as ``closure(meter, env, rt)``: the GasMeter, the local
# variables of the running function activation, and the Interpreter (for the
# host functions and the call depth).  Expression closures return the value.
# Statement closures return ``None`` to fall through to the next statement, or
# the signal that leaves the enclosing block: ``_BREAK``, ``_CONTINUE`` or a
# 1-tuple holding the value of a ``return``.
#
# The hot closures spell ``meter.charge(n)`` out in place (add, store, compare,
# raise ``_out_of_gas``) because that method call would be a third of their
# cost; the rest call it.  Pure expressions and regions built of them also run
# as bytecode (``_Emitter``), ahead of their walk (``_fused``, ``_region``).

_Closure = Callable[["GasMeter", Dict[str, Any], "Interpreter"], Any]
_Store = Callable[[Any, "GasMeter", Dict[str, Any], "Interpreter"], None]
#: A pure expression compiled: ``env -> value``.
_Pure = Callable[[Dict[str, Any]], Any]
#: A region compiled: ``(env, gas left) -> gas used``, or ``-1`` when it gives up.
_Native = Callable[[Dict[str, Any], int], int]
#: What a pure form may raise; the walk then runs and raises it (or not) itself.
_REPLAYED = _VALUE_ERRORS + (ContractError,)

_GAS_EXPR = G.GAS_EXPRESSION
_GAS_STMT = G.GAS_STATEMENT
_GAS_LOOP = G.GAS_LOOP_ITERATION
_MAX_LOOP = G.MAX_ITERATIONS_PER_LOOP

_BREAK = "break"
_CONTINUE = "continue"
_RETURN_NONE = (None,)
_MISSING: Any = object()


def _raising(gas: int, message: str) -> _Closure:
    """A node the subset has no meaning for: charged when reached, then fatal."""

    def run(m, env, rt):
        m.charge(gas)
        raise ContractError(message)

    return run


def _fused(fast: _Pure, gas: int, walk: _Closure) -> _Closure:
    """Pay ``gas`` in one check and return ``fast(env)``; if the meter is short
    or ``fast`` raises, run ``walk`` from the untouched meter instead.

    ``fast`` calls nothing, advances no iterator and writes nothing, so the
    walk sees what ``fast`` saw and decides the gas, the error and its text.
    """

    def run(m, env, rt):
        used = m.used + gas
        if used > m.limit:
            return walk(m, env, rt)
        try:
            value = fast(env)
        except _REPLAYED:
            return walk(m, env, rt)
        m.used = used
        return value

    return run


def _region(native: _Native, walk: _Closure) -> _Closure:
    """:func:`_fused` for a region: ``native`` charges what it used of the gas
    left, and writes ``env`` only then; if it gives up or raises, the walk runs."""

    def run(m, env, rt):
        try:
            gas = native(env, m.limit - m.used)
        except Exception:
            gas = -1
        if gas < 0:
            return walk(m, env, rt)
        m.used += gas
        return None

    return run


# -- native regions (DESIGN.md §16) ---------------------------------------------
#
# A region is a maximal run of statements built of pure expressions only: name
# assignments, ``+= -= *= //= %=`` on a name, ``if``, ``while`` (and ``else``),
# and ``break`` / ``continue`` of a loop in the run.  It becomes one
# function, built as a Python ``ast`` from the validated tree and compiled with
# empty builtins.  Contract name ``x`` is the fast local ``l_x``; ``h_*`` are
# helpers.  Constants are bound from a tuple of the nodes' own values: inline,
# CPython would fold equal ones into one object, and ``is`` would see it.  No
# value is a float: a subscript refuses one, or ``+`` / ``*`` taking it do.

_NATIVE_OPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod)
_GLOBALS = dict(
    __builtins__={}, h_int=int, h_data=_check_value, h_mod=_mod, h_unbound=UnboundLocalError,
    h_sized=lambda result: _sized(_check_value(result)),
    h_mul=lambda a, b: _check_value(_mul(a, b)),
)
#: All the emitter builds; :meth:`_Emitter.compile` asserts that nothing else got in.
_EMITTED = {*_NATIVE_OPS, *_COMPARE} | {getattr(ast, name) for name in (
    "Module FunctionDef arguments arg Assign AugAssign If While Break Continue Pass Return Try "
    "ExceptHandler Name Load Store Constant Attribute Call Subscript List Tuple IfExp NamedExpr "
    "BoolOp And Or BinOp Compare In"
).split()}
_EMITTED_NAME = re.compile(r"[lh]_\w+|[ktn]\d+|g|env|left|__class__|bit_length")
_TYPE_PARAMS = {"type_params": []} if "type_params" in ast.FunctionDef._fields else {}


def _name(name: str, store: bool = False) -> ast.Name:
    return ast.Name(name, ast.Store() if store else ast.Load())


def _env(name: str, store: bool = False) -> ast.Subscript:
    return ast.Subscript(_name("env"), ast.Constant(name), ast.Store() if store else ast.Load())


def _assign(name: str, value: ast.expr) -> ast.Assign:
    return ast.Assign([_name(name, True)], value)


def _class(name: str, value: ast.expr) -> ast.Attribute:
    """``(name := value).__class__``."""
    return ast.Attribute(ast.NamedExpr(_name(name, True), value), "__class__", ast.Load())


_GIVE_UP = ast.Return(ast.Constant(-1))
_OUT_OF_GAS = ast.Compare(_name("g"), [ast.Gt()], [_name("left")])


def _int_or(name: str, value: ast.expr, fallback: str) -> ast.IfExp:
    """``name if (name := value).__class__ is int else fallback(name)``."""
    test = ast.Compare(_class(name, value), [ast.Is()], [_name("h_int")])
    return ast.IfExp(test, _name(name), ast.Call(_name(fallback), [_name(name)], []))


class _Emitter:
    """Emits one pure expression, or one region, as a compiled function."""

    def __init__(self, cost: Callable[[ast.expr], Optional[int]]):
        self.cost = cost
        self.constants: List[Any] = []
        self.reads: Dict[str, None] = {}  # contract names loaded from ``env`` at entry
        self.bound: Dict[str, None] = {}  # names the region's top level has assigned so far
        self.temps = 0

    def function(self, node: ast.expr) -> _Pure:
        """``env -> value`` of pure ``node``; a name ``env`` lacks raises ``KeyError``."""
        value = self.expr(node)
        loads = [_assign("l_" + name, _env(name)) for name in self.reads]
        return self.compile([*loads, ast.Return(value)], "env")

    def region(self, body: Sequence[ast.stmt]) -> _Native:
        """Gives up past the gas left or an iteration limit; else writes ``env`` at exit."""
        code = [_assign("g", ast.Constant(0)), *self.block(body, top=True)]
        for name in reversed(self.reads):  # a name not in ``env`` stays unbound
            test = ast.Compare(ast.Constant(name), [ast.In()], [_name("env")])
            code.insert(0, ast.If(test, [_assign("l_" + name, _env(name))], []))
        nodes = (node for stmt in body for node in ast.walk(stmt))
        written = dict.fromkeys(name for node in nodes for name in assigned_names(node))
        for name in written:
            store: ast.stmt = ast.Assign([_env(name, True)], _name("l_" + name))
            if name not in self.bound:  # assigned in an arm or a loop only: maybe never
                handler = ast.ExceptHandler(_name("h_unbound"), None, [ast.Pass()])
                store = ast.Try([store], [handler], [], [])
            code.append(store)
        return self.compile(code + [ast.Return(_name("g"))], "env", "left")

    def compile(self, body: List[ast.stmt], *params: str) -> Callable[..., Any]:
        """``body`` as a function."""
        if self.constants:
            names = [_name(f"k{i}", True) for i in range(len(self.constants))]
            body.insert(0, ast.Assign([ast.Tuple(names, ast.Store())], _name("h_k")))
        args = ast.arguments([], list(map(ast.arg, params)), None, [], [], None, [])
        module = ast.Module([ast.FunctionDef("native", args, body, [], **_TYPE_PARAMS)], [])
        for node in ast.walk(module):
            names = [getattr(node, at) for at in ("id", "attr", "arg") if hasattr(node, at)]
            assert type(node) in _EMITTED and all(map(_EMITTED_NAME.fullmatch, names)), node
            node.lineno, node.col_offset = 1, 0
        consts = compile(module, "<medscript>", "exec").co_consts
        (code,) = [const for const in consts if isinstance(const, CodeType)]
        return FunctionType(code, dict(_GLOBALS, h_k=tuple(self.constants)))

    def block(self, body: Sequence[ast.stmt], gas=0, top=False, limit=None) -> List[ast.stmt]:
        """``body`` as Python statements, owing ``gas``.  A segment (assignments and the ``if``,
        ``while``, ``break`` or ``continue`` after them) adds its charge first and gives up past
        the gas left, as the walk would run out in it; a loop body's first, also on ``limit``."""
        out: List[ast.stmt] = []
        run: List[ast.stmt] = []
        for node in body:
            kind = type(node)
            if kind is ast.Assign or kind is ast.AugAssign:
                name = node.targets[0].id if kind is ast.Assign else node.target.id
                if kind is ast.Assign:
                    value = self.expr(node.value)
                else:  # the target is read, uncharged, first
                    value = self.binop(node.op, self.local(name), self.operand(node.value, node.op))
                gas += _GAS_STMT + self.cost(node.value)
                run.append(_assign("l_" + name, value))
                if top:
                    self.bound[name] = None
                continue
            gas += _GAS_STMT
            if kind is ast.If:
                gas += self.cost(node.test)
                arms = self.block(node.body), self.block(node.orelse)
                last: List[ast.stmt] = [ast.If(self.expr(node.test), *arms)]
            elif kind is ast.While:  # an iteration pays the test that let it in, ``else`` the last
                test, count = self.cost(node.test), self.temp("n")
                over = ast.Compare(_name(count), [ast.Gt()], [ast.Constant(_MAX_LOOP)])
                each = [ast.AugAssign(_name(count, True), ast.Add(), ast.Constant(1))]
                each += self.block(node.body, test + _GAS_LOOP, limit=over)
                loop = ast.While(self.expr(node.test), each, self.block(node.orelse, test))
                last = [_assign(count, ast.Constant(0)), loop]
            else:  # ``break`` or ``continue``
                last = [kind()]
            out += self.charge(gas, limit) + run + last
            gas, run, limit = 0, [], None
        return out + self.charge(gas, limit) + run

    @staticmethod
    def charge(gas: int, limit: Optional[ast.expr]) -> List[ast.stmt]:
        """``g += gas``, then give up past the gas left or when ``limit`` holds."""
        if not gas:
            return []
        test = _OUT_OF_GAS if limit is None else ast.BoolOp(ast.Or(), [limit, _OUT_OF_GAS])
        return [ast.AugAssign(_name("g", True), ast.Add(), ast.Constant(gas)), ast.If(test, [_GIVE_UP], [])]

    def temp(self, prefix: str = "t") -> str:
        self.temps += 1
        return f"{prefix}{self.temps}"

    def local(self, name: str) -> ast.Name:
        if name not in self.bound:
            self.reads[name] = None
        return _name("l_" + name)

    def expr(self, node: ast.expr) -> ast.expr:
        kind = type(node)
        if kind is ast.Constant:
            self.constants.append(node.value)
            return _name(f"k{len(self.constants) - 1}")
        if kind is ast.Name:
            return self.local(node.id)
        if kind is ast.BinOp:
            left, right = self.operand(node.left, node.op), self.operand(node.right, node.op)
            return self.binop(node.op, left, right)
        if kind is ast.Compare:
            return ast.Compare(self.expr(node.left), node.ops, [self.expr(node.comparators[0])])
        if kind is ast.Subscript:  # ``h_data`` refuses a float
            return _int_or(self.temp(), self.item(node), "h_data")
        # A list or tuple, bound to a name so that CPython warns of no ``[x][[y]]`` or ``x is ()``.
        display = kind([self.expr(element) for element in node.elts], ast.Load())
        return ast.NamedExpr(_name(self.temp(), True), display)

    def item(self, node: ast.Subscript) -> ast.Subscript:
        """``node`` unchecked for a float: inside ``a[i][k]``, a float ``a[i]`` fails ``[k]``."""
        value = node.value
        container = self.item(value) if isinstance(value, ast.Subscript) else self.expr(value)
        return ast.Subscript(container, self.expr(node.slice), ast.Load())

    def operand(self, node: ast.expr, op: ast.operator) -> ast.expr:
        """An operand of ``op``: a subscript unchecked if ``op``'s result refuses a float."""
        if isinstance(node, ast.Subscript) and isinstance(op, (ast.Add, ast.Mult)):
            return self.item(node)
        return self.expr(node)

    def binop(self, op: ast.operator, left: ast.expr, right: ast.expr) -> ast.expr:
        if isinstance(op, ast.Mod):
            return ast.Call(_name("h_mod"), [left, right], [])
        if isinstance(op, ast.Add):  # an int grows a bit per gas; only a sequence is sized
            return _int_or(self.temp(), ast.BinOp(left, op, right), "h_sized")
        if not isinstance(op, ast.Mult):
            return ast.BinOp(left, op, right)
        a, b, result = self.temp(), self.temp(), self.temp()
        is_int = [ast.Is(), ast.Is()], [_class(b, right), _name("h_int")]
        ints = ast.Compare(_class(a, left), *is_int)
        product = ast.NamedExpr(_name(result, True), ast.BinOp(_name(a), op, _name(b)))
        width = ast.Call(ast.Attribute(product, "bit_length", ast.Load()), [], [])
        small = ast.Compare(width, [ast.LtE()], [ast.Constant(_MAX_SIZE)])
        fallback = ast.Call(_name("h_mul"), [_name(a), _name(b)], [])
        return ast.IfExp(ast.BoolOp(ast.And(), [ints, small]), _name(result), fallback)


class _Function:
    """One contract function lowered to closures: argument binding and a body."""

    __slots__ = ("name", "params", "defaults", "constants", "body")

    def __init__(self, func: ast.FunctionDef, contract: ContractSource):
        self.name = func.name
        self.params = [arg.arg for arg in func.args.args]
        defaults = func.args.defaults
        self.defaults = list(zip(self.params[len(self.params) - len(defaults):], defaults))
        self.constants = contract.constants
        self.body = _Lowering(func, contract).block(func.body)

    def invoke(self, m: GasMeter, rt: "Interpreter", args: Dict[str, Any]) -> Any:
        rt.depth += 1
        if rt.depth > G.MAX_CALL_DEPTH:
            raise ContractError("max call depth exceeded")
        m.charge(G.GAS_CALL)
        env: Dict[str, Any] = dict(self.constants)
        # Bind defaults (right-aligned; rebuilt per call, a default may be a
        # list), then override with provided args.
        for param, default in self.defaults:
            env[param] = _literal(default)
        for param in self.params:
            if param in args:
                env[param] = _check_value(args[param])
        missing = [p for p in self.params if p not in env]
        if missing:
            raise ContractError(f"{self.name}: missing arguments {missing}")
        extra = set(args) - set(self.params)
        if extra:
            raise ContractError(f"{self.name}: unexpected arguments {sorted(extra)}")
        try:
            signal = self.body(m, env, rt)
        finally:
            rt.depth -= 1
        if signal is None:
            return None
        if signal.__class__ is tuple:
            return signal[0]
        raise ContractError(f"{signal!r} outside loop")


class _Lowering:
    """Builds the closures of one function body; used once, by ``_Function``."""

    def __init__(self, func: ast.FunctionDef, contract: ContractSource):
        self.functions = contract.functions
        self.code = contract.code
        # Only these names can ever be in ``env``; any other is a function
        # (host, builtin or contract) or undefined.
        self.maybe_local = bound_names(func) | set(contract.constants)
        self.costs: Dict[ast.expr, Optional[int]] = {}
        self.fuse = True  # off while lowering the walk behind a fused node or a region

    # -- statements ----------------------------------------------------------
    def block(self, body: Sequence[ast.stmt]) -> Optional[_Closure]:
        """Run statements in order until one signals; ``None`` for an empty block.

        Each maximal run of :meth:`native` statements is one region.
        """
        stmts: List[_Closure] = []
        for native, nodes in groupby(body, self.native):
            if native:
                stmts.append(self.region(list(nodes)))
            else:
                stmts.extend(map(self.stmt, nodes))
        if len(stmts) <= 1:
            return stmts[0] if stmts else None

        def run(m, env, rt):
            for stmt in stmts:
                signal = stmt(m, env, rt)
                if signal is not None:
                    return signal
            return None

        return run

    def native(self, node: ast.stmt, in_loop: bool = False) -> bool:
        """Whether ``node`` can be in a region; ``in_loop`` if a loop of the region holds it."""
        if not self.fuse:
            return False
        kind = type(node)
        if kind is ast.Assign and len(node.targets) == 1:
            return isinstance(node.targets[0], ast.Name) and self.cost(node.value) is not None
        if kind is ast.AugAssign and isinstance(node.op, _NATIVE_OPS):
            return isinstance(node.target, ast.Name) and self.cost(node.value) is not None
        if kind is ast.If or kind is ast.While:
            inner = in_loop or kind is ast.While
            return self.cost(node.test) is not None and all(
                [self.native(stmt, inner) for stmt in node.body]
                + [self.native(stmt, in_loop) for stmt in node.orelse]
            )
        return in_loop and kind in (ast.Break, ast.Continue)

    def region(self, body: List[ast.stmt]) -> _Closure:
        """``body`` compiled, with its walk behind it."""
        walk = self.walk(body, self.block)
        native = self.compiled(lambda emitter: emitter.region(body))
        return walk if native is None else _region(native, walk)

    def compiled(self, emit: Callable[["_Emitter"], Any]) -> Any:
        """``emit(emitter)``; ``None`` for code nested deeper than CPython compiles
        (a ``RecursionError``, or a ``SyntaxError`` past 20 nested loops)."""
        try:
            return emit(_Emitter(self.cost))
        except (RecursionError, SyntaxError):
            return None

    def stmt(self, node: ast.stmt) -> _Closure:
        lower = getattr(self, "_stmt_" + type(node).__name__, None)
        if lower is None:
            return _raising(_GAS_STMT, f"disallowed statement {type(node).__name__}")
        return lower(node)

    def charged(self, node: ast.expr) -> _Closure:
        """A statement's charge, then the value of ``node``: one check for both when ``node`` is pure."""
        form = self.pure(node)
        value = self.walk(node) if form else self.expr(node)

        def walked(m, env, rt):
            used = m.used + _GAS_STMT
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
            return value(m, env, rt)

        return walked if form is None else _fused(form[0], _GAS_STMT + form[1], walked)

    def _stmt_Return(self, node: ast.Return) -> _Closure:
        if node.value is None:

            def run_none(m, env, rt):
                m.charge(_GAS_STMT)
                return _RETURN_NONE

            return run_none
        value = self.charged(node.value)

        def run(m, env, rt):
            return (value(m, env, rt),)

        return run

    def _stmt_Assign(self, node: ast.Assign) -> _Closure:
        value = self.charged(node.value)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id

            def run_name(m, env, rt):
                env[name] = value(m, env, rt)

            return run_name
        stores = tuple(self.store(target) for target in node.targets)

        def run(m, env, rt):
            result = value(m, env, rt)
            for store in stores:
                store(result, m, env, rt)

        return run

    def _stmt_AugAssign(self, node: ast.AugAssign) -> _Closure:
        op = _ALLOWED_BINOPS.get(type(node.op))
        if op is None:
            return _raising(_GAS_STMT, f"disallowed operator {type(node.op).__name__}")
        target = node.target
        value = self.expr(node.value)
        # The target is read without an expression charge of its own and, for
        # a subscript, evaluated a second time by the store.
        store = self.store(target)
        if isinstance(target, ast.Name):
            name = target.id

            def load(m, env, rt):
                if name not in env:
                    raise ContractError(f"undefined name {name!r}")
                return env[name]

        elif isinstance(target, ast.Subscript):
            container = self.expr(target.value)
            key = self.expr(target.slice)

            def load(m, env, rt):
                items = container(m, env, rt)
                index = key(m, env, rt)
                try:
                    return items[index]
                except _VALUE_ERRORS as exc:
                    raise _contract_error("subscript error", exc) from exc

        else:
            return _raising(_GAS_STMT, "invalid augmented-assignment target")

        def run(m, env, rt):
            m.charge(_GAS_STMT)
            current = load(m, env, rt)
            operand = value(m, env, rt)
            try:
                result = op(current, operand)
            except _VALUE_ERRORS as exc:
                raise _contract_error("arithmetic error", exc) from exc
            store(_check_value(result), m, env, rt)

        return run

    def _stmt_If(self, node: ast.If) -> _Closure:
        test = self.charged(node.test)
        body = self.block(node.body)
        orelse = self.block(node.orelse)

        def run(m, env, rt):
            if test(m, env, rt):
                return body(m, env, rt)
            if orelse is not None:
                return orelse(m, env, rt)
            return None

        return run

    def _stmt_While(self, node: ast.While) -> _Closure:
        test = self.expr(node.test)
        body = self.block(node.body)
        orelse = self.block(node.orelse)

        def run(m, env, rt):
            m.charge(_GAS_STMT)
            iterations = 0
            while test(m, env, rt):
                iterations += 1
                if iterations > _MAX_LOOP:
                    raise ContractError("loop iteration limit exceeded")
                used = m.used + _GAS_LOOP
                m.used = used
                if used > m.limit:
                    raise _out_of_gas(m)
                signal = body(m, env, rt)
                if signal is None or signal is _CONTINUE:
                    continue
                if signal is _BREAK:
                    return None
                return signal
            if orelse is not None:
                return orelse(m, env, rt)
            return None

        return run

    def _stmt_For(self, node: ast.For) -> _Closure:
        iterable = self.expr(node.iter)
        store = self.store(node.target)
        body = self.block(node.body)
        orelse = self.block(node.orelse)

        def run(m, env, rt):
            m.charge(_GAS_STMT)
            values = iterable(m, env, rt)
            try:
                iterator = iter(values)
            except TypeError as exc:
                raise _contract_error("iteration error", exc) from exc
            iterations = 0
            while True:
                try:
                    item = next(iterator, _MISSING)
                except RuntimeError as exc:  # dict resized by the loop body
                    raise _contract_error("iteration error", exc) from exc
                if item is _MISSING:
                    break
                iterations += 1
                if iterations > _MAX_LOOP:
                    raise ContractError("loop iteration limit exceeded")
                used = m.used + _GAS_LOOP
                m.used = used
                if used > m.limit:
                    raise _out_of_gas(m)
                store(_check_value(item), m, env, rt)
                signal = body(m, env, rt)
                if signal is None or signal is _CONTINUE:
                    continue
                if signal is _BREAK:
                    return None
                return signal
            if orelse is not None:
                return orelse(m, env, rt)
            return None

        return run

    def _stmt_Expr(self, node: ast.Expr) -> _Closure:
        value = self.charged(node.value)

        def run(m, env, rt):
            value(m, env, rt)

        return run

    def _stmt_Pass(self, node: ast.Pass) -> _Closure:
        def run(m, env, rt):
            m.charge(_GAS_STMT)

        return run

    def _stmt_Break(self, node: ast.Break) -> _Closure:
        def run(m, env, rt):
            m.charge(_GAS_STMT)
            return _BREAK

        return run

    def _stmt_Continue(self, node: ast.Continue) -> _Closure:
        def run(m, env, rt):
            m.charge(_GAS_STMT)
            return _CONTINUE

        return run

    def _stmt_Assert(self, node: ast.Assert) -> _Closure:
        test = self.expr(node.test)
        message = self.expr(node.msg) if node.msg else None

        def run(m, env, rt):
            m.charge(_GAS_STMT)
            if not test(m, env, rt):
                text = message(m, env, rt) if message else "assertion failed"
                raise ContractError(_text(text))

        return run

    # -- assignment targets ----------------------------------------------------
    def store(self, target: ast.expr) -> _Store:
        if isinstance(target, ast.Name):
            name = target.id

            def store_name(value, m, env, rt):
                env[name] = value

            return store_name
        if isinstance(target, ast.Subscript):
            container = self.expr(target.value)
            key = self.expr(target.slice)

            def store_item(value, m, env, rt):
                items = container(m, env, rt)
                index = key(m, env, rt)
                try:
                    items[index] = value
                except _VALUE_ERRORS as exc:
                    raise _contract_error("subscript error", exc) from exc

            return store_item
        if isinstance(target, (ast.Tuple, ast.List)):
            stores = tuple(self.store(element) for element in target.elts)

            def store_unpacked(value, m, env, rt):
                try:
                    values = list(value)
                except TypeError as exc:
                    raise _contract_error("unpacking error", exc) from exc
                if len(values) != len(stores):
                    raise ContractError("unpacking arity mismatch")
                for store, item in zip(stores, values):
                    store(_check_value(item), m, env, rt)

            return store_unpacked
        message = f"cannot assign to {type(target).__name__}"

        def store_nothing(value, m, env, rt):
            raise ContractError(message)

        return store_nothing

    # -- expressions ---------------------------------------------------------
    def expr(self, node: ast.expr) -> _Closure:
        """``node``'s closure: fused when it is pure and more than a leaf."""
        form = self.pure(node)
        if form is not None:
            return _fused(*form, self.walk(node))
        lower = getattr(self, "_expr_" + type(node).__name__, None)
        if lower is None:
            return _raising(_GAS_EXPR, f"disallowed expression {type(node).__name__}")
        return lower(node)

    def walk(self, node: Any, lower: Optional[Callable[[Any], Any]] = None) -> Any:
        """``lower(node)``, by default ``node``'s closure, with nothing beneath it fused."""
        fuse, self.fuse = self.fuse, False
        try:
            return (lower or self.expr)(node)
        finally:
            self.fuse = fuse

    # -- pure expressions: compiled ``env -> value``, and the gas the walk charges --
    def pure(self, node: ast.expr) -> Optional[Tuple[_Pure, int]]:
        """``node`` compiled and its fixed gas; ``None`` for a leaf, if impure or when walking."""
        leaf = isinstance(node, (ast.Name, ast.Constant))
        gas = None if leaf or not self.fuse else self.cost(node)
        fast = None if gas is None else self.compiled(lambda emitter: emitter.function(node))
        return None if fast is None else (fast, gas)

    def cost(self, node: ast.expr) -> Optional[int]:
        """The gas ``node`` charges, or ``None`` when it is not pure: when it
        calls, advances an iterator or costs what values decide.

        Pure are names that may be local, constants, ``+ - * // %``, one
        comparison other than ``in``, subscripts, and list and tuple displays.
        """
        if node not in self.costs:
            kind, parts = type(node), None
            if kind is ast.Constant or (kind is ast.Name and node.id in self.maybe_local):
                parts = ()
            elif kind is ast.BinOp and isinstance(node.op, _NATIVE_OPS):
                parts = (node.left, node.right)
            elif kind is ast.Compare and len(node.ops) == 1:
                if not isinstance(node.ops[0], (ast.In, ast.NotIn)):
                    parts = (node.left, node.comparators[0])
            elif kind is ast.Subscript:
                parts = (node.value, node.slice)
            elif kind is ast.List or kind is ast.Tuple:
                parts = node.elts
            costs = [None] if parts is None else [self.cost(part) for part in parts]
            self.costs[node] = None if None in costs else _GAS_EXPR + sum(costs)
        return self.costs[node]

    def _expr_Constant(self, node: ast.Constant) -> _Closure:
        value = node.value  # never a float: parse_contract rejects those

        def run(m, env, rt):
            used = m.used + _GAS_EXPR
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
            return value

        return run

    def _resolver(self, name: str) -> Callable[["Interpreter"], Any]:
        """The function ``name`` calls when no local holds it: host → builtins → contract."""
        kind, static = callee(name, self.functions)
        if kind == UNDEFINED:
            static = _MISSING

        def resolve(rt):
            hosts = rt.host_functions
            if name in hosts:
                return hosts[name]
            if static is _MISSING:
                raise ContractError(f"undefined name {name!r}")
            return static

        return resolve

    def _expr_Name(self, node: ast.Name) -> _Closure:
        """A name read as a value: only a parameter, local or module constant has one."""
        name = node.id
        resolve = self._resolver(name)

        def not_a_value(rt):
            resolve(rt)  # raises when nothing defines the name
            raise ContractError(f"function {name!r} can only be called")

        return self._load(name, not_a_value)

    def callee(self, node: ast.expr) -> _Closure:
        """What a call calls: a name the activation does not hold is resolved."""
        if not isinstance(node, ast.Name):
            return self.expr(node)
        return self._load(node.id, self._resolver(node.id))

    def _load(self, name: str, miss: Callable[["Interpreter"], Any]) -> _Closure:
        """``env[name]``, or ``miss(rt)`` when the activation does not hold ``name``."""
        if name not in self.maybe_local:

            def run_global(m, env, rt):
                used = m.used + _GAS_EXPR
                m.used = used
                if used > m.limit:
                    raise _out_of_gas(m)
                return miss(rt)

            return run_global

        def run(m, env, rt):
            used = m.used + _GAS_EXPR
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
            try:
                return env[name]
            except KeyError:
                return miss(rt)

        return run

    def _expr_BinOp(self, node: ast.BinOp) -> _Closure:
        op = _ALLOWED_BINOPS.get(type(node.op))
        if op is None:
            return _raising(_GAS_EXPR, f"disallowed operator {type(node.op).__name__}")
        surcharge = G.GAS_POW if isinstance(node.op, ast.Pow) else 0
        left = self.expr(node.left)
        right = self.expr(node.right)

        def run(m, env, rt):
            used = m.used + _GAS_EXPR
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
            if surcharge:
                m.charge(surcharge)
            a = left(m, env, rt)
            b = right(m, env, rt)
            try:
                result = op(a, b)
            except _VALUE_ERRORS as exc:
                raise _contract_error("arithmetic error", exc) from exc
            if isinstance(result, float):
                raise ContractError(_FLOAT_ERROR)
            return result

        return run

    def _expr_UnaryOp(self, node: ast.UnaryOp) -> _Closure:
        operand = self.expr(node.operand)
        op = _ALLOWED_UNARY.get(type(node.op))

        def run(m, env, rt):
            m.charge(_GAS_EXPR)
            value = operand(m, env, rt)
            if op is None:
                raise ContractError("disallowed unary operator")
            try:
                return op(value)
            except _VALUE_ERRORS as exc:
                raise _contract_error("arithmetic error", exc) from exc

        return run

    def _expr_BoolOp(self, node: ast.BoolOp) -> _Closure:
        values = tuple(self.expr(value) for value in node.values)
        stop_on = not isinstance(node.op, ast.And)  # ``or`` stops at the first truthy value

        def run(m, env, rt):
            m.charge(_GAS_EXPR)
            for value in values:
                result = value(m, env, rt)
                if bool(result) is stop_on:
                    return result
            return result

        return run

    def _expr_Compare(self, node: ast.Compare) -> _Closure:
        left = self.expr(node.left)
        links = tuple(
            (_COMPARE[type(op)], self.expr(comparator))
            for op, comparator in zip(node.ops, node.comparators)
        )

        def run(m, env, rt):
            used = m.used + _GAS_EXPR
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
            a = left(m, env, rt)
            for op, comparator in links:
                b = comparator(m, env, rt)
                try:
                    if not op(a, b):
                        return False
                except _VALUE_ERRORS as exc:
                    raise _contract_error("comparison error", exc) from exc
                a = b
            return True

        return run

    def _expr_Call(self, node: ast.Call) -> _Closure:
        func = self.callee(node.func)
        args = tuple(self.expr(arg) for arg in node.args)
        # ``f(**kw)`` parses; it fails when evaluation reaches it.
        keywords = tuple(
            (keyword.arg, self.expr(keyword.value)) for keyword in node.keywords
        )
        code = self.code

        def run(m, env, rt):
            used = m.used + _GAS_EXPR
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
            target = func(m, env, rt)
            positional = [arg(m, env, rt) for arg in args]
            named = {}
            for key, value in keywords:
                if key is None:
                    raise ContractError("**kwargs calls are not allowed")
                named[key] = value(m, env, rt)
            if isinstance(target, ast.FunctionDef):
                callee = code[target.name]
                # Positional values win over same-named keywords; surplus
                # positional values are dropped.
                named.update(zip(callee.params, positional))
                return callee.invoke(m, rt, named)
            if callable(target):
                m.charge(G.GAS_CALL)
                try:
                    result = target(*positional, **named)
                except _VALUE_ERRORS as exc:
                    raise _contract_error("call error", exc) from exc
                return _check_value(result)
            raise ContractError("attempt to call a non-function")

        return run

    def _expr_Subscript(self, node: ast.Subscript) -> _Closure:
        container = self.expr(node.value)
        key = self.expr(node.slice)

        def run(m, env, rt):
            used = m.used + _GAS_EXPR
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
            items = container(m, env, rt)
            index = key(m, env, rt)
            try:
                result = items[index]
            except _VALUE_ERRORS as exc:
                raise _contract_error("subscript error", exc) from exc
            if isinstance(result, float):
                raise ContractError(_FLOAT_ERROR)
            return result

        return run

    def _expr_Slice(self, node: ast.Slice) -> _Closure:
        lower = self.expr(node.lower) if node.lower else None
        upper = self.expr(node.upper) if node.upper else None
        step = self.expr(node.step) if node.step else None

        def run(m, env, rt):
            m.charge(_GAS_EXPR)
            return slice(
                lower(m, env, rt) if lower else None,
                upper(m, env, rt) if upper else None,
                step(m, env, rt) if step else None,
            )

        return run

    def _expr_List(self, node: ast.List) -> _Closure:
        elements = tuple(self.expr(element) for element in node.elts)

        def run(m, env, rt):
            m.charge(_GAS_EXPR)
            return [element(m, env, rt) for element in elements]

        return run

    def _expr_Tuple(self, node: ast.Tuple) -> _Closure:
        elements = tuple(self.expr(element) for element in node.elts)

        def run(m, env, rt):
            m.charge(_GAS_EXPR)
            return tuple([element(m, env, rt) for element in elements])

        return run

    def _expr_Dict(self, node: ast.Dict) -> _Closure:
        # ``{**d}`` parses with a ``None`` key; it fails when evaluation reaches it.
        pairs = tuple(
            (self.expr(key) if key is not None else None, self.expr(value))
            for key, value in zip(node.keys, node.values)
        )

        def run(m, env, rt):
            m.charge(_GAS_EXPR)
            out = {}
            for key, value in pairs:
                if key is None:
                    raise ContractError("dict unpacking is not allowed")
                item = value(m, env, rt)  # the value is evaluated before its key
                name = key(m, env, rt)
                try:
                    out[name] = item
                except TypeError as exc:
                    raise _contract_error("dict key error", exc) from exc
            return out

        return run

    def _expr_IfExp(self, node: ast.IfExp) -> _Closure:
        test = self.expr(node.test)
        body = self.expr(node.body)
        orelse = self.expr(node.orelse)

        def run(m, env, rt):
            m.charge(_GAS_EXPR)
            if test(m, env, rt):
                return body(m, env, rt)
            return orelse(m, env, rt)

        return run

    def _expr_JoinedStr(self, node: ast.JoinedStr) -> _Closure:
        # Literal segments cost nothing; conversions and format specs are ignored.
        parts: List[Any] = []
        for part in node.values:
            if isinstance(part, ast.Constant):
                parts.append(str(part.value))
            elif isinstance(part, ast.FormattedValue):
                parts.append(self.expr(part.value))

        def run(m, env, rt):
            m.charge(_GAS_EXPR)
            return "".join(
                [part if part.__class__ is str else _text(part(m, env, rt)) for part in parts]
            )

        return run


class Interpreter:
    """Runs one method call of a compiled contract against a gas meter."""

    def __init__(
        self,
        contract: ContractSource,
        host_functions: Dict[str, Callable[..., Any]],
        meter: GasMeter,
    ):
        self.contract = contract
        self.host_functions = host_functions
        self.meter = meter
        self.depth = 0

    def call(self, method: str, args: Dict[str, Any]) -> Any:
        """Invoke a public method with keyword arguments."""
        func = self.contract.code.get(method)
        if func is None or method.startswith("_"):
            raise ContractError(f"unknown or private method {method!r}")
        with trace_span("vm.call", method=method) as span:
            gas_before = self.meter.used
            try:
                return func.invoke(self.meter, self, args)
            finally:
                span.set_attr("gas", self.meter.used - gas_before)
