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
- every AST node evaluated charges gas; storage and events cost extra.

No attribute access, no imports, no comprehensions, no closures over
mutable state: what remains is small enough to audit and big enough to be
Turing-complete (bounded by gas), matching the paper's "arbitrary
computation codes" framing.

Execution model: :func:`compile_contract` validates the module and then
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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.errors import ContractError, OutOfGasError
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


_ALLOWED_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
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
    "min": min,
    "max": max,
    "sum": sum,
    "abs": abs,
    "sorted": sorted,
    "int": int,
    "str": str,
    "bool": bool,
    "list": list,
    "dict": dict,
    "tuple": tuple,
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

_FLOAT_ERROR = "floats are forbidden in contracts (non-deterministic)"


def _check_value(value: Any) -> Any:
    """Reject non-deterministic value types (floats, sets, objects)."""
    if isinstance(value, float):
        raise ContractError(_FLOAT_ERROR)
    return value


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

    Top level may contain only function definitions and constant
    assignments.  Raises :class:`ContractError` on any disallowed syntax.
    """
    try:
        module = ast.parse(source)
    except SyntaxError as exc:
        raise ContractError(f"contract syntax error: {exc}") from exc
    compiled = ContractSource(source=source)
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            _validate_function(node)
            compiled.functions[node.name] = node
        elif isinstance(node, ast.Assign):
            if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
                raise ContractError("top-level assignments must bind a single name")
            compiled.constants[node.targets[0].id] = _literal(node.value)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # docstring
        else:
            raise ContractError(
                f"disallowed top-level statement: {type(node).__name__}"
            )
    if not compiled.functions:
        raise ContractError("contract defines no functions")
    # Lowered last: a closure binds the module's constants and sibling
    # functions, which may be defined below the function that names them.
    for name, func in compiled.functions.items():
        compiled.code[name] = _Function(func, compiled)
    return compiled


def _literal(node: ast.AST) -> Any:
    try:
        value = ast.literal_eval(node)
    except (ValueError, SyntaxError) as exc:
        raise ContractError("top-level constants must be literals") from exc
    return _check_value(value)


_DISALLOWED_IN_FUNCTIONS = (
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
)


def _validate_function(func: ast.FunctionDef) -> None:
    if func.args.vararg or func.args.kwarg or func.args.kwonlyargs:
        raise ContractError(
            f"{func.name}: only plain positional parameters are allowed"
        )
    for node in ast.walk(func):
        if isinstance(node, _DISALLOWED_IN_FUNCTIONS):
            raise ContractError(
                f"{func.name}: disallowed syntax {type(node).__name__}"
            )
        if isinstance(node, ast.FunctionDef) and node is not func:
            raise ContractError(f"{func.name}: nested functions are not allowed")
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            raise ContractError(f"{func.name}: float literals are forbidden")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            raise ContractError(f"{func.name}: use // (true division yields floats)")


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
# cost; the rest call it.

_Closure = Callable[["GasMeter", Dict[str, Any], "Interpreter"], Any]
_Store = Callable[[Any, "GasMeter", Dict[str, Any], "Interpreter"], None]

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
        # Only these names can ever be in ``env``; any other resolves straight
        # to host functions, builtins or contract functions.
        self.maybe_local = (
            {arg.arg for arg in func.args.args}
            | set(contract.constants)
            | {
                node.id
                for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
        )

    # -- statements ----------------------------------------------------------
    def block(self, body: Sequence[ast.stmt]) -> Optional[_Closure]:
        """Run statements in order until one signals; ``None`` for an empty block."""
        stmts = tuple(self.stmt(node) for node in body)
        if len(stmts) <= 1:
            return stmts[0] if stmts else None

        def run(m, env, rt):
            for stmt in stmts:
                signal = stmt(m, env, rt)
                if signal is not None:
                    return signal
            return None

        return run

    def stmt(self, node: ast.stmt) -> _Closure:
        lower = getattr(self, "_stmt_" + type(node).__name__, None)
        if lower is None:
            return _raising(_GAS_STMT, f"disallowed statement {type(node).__name__}")
        return lower(node)

    def _stmt_Return(self, node: ast.Return) -> _Closure:
        value = self.expr(node.value) if node.value else None

        def run(m, env, rt):
            used = m.used + _GAS_STMT
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
            return (value(m, env, rt),) if value else _RETURN_NONE

        return run

    def _stmt_Assign(self, node: ast.Assign) -> _Closure:
        value = self.expr(node.value)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id

            def run_name(m, env, rt):
                used = m.used + _GAS_STMT
                m.used = used
                if used > m.limit:
                    raise _out_of_gas(m)
                env[name] = value(m, env, rt)

            return run_name
        stores = tuple(self.store(target) for target in node.targets)

        def run(m, env, rt):
            used = m.used + _GAS_STMT
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
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
                    raise ContractError(f"subscript error: {exc}") from exc

        else:
            return _raising(_GAS_STMT, "invalid augmented-assignment target")

        def run(m, env, rt):
            m.charge(_GAS_STMT)
            current = load(m, env, rt)
            operand = value(m, env, rt)
            try:
                result = op(current, operand)
            except _VALUE_ERRORS as exc:
                raise ContractError(f"arithmetic error: {exc}") from exc
            store(_check_value(result), m, env, rt)

        return run

    def _stmt_If(self, node: ast.If) -> _Closure:
        test = self.expr(node.test)
        body = self.block(node.body)
        orelse = self.block(node.orelse)

        def run(m, env, rt):
            used = m.used + _GAS_STMT
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
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
                raise ContractError(f"iteration error: {exc}") from exc
            iterations = 0
            while True:
                try:
                    item = next(iterator, _MISSING)
                except RuntimeError as exc:  # dict resized by the loop body
                    raise ContractError(f"iteration error: {exc}") from exc
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
        value = self.expr(node.value)

        def run(m, env, rt):
            used = m.used + _GAS_STMT
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
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
                raise ContractError(str(text))

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
                    raise ContractError(f"subscript error: {exc}") from exc

            return store_item
        if isinstance(target, (ast.Tuple, ast.List)):
            stores = tuple(self.store(element) for element in target.elts)

            def store_unpacked(value, m, env, rt):
                try:
                    values = list(value)
                except TypeError as exc:
                    raise ContractError(f"unpacking error: {exc}") from exc
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
        lower = getattr(self, "_expr_" + type(node).__name__, None)
        if lower is None:
            return _raising(_GAS_EXPR, f"disallowed expression {type(node).__name__}")
        return lower(node)

    def _expr_Constant(self, node: ast.Constant) -> _Closure:
        value = node.value  # never a float: _validate_function rejects those

        def run(m, env, rt):
            used = m.used + _GAS_EXPR
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
            return value

        return run

    def _expr_Name(self, node: ast.Name) -> _Closure:
        name = node.id
        if name in _PURE_BUILTINS:
            static = _PURE_BUILTINS[name]
        else:
            static = self.functions.get(name, _MISSING)

        def resolve(rt):
            """Resolution below ``env``: host → builtins → contract functions."""
            hosts = rt.host_functions
            if name in hosts:
                return hosts[name]
            if static is _MISSING:
                raise ContractError(f"undefined name {name!r}")
            return static

        if name not in self.maybe_local:

            def run_global(m, env, rt):
                used = m.used + _GAS_EXPR
                m.used = used
                if used > m.limit:
                    raise _out_of_gas(m)
                return resolve(rt)

            return run_global

        def run(m, env, rt):
            used = m.used + _GAS_EXPR
            m.used = used
            if used > m.limit:
                raise _out_of_gas(m)
            try:
                return env[name]
            except KeyError:
                return resolve(rt)

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
                raise ContractError(f"arithmetic error: {exc}") from exc
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
                raise ContractError(f"arithmetic error: {exc}") from exc

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
                    raise ContractError(f"comparison error: {exc}") from exc
                a = b
            return True

        return run

    def _expr_Call(self, node: ast.Call) -> _Closure:
        func = self.expr(node.func)
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
                    raise ContractError(f"call error: {exc}") from exc
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
                raise ContractError(f"subscript error: {exc}") from exc
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
                    raise ContractError(f"dict key error: {exc}") from exc
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
                [part if part.__class__ is str else str(part(m, env, rt)) for part in parts]
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
