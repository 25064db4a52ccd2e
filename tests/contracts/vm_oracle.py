"""The MedScript tree-walker, kept as the oracle for the compiled VM.

This is the ``isinstance``-chain interpreter ``repro.contracts.vm`` shipped
before contracts were lowered to closures: it walks the ``ast`` of a
:class:`ContractSource` node by node and charges the meter one node at a
time.  It defines what a contract call means — result, gas, error text and
the order of host calls — and ``test_vm_differential.py`` holds the compiled
VM to it.  It is test code: nothing under ``src/`` imports it.

It shares the grammar, ``GasMeter`` and the definition of a value (what
``_text`` and ``_contract_error`` may print) with the VM (they are not what
is being checked) and
keeps its own operator tables, name resolution and list of convertible
errors.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Dict, List

from repro.common.errors import ContractError
from repro.contracts import gas as G
from repro.contracts.vm import (
    _PURE_BUILTINS,
    ContractSource,
    GasMeter,
    _check_format,
    _check_value,
    _contract_error,
    _literal,
    _text,
)


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


def _percent(a: Any, b: Any) -> Any:
    if isinstance(a, (str, bytes)):
        _text(b)  # string formatting prints ``b``
        _check_format(a, b)  # and is refused unbuilt past the size cap
    return a % b


_TOO_LARGE = f"arithmetic error: result over {G.MAX_VALUE_SIZE} items or bits"


def _size(value: Any) -> int:
    """Length of a str / bytes / list / tuple, bit length of an int, else 0."""
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, (str, bytes, list, tuple)):
        return len(value)
    return 0


def _capped(result: Any) -> Any:
    if _size(result) > G.MAX_VALUE_SIZE:
        raise ContractError(_TOO_LARGE)
    return result


def _plus(a: Any, b: Any) -> Any:
    if isinstance(a, int) and isinstance(b, int):
        return a + b  # one bit wider at most: never worth a check
    return _capped(a + b)


def _times(a: Any, b: Any) -> Any:
    # A repetition is sized before it is built.
    for items, count in ((a, b), (b, a)):
        if isinstance(count, int) and not isinstance(items, int):
            if _size(items) * count > G.MAX_VALUE_SIZE:
                raise ContractError(_TOO_LARGE)
    return _capped(a * b)


def _power(a: Any, b: Any) -> Any:
    # Sized before it is built when even the least it could be is too wide.
    if isinstance(a, int) and isinstance(b, int) and b > 0:
        if (a.bit_length() - 1) * b > G.MAX_VALUE_SIZE:
            raise ContractError(_TOO_LARGE)
    return _capped(a ** b)


_ALLOWED_BINOPS = {
    ast.Add: _plus,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: _times,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: _percent,
    ast.Pow: _power,
}

_ALLOWED_COMPARE = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
    ast.Is: lambda a, b: a is b,
    ast.IsNot: lambda a, b: a is not b,
}

_PYTHON_ERRORS = (
    TypeError,
    ValueError,
    ZeroDivisionError,
    OverflowError,
    KeyError,
    IndexError,
)

_END = object()


class OracleInterpreter:
    """Evaluates one method call of a compiled contract by walking its AST."""

    def __init__(
        self,
        contract: ContractSource,
        host_functions: Dict[str, Callable[..., Any]],
        meter: GasMeter,
    ):
        self.contract = contract
        self.host_functions = host_functions
        self.meter = meter
        self._depth = 0

    def call(self, method: str, args: Dict[str, Any]) -> Any:
        """Invoke a public method with keyword arguments."""
        func = self.contract.functions.get(method)
        if func is None or method.startswith("_"):
            raise ContractError(f"unknown or private method {method!r}")
        return self._invoke(func, args)

    def _invoke(self, func: ast.FunctionDef, args: Dict[str, Any]) -> Any:
        self._depth += 1
        if self._depth > G.MAX_CALL_DEPTH:
            raise ContractError("max call depth exceeded")
        self.meter.charge(G.GAS_CALL)
        params = [arg.arg for arg in func.args.args]
        defaults = func.args.defaults
        env: Dict[str, Any] = dict(self.contract.constants)
        # Bind defaults right-aligned, then override with provided args.
        for param, default in zip(params[len(params) - len(defaults):], defaults):
            env[param] = _literal(default)
        for param in params:
            if param in args:
                env[param] = _check_value(args[param])
        missing = [p for p in params if p not in env]
        if missing:
            raise ContractError(f"{func.name}: missing arguments {missing}")
        extra = set(args) - set(params)
        if extra:
            raise ContractError(f"{func.name}: unexpected arguments {sorted(extra)}")
        try:
            self._exec_block(func.body, env)
        except _ReturnSignal as signal:
            return signal.value
        except _BreakSignal:
            raise ContractError("'break' outside loop") from None
        except _ContinueSignal:
            raise ContractError("'continue' outside loop") from None
        finally:
            self._depth -= 1
        return None

    # -- statements ----------------------------------------------------------
    def _exec_block(self, body: List[ast.stmt], env: Dict[str, Any]) -> None:
        for stmt in body:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.stmt, env: Dict[str, Any]) -> None:
        self.meter.charge(G.GAS_STATEMENT)
        if isinstance(stmt, ast.Return):
            raise _ReturnSignal(
                self._eval(stmt.value, env) if stmt.value else None
            )
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, env)
            return
        if isinstance(stmt, ast.AugAssign):
            op = type(stmt.op)
            if op not in _ALLOWED_BINOPS:
                raise ContractError(f"disallowed operator {op.__name__}")
            current = self._eval_target(stmt.target, env)
            operand = self._eval(stmt.value, env)
            try:
                value = _ALLOWED_BINOPS[op](current, operand)
            except _PYTHON_ERRORS as exc:
                raise _contract_error("arithmetic error", exc) from exc
            self._assign(stmt.target, _check_value(value), env)
            return
        if isinstance(stmt, ast.If):
            branch = stmt.body if self._eval(stmt.test, env) else stmt.orelse
            self._exec_block(branch, env)
            return
        if isinstance(stmt, ast.While):
            iterations = 0
            while self._eval(stmt.test, env):
                iterations += 1
                if iterations > G.MAX_ITERATIONS_PER_LOOP:
                    raise ContractError("loop iteration limit exceeded")
                self.meter.charge(G.GAS_LOOP_ITERATION)
                try:
                    self._exec_block(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            else:
                self._exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, ast.For):
            iterable = self._eval(stmt.iter, env)
            try:
                iterator = iter(iterable)
            except TypeError as exc:
                raise _contract_error("iteration error", exc) from exc
            iterations = 0
            broke = False
            while True:
                try:
                    item = next(iterator, _END)
                except RuntimeError as exc:
                    raise _contract_error("iteration error", exc) from exc
                if item is _END:
                    break
                iterations += 1
                if iterations > G.MAX_ITERATIONS_PER_LOOP:
                    raise ContractError("loop iteration limit exceeded")
                self.meter.charge(G.GAS_LOOP_ITERATION)
                self._assign(stmt.target, _check_value(item), env)
                try:
                    self._exec_block(stmt.body, env)
                except _BreakSignal:
                    broke = True
                    break
                except _ContinueSignal:
                    continue
            if not broke:
                self._exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
            return
        if isinstance(stmt, ast.Pass):
            return
        if isinstance(stmt, ast.Break):
            raise _BreakSignal()
        if isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        if isinstance(stmt, ast.Assert):
            if not self._eval(stmt.test, env):
                message = self._eval(stmt.msg, env) if stmt.msg else "assertion failed"
                raise ContractError(_text(message))
            return
        raise ContractError(f"disallowed statement {type(stmt).__name__}")

    def _assign(self, target: ast.expr, value: Any, env: Dict[str, Any]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, ast.Subscript):
            container = self._eval(target.value, env)
            key = self._eval(target.slice, env)
            try:
                container[key] = value
            except _PYTHON_ERRORS as exc:
                raise _contract_error("subscript error", exc) from exc
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            try:
                values = list(value)
            except TypeError as exc:
                raise _contract_error("unpacking error", exc) from exc
            if len(values) != len(target.elts):
                raise ContractError("unpacking arity mismatch")
            for element, item in zip(target.elts, values):
                self._assign(element, _check_value(item), env)
            return
        raise ContractError(f"cannot assign to {type(target).__name__}")

    def _eval_target(self, target: ast.expr, env: Dict[str, Any]) -> Any:
        if isinstance(target, ast.Name):
            if target.id not in env:
                raise ContractError(f"undefined name {target.id!r}")
            return env[target.id]
        if isinstance(target, ast.Subscript):
            container = self._eval(target.value, env)
            key = self._eval(target.slice, env)
            try:
                return container[key]
            except _PYTHON_ERRORS as exc:
                raise _contract_error("subscript error", exc) from exc
        raise ContractError("invalid augmented-assignment target")

    # -- expressions ---------------------------------------------------------
    def _eval(self, node: ast.expr, env: Dict[str, Any]) -> Any:
        self.meter.charge(G.GAS_EXPRESSION)
        if isinstance(node, ast.Constant):
            return _check_value(node.value)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            self._resolve(node.id)
            raise ContractError(f"function {node.id!r} can only be called")
        if isinstance(node, ast.BinOp):
            op = type(node.op)
            if op not in _ALLOWED_BINOPS:
                raise ContractError(f"disallowed operator {op.__name__}")
            if op is ast.Pow:
                self.meter.charge(G.GAS_POW)
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            try:
                return _check_value(_ALLOWED_BINOPS[op](left, right))
            except _PYTHON_ERRORS as exc:
                raise _contract_error("arithmetic error", exc) from exc
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            try:
                if isinstance(node.op, ast.USub):
                    return -operand
                if isinstance(node.op, ast.UAdd):
                    return +operand
            except _PYTHON_ERRORS as exc:
                raise _contract_error("arithmetic error", exc) from exc
            if isinstance(node.op, ast.Not):
                return not operand
            raise ContractError("disallowed unary operator")
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                result: Any = True
                for value_node in node.values:
                    result = self._eval(value_node, env)
                    if not result:
                        return result
                return result
            for value_node in node.values:
                result = self._eval(value_node, env)
                if result:
                    return result
            return result
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, env)
            for op, comparator in zip(node.ops, node.comparators):
                right = self._eval(comparator, env)
                try:
                    if not _ALLOWED_COMPARE[type(op)](left, right):
                        return False
                except _PYTHON_ERRORS as exc:
                    raise _contract_error("comparison error", exc) from exc
                left = right
            return True
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Subscript):
            container = self._eval(node.value, env)
            key = self._eval(node.slice, env)
            try:
                return _check_value(container[key])
            except _PYTHON_ERRORS as exc:
                raise _contract_error("subscript error", exc) from exc
        if isinstance(node, ast.Slice):
            lower = self._eval(node.lower, env) if node.lower else None
            upper = self._eval(node.upper, env) if node.upper else None
            step = self._eval(node.step, env) if node.step else None
            return slice(lower, upper, step)
        if isinstance(node, ast.List):
            return [self._eval(element, env) for element in node.elts]
        if isinstance(node, ast.Tuple):
            return tuple(self._eval(element, env) for element in node.elts)
        if isinstance(node, ast.Dict):
            out = {}
            for key_node, value_node in zip(node.keys, node.values):
                if key_node is None:
                    raise ContractError("dict unpacking is not allowed")
                value = self._eval(value_node, env)  # Python evaluates it first
                key = self._eval(key_node, env)
                try:
                    out[key] = value
                except TypeError as exc:
                    raise _contract_error("dict key error", exc) from exc
            return out
        if isinstance(node, ast.IfExp):
            if self._eval(node.test, env):
                return self._eval(node.body, env)
            return self._eval(node.orelse, env)
        if isinstance(node, ast.JoinedStr):
            parts = []
            for value_node in node.values:
                if isinstance(value_node, ast.Constant):
                    parts.append(str(value_node.value))
                elif isinstance(value_node, ast.FormattedValue):
                    parts.append(_text(self._eval(value_node.value, env)))
            return "".join(parts)
        raise ContractError(f"disallowed expression {type(node).__name__}")

    def _resolve(self, name: str) -> Any:
        """The function ``name`` calls: host, builtin or contract function."""
        if name in self.host_functions:
            return self.host_functions[name]
        if name in _PURE_BUILTINS:
            return _PURE_BUILTINS[name]
        if name in self.contract.functions:
            return self.contract.functions[name]
        raise ContractError(f"undefined name {name!r}")

    def _eval_call(self, node: ast.Call, env: Dict[str, Any]) -> Any:
        if isinstance(node.func, ast.Name):
            self.meter.charge(G.GAS_EXPRESSION)
            name = node.func.id
            func = env[name] if name in env else self._resolve(name)
        else:
            func = self._eval(node.func, env)
        args = [self._eval(arg, env) for arg in node.args]
        kwargs = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                raise ContractError("**kwargs calls are not allowed")
            kwargs[keyword.arg] = self._eval(keyword.value, env)
        if isinstance(func, ast.FunctionDef):
            if kwargs:
                bound = dict(kwargs)
                params = [a.arg for a in func.args.args]
                for param, value in zip(params, args):
                    bound[param] = value
                return self._invoke(func, bound)
            params = [a.arg for a in func.args.args]
            return self._invoke(func, dict(zip(params, args)))
        if callable(func):
            self.meter.charge(G.GAS_CALL)
            try:
                return _check_value(func(*args, **kwargs))
            except ContractError:
                raise
            except _PYTHON_ERRORS as exc:
                raise _contract_error("call error", exc) from exc
        raise ContractError("attempt to call a non-function")
