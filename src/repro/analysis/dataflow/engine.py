"""Flow-sensitive taint walker for the PHI escape analysis.

One walker serves both domains:

- **module mode** — a ``repro`` python module (or example).  Sources and
  sinks come from the catalog's call tables; functions whose name is passed
  to a ``registry.register("method", handler)`` call additionally get their
  return value treated as an RPC-response sink.
- **contract mode** — a MedScript contract module.  PHI enters through
  cataloged parameter names; ``storage_set`` / ``emit`` / ``require``
  messages and public-method return values (receipts) are the sinks.

Statements are interpreted in order (flow-sensitive); branches apply the
union of their effects to one environment (path-insensitive); loop bodies
run twice so first-order feedback (``acc = acc + row``) converges.  Names
bound to one another share a :class:`~repro.analysis.dataflow.lattice.Cell`,
so mutating a container through any alias taints every name that can reach
it (MED204).

Precision stance (the zero-false-positive dogfood gate): a call the
analysis cannot see inside returns UNKNOWN when any argument carries
provenance — never CLEAN (sound), but UNKNOWN is not reported at sinks
(precise).  Only flows proved end-to-end become findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dataflow import catalog
from repro.analysis.dataflow.lattice import (
    CLEAN,
    Cell,
    Level,
    STEP_CALL,
    STEP_CONTAINER,
    STEP_FORMAT,
    STEP_SANITIZER_BYPASS,
    STEP_SINK,
    STEP_SOURCE,
    Taint,
    TaintStep,
    join_all,
)
from repro.analysis.dataflow.summaries import (
    DEFAULT_MAX_CALL_DEPTH,
    FunctionSummary,
    ParamSinkFlow,
    UNKNOWN_SUMMARY,
)

#: Accessor methods that read *out of* a tainted container and therefore
#: carry its taint (``record.get("note")``, ``record.items()``).
_TAINT_ACCESSORS = frozenset(
    {"get", "copy", "items", "values", "keys", "pop", "popitem"}
)


@dataclass(frozen=True)
class Flow:
    """One complete source→sink flow, before rule-code assignment."""

    sink_kind: str
    steps: Tuple[TaintStep, ...]  # source first, sink last
    line: int
    col: int
    symbol: str  # enclosing function


class TaintEngine:
    """Taint analysis over one parsed module (python or MedScript)."""

    def __init__(
        self,
        tree: ast.Module,
        *,
        contract_mode: bool = False,
        max_depth: int = DEFAULT_MAX_CALL_DEPTH,
    ):
        self.tree = tree
        self.contract_mode = contract_mode
        self.max_depth = max_depth
        # Top-level functions are the interprocedural summary universe —
        # bare-name calls resolve here; everything else is opaque.
        self.functions: Dict[str, ast.FunctionDef] = {
            node.name: node
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
        self._summaries: Dict[str, FunctionSummary] = {}
        self._in_progress: Set[str] = set()
        self.rpc_handlers: Dict[str, str] = (
            {} if contract_mode else self._collect_rpc_handlers(tree)
        )
        self.flows: List[Flow] = []

    # -- public entrypoints ------------------------------------------------
    def run(self) -> List[Flow]:
        """Analyze every function definition in the module; return flows."""
        for func in self._all_functions():
            walker = _FlowWalker(self, func, summary_mode=False)
            walker.analyze()
        return self._dedup(self.flows)

    def summary_for(self, name: str) -> FunctionSummary:
        """Memoized summary of a top-level function (cycles -> unknown)."""
        if name in self._summaries:
            return self._summaries[name]
        func = self.functions.get(name)
        if func is None or name in self._in_progress:
            return UNKNOWN_SUMMARY
        if len(self._in_progress) >= self.max_depth:
            return UNKNOWN_SUMMARY
        self._in_progress.add(name)
        try:
            walker = _FlowWalker(self, func, summary_mode=True)
            summary = walker.summarize()
        finally:
            self._in_progress.discard(name)
        self._summaries[name] = summary
        return summary

    # -- helpers -----------------------------------------------------------
    def _all_functions(self) -> List[ast.FunctionDef]:
        return [
            node
            for node in ast.walk(self.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    @staticmethod
    def _collect_rpc_handlers(tree: ast.Module) -> Dict[str, str]:
        """Function names registered as RPC methods -> wire method name."""
        handlers: Dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            if name != "register" or len(node.args) < 2:
                continue
            method, target = node.args[0], node.args[1]
            if (
                isinstance(method, ast.Constant)
                and isinstance(method.value, str)
                and isinstance(target, ast.Name)
            ):
                handlers[target.id] = method.value
        return handlers

    @staticmethod
    def _dedup(flows: List[Flow]) -> List[Flow]:
        seen: Set[Tuple[int, int, str, Tuple[Tuple[str, int], ...]]] = set()
        out: List[Flow] = []
        for flow in flows:
            key = (
                flow.line,
                flow.col,
                flow.sink_kind,
                tuple((s.kind, s.line) for s in flow.steps),
            )
            if key in seen:
                continue
            seen.add(key)
            out.append(flow)
        return out


class _FlowWalker:
    """Flow-sensitive interpretation of one function body."""

    def __init__(self, engine: TaintEngine, func: ast.FunctionDef, *, summary_mode: bool):
        self.engine = engine
        self.func = func
        self.summary_mode = summary_mode
        self.env: Dict[str, Cell] = {}
        self.return_taint: Taint = CLEAN
        self.param_sink_flows: List[ParamSinkFlow] = []
        all_args = list(func.args.posonlyargs) + list(func.args.args) + list(
            func.args.kwonlyargs
        )
        for arg in all_args:
            self.env[arg.arg] = Cell(self._param_taint(arg))
        if func.args.vararg is not None:
            self.env[func.args.vararg.arg] = Cell(self._param_taint(func.args.vararg))
        if func.args.kwarg is not None:
            self.env[func.args.kwarg.arg] = Cell(self._param_taint(func.args.kwarg))

    def _param_taint(self, arg: ast.arg) -> Taint:
        if self.engine.contract_mode and catalog.is_phi_param(arg.arg):
            step = TaintStep(
                kind=STEP_SOURCE,
                detail=f"parameter {arg.arg!r} carries raw patient data "
                "(PHI parameter catalog)",
                line=self.func.lineno,
            )
            return Taint(level=Level.TAINTED, steps=(step,))
        if self.summary_mode:
            return Taint(params=frozenset({arg.arg}))
        return CLEAN

    # -- entrypoints -------------------------------------------------------
    def analyze(self) -> None:
        self._block(self.func.body)
        # Contract public methods: the return value lands in the receipt,
        # which every node stores — a chain-boundary sink.
        # (handled per return statement; nothing further here)

    def summarize(self) -> FunctionSummary:
        self._block(self.func.body)
        return FunctionSummary(
            name=self.func.name,
            returns=self.return_taint,
            param_sink_flows=tuple(self.param_sink_flows),
        )

    # -- statement interpretation -----------------------------------------
    def _block(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                old = self._taint_of_name(stmt.target.id)
                self.env[stmt.target.id] = Cell(old.join(value))
            else:
                self._mutate_target(stmt.target, value, "augmented assignment")
        elif isinstance(stmt, ast.Return):
            self._return(stmt)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taint = self._eval(stmt.iter)
            self._bind_target(stmt.target, iter_taint)
            # Two passes so first-order loop feedback converges.
            self._block(stmt.body)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, taint)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = Cell(CLEAN)
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        # Nested defs/classes are analyzed as their own functions by the
        # engine; imports, pass, assert, global/nonlocal have no data flow
        # the lattice tracks (assert conditions are boolean).
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)

    def _assign(self, targets: List[ast.expr], value: ast.expr) -> None:
        # Plain name-to-name assignment aliases the cell (container
        # aliasing); so does binding a name to a subscript/attribute of an
        # aliased name — ``rows = batch["rows"]`` must share batch's cell.
        for target in targets:
            if isinstance(target, ast.Name):
                cell = self._alias_cell(value)
                if cell is not None:
                    self.env[target.id] = cell
                else:
                    self.env[target.id] = Cell(self._eval(value))
            elif isinstance(target, (ast.Tuple, ast.List)):
                taint = self._eval(value)
                for elt in target.elts:
                    self._bind_target(elt, taint)
            else:
                self._mutate_target(target, self._eval(value), "item assignment")

    def _alias_cell(self, value: ast.expr) -> Optional[Cell]:
        """Cell shared with ``value`` when it is a name or a projection of
        one (``x``, ``x["k"]``, ``x.attr``); None when not aliasable."""
        node = value
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if isinstance(node, ast.Subscript) and self._is_safe_projection(
                node
            ):
                return None  # projected out of the PHI payload
            node = node.value
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        return None

    @staticmethod
    def _is_safe_projection(node: ast.Subscript) -> bool:
        """``rec["patient_id"]``-style constant-key projection to a
        pseudonymous identifier / digest / count (see catalog)."""
        return (
            isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and catalog.is_safe_projection(node.slice.value)
        )

    def _bind_target(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = Cell(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taint)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taint)
        else:
            self._mutate_target(target, taint, "item assignment")

    def _mutate_target(self, target: ast.expr, value: Taint, how: str) -> None:
        """A write through a subscript/attribute taints the base's cell."""
        cell = self._alias_cell(target)
        if cell is None:
            return
        base = target
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        name = base.id if isinstance(base, ast.Name) else "<expr>"
        cell.absorb(
            value,
            TaintStep(
                kind=STEP_CONTAINER,
                detail=f"stored into container {name!r} via {how}",
                line=getattr(target, "lineno", 0),
            ),
        )

    def _return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            return
        taint = self._eval(stmt.value)
        if self.summary_mode:
            self.return_taint = self.return_taint.join(taint)
            return
        # Reporting mode: returns are sinks for RPC handlers (module mode)
        # and for public contract methods (receipts are replicated).
        if self.engine.contract_mode:
            if not self.func.name.startswith("_"):
                self._report(
                    taint,
                    sink_kind="contract return value (receipt, replicated "
                    "chain state)",
                    detail=f"return value of contract method "
                    f"{self.func.name}()",
                    node=stmt,
                )
        else:
            method = self.engine.rpc_handlers.get(self.func.name)
            if method is not None:
                self._report(
                    taint,
                    sink_kind="rpc response payload",
                    detail=f"response payload of RPC method {method!r}",
                    node=stmt,
                )

    # -- expression evaluation --------------------------------------------
    def _taint_of_name(self, name: str) -> Taint:
        cell = self.env.get(name)
        return cell.taint if cell is not None else CLEAN

    def _eval(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Constant):
            return CLEAN
        if isinstance(node, ast.Name):
            return self._taint_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return self._eval(node.value)
        if isinstance(node, ast.Subscript):
            if self._is_safe_projection(node):
                return self._eval(node.slice)
            return self._eval(node.value).join(self._eval(node.slice))
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left).join(self._eval(node.right))
        if isinstance(node, ast.BoolOp):
            return join_all([self._eval(v) for v in node.values])
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            # Comparisons yield booleans — an aggregate, not the data.
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return CLEAN
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body).join(self._eval(node.orelse))
        if isinstance(node, ast.JoinedStr):
            parts = []
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    parts.append(self._eval(value.value))
            joined = join_all(parts)
            return joined.with_step(
                TaintStep(
                    kind=STEP_FORMAT,
                    detail="interpolated into an f-string",
                    line=node.lineno,
                )
            )
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return join_all([self._eval(elt) for elt in node.elts])
        if isinstance(node, ast.Dict):
            parts = [self._eval(v) for v in node.values]
            parts.extend(self._eval(k) for k in node.keys if k is not None)
            return join_all(parts)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comprehension(node.generators, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._comprehension(node.generators, [node.key, node.value])
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value)
        if isinstance(node, ast.Yield):
            return self._eval(node.value) if node.value is not None else CLEAN
        if isinstance(node, ast.NamedExpr):
            taint = self._eval(node.value)
            self._bind_target(node.target, taint)
            return taint
        if isinstance(node, ast.Lambda):
            return CLEAN
        return CLEAN

    def _comprehension(
        self, generators: List[ast.comprehension], exprs: List[ast.expr]
    ) -> Taint:
        saved: Dict[str, Optional[Cell]] = {}
        bound: List[str] = []
        for gen in generators:
            iter_taint = self._eval(gen.iter)
            for sub in ast.walk(gen.target):
                if isinstance(sub, ast.Name):
                    if sub.id not in saved:
                        saved[sub.id] = self.env.get(sub.id)
                        bound.append(sub.id)
                    self.env[sub.id] = Cell(iter_taint)
            for cond in gen.ifs:
                self._eval(cond)
        result = join_all([self._eval(expr) for expr in exprs])
        for name in bound:
            prior = saved[name]
            if prior is None:
                self.env.pop(name, None)
            else:
                self.env[name] = prior
        return result

    # -- calls -------------------------------------------------------------
    def _call(self, node: ast.Call) -> Taint:
        name = self._callee_name(node)
        arg_taints = [self._eval(arg) for arg in node.args]
        kw_taints = {
            kw.arg: self._eval(kw.value) for kw in node.keywords
        }  # kw.arg None (**kwargs) keys fine in a dict
        all_args = arg_taints + list(kw_taints.values())
        receiver = (
            self._eval(node.func.value)
            if isinstance(node.func, ast.Attribute)
            else CLEAN
        )

        if name is None:
            return self._opaque(all_args + [receiver])

        # 1. Sanitizers: digests, anchors, aggregation, encryption.
        if name in catalog.SANITIZER_CALL_NAMES or self._dotted_sanitizer(node):
            return CLEAN
        # 2. Declared sanitizers: trusted unless provably leaky (MED205).
        if catalog.is_declared_sanitizer(name):
            return self._declared_sanitizer(node, name, arg_taints, kw_taints)
        # 3. Sources.
        if name in catalog.SOURCE_CALL_NAMES:
            step = TaintStep(
                kind=STEP_SOURCE,
                detail=catalog.source_description(name),
                line=node.lineno,
            )
            return Taint(level=Level.TAINTED, steps=(step,))
        # 4. Sinks.
        sink = (
            catalog.contract_sink_kind(name)
            if self.engine.contract_mode
            else catalog.sink_kind(name)
        )
        if sink is not None:
            for taint in all_args:
                self._report(
                    taint,
                    sink_kind=sink,
                    detail=f"argument of {name}() [{sink}]",
                    node=node,
                )
            return CLEAN
        # 5. Local top-level functions: apply the interprocedural summary.
        if isinstance(node.func, ast.Name) and name in self.engine.functions:
            return self._apply_summary(node, name, arg_taints, kw_taints)
        # 6. Aggregating builtins reduce to boundary-safe scalars.
        if name in catalog.AGGREGATING_BUILTINS:
            return CLEAN
        # 7. String coercion: propagates, and is MED202's mechanism.
        if name in catalog.FORMAT_CALLS:
            return join_all(all_args).with_step(
                TaintStep(
                    kind=STEP_FORMAT,
                    detail=f"stringified via {name}()",
                    line=node.lineno,
                )
            )
        # 8. Shape-preserving helpers propagate unchanged.
        if name in catalog.PROPAGATING_CALLS:
            return join_all(all_args + [receiver])
        # 9. Container mutators fold argument taint into the receiver cell.
        if (
            isinstance(node.func, ast.Attribute)
            and name in catalog.MUTATOR_METHODS
        ):
            cell = self._alias_cell(node.func.value)
            if cell is not None:
                base = node.func.value
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                label = base.id if isinstance(base, ast.Name) else "<expr>"
                cell.absorb(
                    join_all(all_args),
                    TaintStep(
                        kind=STEP_CONTAINER,
                        detail=f"aliased into container {label!r} via "
                        f".{name}()",
                        line=node.lineno,
                    ),
                )
            return CLEAN
        # 10. Accessors on a tainted receiver read the data back out.
        if (
            isinstance(node.func, ast.Attribute)
            and name in _TAINT_ACCESSORS
            and receiver.level is not Level.CLEAN
        ):
            return receiver
        # 11. Opaque call: UNKNOWN when provenance flows in, else CLEAN.
        return self._opaque(all_args + [receiver])

    @staticmethod
    def _callee_name(node: ast.Call) -> Optional[str]:
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def _dotted_sanitizer(self, node: ast.Call) -> bool:
        """``DatasetAnchor.build(...)``-style two-level dotted sanitizers."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
            return False
        dotted = f"{func.value.id}.{func.attr}"
        return dotted in catalog.SANITIZER_DOTTED_SUFFIXES

    def _opaque(self, taints: List[Taint]) -> Taint:
        joined = join_all(taints)
        if joined.level is Level.CLEAN and not joined.params:
            return CLEAN
        # Provenance enters a call we cannot see inside: poison to UNKNOWN
        # (never CLEAN), drop parameter deps (nothing is *proved* through).
        return Taint(level=Level.UNKNOWN, steps=joined.steps)

    def _declared_sanitizer(
        self,
        node: ast.Call,
        name: str,
        arg_taints: List[Taint],
        kw_taints: Dict[Optional[str], Taint],
    ) -> Taint:
        summary = (
            self.engine.summary_for(name)
            if name in self.engine.functions
            else None
        )
        if summary is None or summary.unknown or not summary.leaks_params_to_return:
            return CLEAN  # trusted (opaque or provably clean)
        bound = self._bind_args(name, node, arg_taints, kw_taints)
        passed = join_all(
            [bound.get(param, CLEAN) for param in summary.returns.params]
        )
        if summary.returns.tainted:
            passed = passed.join(
                Taint(level=Level.TAINTED, steps=summary.returns.steps)
            )
        if passed.level is Level.CLEAN and not passed.params:
            return CLEAN
        return passed.with_step(
            TaintStep(
                kind=STEP_SANITIZER_BYPASS,
                detail=f"declared sanitizer {name}() provably passes PHI "
                "through (re-identification risk)",
                line=node.lineno,
            )
        )

    def _bind_args(
        self,
        name: str,
        node: ast.Call,
        arg_taints: List[Taint],
        kw_taints: Dict[Optional[str], Taint],
    ) -> Dict[str, Taint]:
        func = self.engine.functions[name]
        params = [arg.arg for arg in func.args.args]
        bound: Dict[str, Taint] = {}
        for param, taint in zip(params, arg_taints):
            bound[param] = taint
        for kw, taint in kw_taints.items():
            if kw is not None:
                bound[kw] = taint
        return bound

    def _apply_summary(
        self,
        node: ast.Call,
        name: str,
        arg_taints: List[Taint],
        kw_taints: Dict[Optional[str], Taint],
    ) -> Taint:
        summary = self.engine.summary_for(name)
        if summary.unknown:
            return self._opaque(arg_taints + list(kw_taints.values()))
        bound = self._bind_args(name, node, arg_taints, kw_taints)
        call_step = TaintStep(
            kind=STEP_CALL,
            detail=f"through helper {name}()",
            line=node.lineno,
        )
        # Arguments that reach a sink inside the callee (MED203 when the
        # argument is tainted here).
        for flow in summary.param_sink_flows:
            arg = bound.get(flow.param, CLEAN)
            if arg.tainted:
                self._emit_flow(
                    sink_kind=flow.sink_kind,
                    steps=arg.steps + (call_step,) + flow.steps,
                    node=node,
                )
            elif self.summary_mode and arg.params:
                for param in arg.params:
                    self.param_sink_flows.append(
                        ParamSinkFlow(
                            param=param,
                            sink_kind=flow.sink_kind,
                            steps=arg.steps + (call_step,) + flow.steps,
                        )
                    )
        # Return taint: the callee's parameter deps substituted with the
        # actual arguments, plus any fresh source taint picked up inside.
        result = CLEAN
        for param in summary.returns.params:
            arg = bound.get(param, CLEAN)
            if arg.level is not Level.CLEAN or arg.params:
                result = result.join(arg.with_step(call_step))
        if summary.returns.level is not Level.CLEAN:
            result = result.join(
                Taint(
                    level=summary.returns.level,
                    steps=summary.returns.steps + (call_step,),
                )
            )
        return result

    # -- reporting ---------------------------------------------------------
    def _report(
        self, taint: Taint, *, sink_kind: str, detail: str, node: ast.AST
    ) -> None:
        sink_step = TaintStep(
            kind=STEP_SINK,
            detail=detail,
            line=getattr(node, "lineno", 0),
        )
        if taint.tainted:
            if self.summary_mode:
                # Complete source→sink flows inside one function are
                # reported when that function is analyzed directly.
                return
            self._emit_flow(
                sink_kind=sink_kind, steps=taint.steps + (sink_step,), node=node
            )
        elif self.summary_mode and taint.params:
            for param in taint.params:
                self.param_sink_flows.append(
                    ParamSinkFlow(
                        param=param,
                        sink_kind=sink_kind,
                        steps=taint.steps + (sink_step,),
                    )
                )

    def _emit_flow(
        self, *, sink_kind: str, steps: Tuple[TaintStep, ...], node: ast.AST
    ) -> None:
        self.engine.flows.append(
            Flow(
                sink_kind=sink_kind,
                steps=steps,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                symbol=self.func.name,
            )
        )
