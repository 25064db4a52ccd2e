"""Differential testing of the MedScript VM.

Two references, two questions:

- **CPython.**  The VM claims to implement a strict subset of Python
  semantics.  The first half generates random programs inside that subset,
  runs them through the VM and through CPython, and requires identical
  results — the strongest available evidence that contract authors can rely
  on their Python intuition.
- **The tree-walking oracle** (``vm_oracle.py``).  The VM runs contracts
  lowered to closures, and pays the gas of call-free expressions in one
  sum; the walker it replaced charges node by node.  The second half
  requires the two to agree on everything consensus can see: the result,
  ``GasMeter.used``, the exception type and text, and the ordered log of
  host calls with the meter reading at each — on the shipped library, on
  generated programs that are allowed to fail, and at every gas limit from
  zero to the full cost.
"""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from vm_oracle import OracleInterpreter

from repro.chain.executor import ExecutionContext
from repro.chain.state import StateDB
from repro.common.errors import ContractError
from repro.contracts import library
from repro.contracts.runtime import HostBridge
from repro.contracts.vm import GasMeter, Interpreter, compile_contract

# -- expression generator ---------------------------------------------------

_INT = st.integers(min_value=-50, max_value=50)
_NONZERO = st.integers(min_value=1, max_value=20)


@st.composite
def arith_expression(draw, depth=0):
    """A random integer expression using only VM-supported operators."""
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            return str(draw(_INT))
        if choice == 1:
            return "x"
        return "y"
    op = draw(st.sampled_from(["+", "-", "*", "%", "//"]))
    left = draw(arith_expression(depth=depth + 1))
    right = draw(arith_expression(depth=depth + 1))
    if op in ("%", "//"):
        # Keep divisors provably nonzero.
        right = str(draw(_NONZERO))
    return f"({left} {op} {right})"


def run_vm(source, method, args):
    contract = compile_contract(source)
    meter = GasMeter(10_000_000)
    return Interpreter(contract, {}, meter).call(method, args)


def run_cpython(source, method, args):
    namespace = {}
    exec(source, namespace)  # trusted: generated by this test
    return namespace[method](**args)


class TestDifferentialExpressions:
    @settings(max_examples=120, deadline=None)
    @given(arith_expression(), _INT, _INT)
    def test_expressions_match_cpython(self, expression, x, y):
        source = f"def f(x, y):\n    return {expression}\n"
        assert run_vm(source, "f", {"x": x, "y": y}) == run_cpython(
            source, "f", {"x": x, "y": y}
        )

    @settings(max_examples=60, deadline=None)
    @given(arith_expression(), arith_expression(), _INT, _INT)
    def test_comparisons_match_cpython(self, left, right, x, y):
        source = (
            f"def f(x, y):\n"
            f"    if {left} < {right}:\n"
            f"        return 'lt'\n"
            f"    if {left} == {right}:\n"
            f"        return 'eq'\n"
            f"    return 'gt'\n"
        )
        assert run_vm(source, "f", {"x": x, "y": y}) == run_cpython(
            source, "f", {"x": x, "y": y}
        )


class TestDifferentialControlFlow:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
    )
    def test_loop_accumulation_matches(self, n, a, b):
        source = (
            "def f(n, a, b):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        if i % a == 0:\n"
            "            total = total + i * b\n"
            "        else:\n"
            "            total = total - i\n"
            "    return total\n"
        )
        args = {"n": n, "a": a, "b": b}
        assert run_vm(source, "f", args) == run_cpython(source, "f", args)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_INT, min_size=0, max_size=12))
    def test_list_processing_matches(self, values):
        source = (
            "def f(xs):\n"
            "    out = []\n"
            "    for v in xs:\n"
            "        if v >= 0:\n"
            "            out = out + [v * 2]\n"
            "    return [len(out), sum(out)]\n"
        )
        assert run_vm(source, "f", {"xs": values}) == run_cpython(
            source, "f", {"xs": values}
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]), _INT, min_size=0, max_size=4
        )
    )
    def test_dict_processing_matches(self, mapping):
        source = (
            "def f(d):\n"
            "    total = 0\n"
            "    for key in sorted(d):\n"
            "        total = total + d[key]\n"
            "    return total\n"
        )
        assert run_vm(source, "f", {"d": mapping}) == run_cpython(
            source, "f", {"d": mapping}
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=12))
    def test_while_with_break_matches(self, n):
        source = (
            "def f(n):\n"
            "    i = 0\n"
            "    total = 0\n"
            "    while True:\n"
            "        if i >= n:\n"
            "            break\n"
            "        if i % 3 == 1:\n"
            "            i = i + 1\n"
            "            continue\n"
            "        total = total + i\n"
            "        i = i + 1\n"
            "    return total\n"
        )
        assert run_vm(source, "f", {"n": n}) == run_cpython(source, "f", {"n": n})

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10))
    def test_recursion_matches(self, n):
        source = (
            "def f(n):\n"
            "    if n <= 1:\n"
            "        return 1\n"
            "    return n * f(n - 1)\n"
        )
        assert run_vm(source, "f", {"n": n}) == run_cpython(source, "f", {"n": n})

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_INT, min_size=1, max_size=8))
    def test_builtin_combinations_match(self, values):
        source = (
            "def f(xs):\n"
            "    ordered = sorted(xs)\n"
            "    return [min(xs), max(xs), ordered[0], ordered[len(xs) - 1], abs(xs[0])]\n"
        )
        assert run_vm(source, "f", {"xs": values}) == run_cpython(
            source, "f", {"xs": values}
        )


# -- compiled VM ≡ tree-walking oracle -----------------------------------------

FULL_GAS = 10_000_000
CONTEXT = ExecutionContext(block_height=7, timestamp_ms=1_700_000_000_000)


class LoggedHost:
    """A host function that records each call and the meter reading on entry."""

    def __init__(self, name, function, meter, calls):
        self.name, self.function, self.meter, self.calls = name, function, meter, calls

    def __call__(self, *positional, **named):
        self.calls.append((self.name, repr(positional), repr(named), self.meter.used))
        return self.function(*positional, **named)


def observe(vm_class, contract, method, args, gas=FULL_GAS, state=None, sender="alice", extra=None):
    """Everything consensus can see of one call: result, error, gas, host calls.

    The host functions are the runtime's real :class:`HostBridge` over
    ``state`` plus a free ``note`` and ``cap`` (see below); logging the meter reading at each call
    pins the order of gas charges against side effects.  A Python exception
    other than ``ContractError`` escapes and fails the test.
    """
    meter = GasMeter(gas)
    state = StateDB() if state is None else state
    events = []
    bridge = HostBridge(state, "c0ffee", sender, CONTEXT, meter, events)
    calls = []
    functions = dict(bridge.functions(), note=lambda *values: values[0] if values else None, cap=cap)
    functions.update(extra or {})
    hosts = {name: LoggedHost(name, fn, meter, calls) for name, fn in functions.items()}
    state.snapshot()
    try:
        result, error = vm_class(contract, hosts, meter).call(method, copy.deepcopy(args)), None
        state.commit()
    except ContractError as exc:  # OutOfGasError is one
        result, error = None, (type(exc).__name__, str(exc))
        state.rollback()
    return {
        "result": result,
        "error": error,
        "gas": meter.used,
        "calls": calls,
        "events": [(event.name, event.data) for event in events],
    }


def assert_same(
    source, method, args, gas=FULL_GAS, states=(None, None), sender="alice", extra=None
):
    """Run ``source`` (text, or already compiled) through both VMs; return what they saw."""
    contract = compile_contract(source) if isinstance(source, str) else source
    compiled = observe(Interpreter, contract, method, args, gas, states[0], sender, extra)
    oracle = observe(OracleInterpreter, contract, method, args, gas, states[1], sender, extra)
    assert compiled == oracle, f"{method}({args}) at gas limit {gas}:\n{contract.source}"
    return compiled


# Every public method of every shipped contract, on paths that succeed and on
# paths that a ``require`` stops: ``(sender, method, args)`` in order, each
# contract on its own state.
_PLACEMENT = ["s0", "s1", "s2"]
LIBRARY_SCENARIOS = {
    "DATA_REGISTRY_SOURCE": [
        ("alice", "register_dataset", {"dataset_id": "d1", "site": "s1", "schema": {"age": "int"}, "record_count": 10, "merkle_root": "aa"}),
        ("alice", "register_dataset", {"dataset_id": "d1", "site": "s1", "schema": {}, "record_count": 1, "merkle_root": "aa"}),
        ("alice", "register_dataset", {"dataset_id": "d2", "site": "s2", "schema": {}, "record_count": -1, "merkle_root": "bb"}),
        ("alice", "register_dataset", {"dataset_id": "d3", "site": "s3", "schema": {}, "record_count": 3, "merkle_root": "cc"}),
        ("alice", "update_anchor", {"dataset_id": "d1", "merkle_root": "dd", "record_count": 12}),
        ("bob", "update_anchor", {"dataset_id": "d1", "merkle_root": "ee", "record_count": 13}),
        ("alice", "update_anchor", {"dataset_id": "nope", "merkle_root": "ee", "record_count": 13}),
        ("alice", "get_dataset", {"dataset_id": "d1"}),
        ("alice", "list_datasets", {}),
        ("alice", "grant_access", {"dataset_id": "d1", "grantee": "carol", "purpose": "research", "expires_ms": 5000}),
        ("bob", "grant_access", {"dataset_id": "d1", "grantee": "carol", "purpose": "audit", "expires_ms": -1}),
        ("alice", "check_access", {"dataset_id": "d1", "grantee": "carol", "purpose": "research", "now_ms": 4000}),
        ("alice", "check_access", {"dataset_id": "d1", "grantee": "carol", "purpose": "research", "now_ms": 6000}),
        ("alice", "check_access", {"dataset_id": "d1", "grantee": "alice", "purpose": "any", "now_ms": 0}),
        ("alice", "check_access", {"dataset_id": "d1", "grantee": "dave", "purpose": "research", "now_ms": 0}),
        ("alice", "check_access", {"dataset_id": "nope", "grantee": "carol", "purpose": "research", "now_ms": 0}),
        ("bob", "revoke_access", {"dataset_id": "d1", "grantee": "carol", "purpose": "research"}),
        ("alice", "revoke_access", {"dataset_id": "d1", "grantee": "carol", "purpose": "research"}),
        ("alice", "revoke_access", {"dataset_id": "d1", "grantee": "carol", "purpose": "other"}),
        ("alice", "check_access", {"dataset_id": "d1", "grantee": "carol", "purpose": "research", "now_ms": 1}),
    ],
    "ANALYTICS_SOURCE": [
        ("alice", "register_tool", {"tool_id": "t1", "code_hash": "h1", "description": "cox model"}),
        ("alice", "register_tool", {"tool_id": "t1", "code_hash": "h2", "description": "dup"}),
        ("alice", "get_tool", {"tool_id": "t1"}),
        ("bob", "request_task", {"task_id": "k1", "tool_id": "t1", "dataset_ids": ["d1", "d2"], "params": {"alpha": 5}, "purpose": "research"}),
        ("bob", "request_task", {"task_id": "k1", "tool_id": "t1", "dataset_ids": [], "params": {}, "purpose": "again"}),
        ("bob", "request_task", {"task_id": "k2", "tool_id": "missing", "dataset_ids": [], "params": {}, "purpose": "x"}),
        ("bob", "request_task", {"task_id": "k3", "tool_id": "t1", "dataset_ids": ["d3"], "params": {}, "purpose": "y"}),
        ("carol", "post_result", {"task_id": "k1", "result_hash": "rh", "summary": {"n": 4}}),
        ("carol", "post_result", {"task_id": "k1", "result_hash": "rh", "summary": {}}),
        ("carol", "post_result", {"task_id": "zz", "result_hash": "rh", "summary": {}}),
        ("carol", "fail_task", {"task_id": "k3", "reason": "site offline"}),
        ("carol", "fail_task", {"task_id": "k3", "reason": "twice"}),
        ("alice", "get_task", {"task_id": "k1"}),
        ("alice", "get_task", {"task_id": "k3"}),
    ],
    "CLINICAL_TRIAL_SOURCE": [
        ("alice", "register_trial", {"trial_id": "T", "protocol_hash": "ph", "outcomes": ["mortality", "nihss"], "target_enrollment": 2}),
        ("alice", "register_trial", {"trial_id": "T", "protocol_hash": "ph", "outcomes": ["x"], "target_enrollment": 1}),
        ("alice", "register_trial", {"trial_id": "U", "protocol_hash": "ph", "outcomes": [], "target_enrollment": 1}),
        ("alice", "get_trial", {"trial_id": "T"}),
        ("bob", "enroll", {"trial_id": "T", "patient_pseudo_id": "p1", "site": "s1", "arm": "a"}),
        ("bob", "enroll", {"trial_id": "T", "patient_pseudo_id": "p1", "site": "s1", "arm": "a"}),
        ("bob", "enroll", {"trial_id": "V", "patient_pseudo_id": "p1", "site": "s1", "arm": "a"}),
        ("bob", "report_outcome", {"trial_id": "T", "patient_pseudo_id": "p1", "outcome": "nihss", "value_milli": 4200, "data_hash": "dh"}),
        ("bob", "report_outcome", {"trial_id": "T", "patient_pseudo_id": "p1", "outcome": "switched", "value_milli": 1, "data_hash": "dh"}),
        ("bob", "report_outcome", {"trial_id": "T", "patient_pseudo_id": "p9", "outcome": "nihss", "value_milli": 1, "data_hash": "dh"}),
        ("bob", "report_adverse_event", {"trial_id": "T", "patient_pseudo_id": "p1", "severity": 3, "description_hash": "eh"}),
        ("bob", "report_adverse_event", {"trial_id": "T", "patient_pseudo_id": "p1", "severity": 9, "description_hash": "eh"}),
        ("bob", "report_adverse_event", {"trial_id": "T", "patient_pseudo_id": "p1", "severity": "high", "description_hash": "eh"}),
        ("alice", "adverse_event_count", {"trial_id": "T"}),
        ("bob", "enroll", {"trial_id": "T", "patient_pseudo_id": "p2", "site": "s2", "arm": "b"}),
        ("bob", "enroll", {"trial_id": "T", "patient_pseudo_id": "p3", "site": "s2", "arm": "b"}),
        ("bob", "finalize", {"trial_id": "T", "results_hash": "rh"}),
        ("alice", "finalize", {"trial_id": "T", "results_hash": "rh"}),
        ("alice", "get_trial", {"trial_id": "T"}),
    ],
    "PATIENT_CONSENT_SOURCE": [
        ("p1", "check_consent", {"patient_pseudo_id": "p1", "scope": "research"}),
        ("p1", "set_consent", {"patient_pseudo_id": "p1", "scope": "research", "allow": False}),
        ("p2", "set_consent", {"patient_pseudo_id": "p2", "scope": "research", "allow": False}),
        ("p2", "set_consent", {"patient_pseudo_id": "p2", "scope": "research", "allow": False}),
        ("p1", "check_consent", {"patient_pseudo_id": "p1", "scope": "research"}),
        ("p1", "opted_out", {"scope": "research"}),
        ("p1", "optout_count", {"scope": "research"}),
        ("p1", "set_consent", {"patient_pseudo_id": "p1", "scope": "research", "allow": True}),
        ("p1", "opted_out", {"scope": "research"}),
        ("p1", "optout_count", {"scope": "other"}),
        ("p1", "set_consent", {"patient_pseudo_id": "p1", "scope": 5, "allow": True}),
    ],
    "BLOB_REGISTRY_SOURCE": [
        ("alice", "register_blob", {"blob_id": "b1", "merkle_root": "mr", "size": 4096, "chunk_size": 256, "k": 2, "n": 3, "stripes": 8, "placement": _PLACEMENT}),
        ("alice", "register_blob", {"blob_id": "b1", "merkle_root": "mr", "size": 1, "chunk_size": 1, "k": 1, "n": 1, "stripes": 1, "placement": ["s0"]}),
        ("alice", "register_blob", {"blob_id": "b2", "merkle_root": "mr", "size": 1, "chunk_size": 0, "k": 1, "n": 1, "stripes": 1, "placement": ["s0"]}),
        ("alice", "register_blob", {"blob_id": "b3", "merkle_root": "mr", "size": 1, "chunk_size": 1, "k": 3, "n": 2, "stripes": 1, "placement": ["s0", "s1"]}),
        ("alice", "register_blob", {"blob_id": "b4", "merkle_root": "mr", "size": 1, "chunk_size": 1, "k": 1, "n": 2, "stripes": 1, "placement": ["s0"]}),
        ("alice", "get_blob", {"blob_id": "b1"}),
        ("alice", "list_blobs", {}),
        ("bob", "report_audit", {"blob_id": "b1", "samples": 5, "verified": 5, "flagged_sites": []}),
        ("bob", "report_audit", {"blob_id": "b1", "samples": 5, "verified": 4, "flagged_sites": ["s1"]}),
        ("bob", "report_audit", {"blob_id": "b1", "samples": 5, "verified": 6, "flagged_sites": []}),
        ("bob", "report_audit", {"blob_id": "zz", "samples": 1, "verified": 1, "flagged_sites": []}),
        ("bob", "report_repair", {"blob_id": "b1", "restored": 2}),
        ("bob", "report_repair", {"blob_id": "b1", "restored": -1}),
        ("bob", "revoke_blob", {"blob_id": "b1"}),
        ("alice", "revoke_blob", {"blob_id": "b1"}),
        ("alice", "get_blob", {"blob_id": "b1"}),
    ],
    "COMPUTE_CONTRACT_SOURCE": [
        ("alice", "get_weights", {}),
        ("alice", "matmul", {"a": [[1, 2, 3], [4, 5, 6], [7, 8, 9]], "b": [[9, 8, 7], [6, 5, 4], [3, 2, 1]], "n": 3}),
        ("alice", "matmul", {"a": [[1, 2], [3, 4]], "b": [[1, 2]], "n": 2}),
        ("alice", "matmul", {"a": [[1, "x"], [3, 4]], "b": [[1, 2], [3, 4]], "n": 2}),
        ("alice", "train_step", {"features": [[1000, 2000], [3000, -1000], [500, 500]], "labels": [1, 0, 1], "weights": [100, -200], "lr_milli": 50}),
        ("alice", "train_step", {"features": [], "labels": [], "weights": [1], "lr_milli": 50}),
        ("alice", "get_weights", {}),
    ],
    "COUNTER_SOURCE": [
        ("alice", "init", {}),
        ("alice", "init", {"start": 40}),
        ("alice", "increment", {}),
        ("alice", "increment", {"by": 5}),
        ("alice", "increment", {"by": "five"}),
        ("alice", "increment", {"bye": 5}),
        ("alice", "get", {}),
    ],
}


class TestLibraryMatchesOracle:
    def test_every_library_contract_has_a_scenario(self):
        sources = {name for name in dir(library) if name.endswith("_SOURCE")}
        assert sources == set(LIBRARY_SCENARIOS)

    @pytest.mark.parametrize("name", sorted(LIBRARY_SCENARIOS))
    def test_scenario_matches(self, name):
        source = getattr(library, name)
        states = (StateDB(), StateDB())
        covered, failed = set(), 0
        for sender, method, args in LIBRARY_SCENARIOS[name]:
            seen = assert_same(source, method, args, states=states, sender=sender)
            covered.add(method)
            failed += seen["error"] is not None
        assert covered == set(compile_contract(source).methods)
        assert states[0].state_root() == states[1].state_root()
        assert failed, "a scenario must also take paths that fail"

    def test_host_functions_shadow_builtins_and_contract_functions(self):
        source = "def _mine(v):\n    return v\ndef f(v):\n    return [abs(v), _mine(v), len([v])]\n"
        extra = {"abs": lambda v: "host abs", "_mine": lambda v: "host _mine"}
        seen = assert_same(source, "f", {"v": -2}, extra=extra)
        assert seen["result"] == ["host abs", "host _mine", 1]

    def test_private_and_unknown_methods_are_refused_alike(self):
        source = "def _hidden():\n    return 1\ndef shown():\n    return _hidden()\n"
        for method in ("_hidden", "nope", "shown"):
            assert_same(source, method, {})


# A program generator that, unlike the CPython half, is free to go wrong:
# zero divisors, bad subscripts, type confusion, unbound and shadowed names,
# stray ``break``.  Failing identically is part of the contract.
#
# The VM's size cap still lets a value grow to 65 536 items for a few gas
# (``x = x + x`` in a loop), so every value a generated program stores goes
# through the ``cap`` host function, ``*`` and ``**`` take a literal operand,
# and the gas limit is small.  ``cap`` is logged like any host call, which
# also puts a side effect between most statements.

WILD_GAS = 20_000

PRELUDE = (
    "BIAS = 3\n"
    "TABLE = [5, 7, 11]\n"
    "def _scale(a, k=2, shift=0):\n"
    "    note('scale', a)\n"
    "    return cap(a * k) + shift + BIAS\n"
    "def _sum_to(n):\n"
    "    if n <= 0:\n"
    "        return 0\n"
    "    return n + _sum_to(n - 1)\n"
    "def _pair(a, b=[1]):\n"
    "    b[0] += a\n"
    "    return a, b[0]\n"
)


def cap(value, depth=0):
    """Host function: ``value`` cut down to a few small ints and short strings."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) < 1000 else value % 1000
    if isinstance(value, str):
        return value[:24]
    if isinstance(value, (list, tuple)):
        return type(value)(cap(item, depth + 1) for item in value[:4]) if depth < 2 else type(value)()
    if isinstance(value, dict):
        return {key: cap(item, depth + 1) for key, item in list(value.items())[:4]} if depth < 2 else {}
    return value


_LEAVES = (
    ["x", "acc", "n", "BIAS"] * 4
    + ["y", "items", "TABLE", "i"] * 2
    + ["'a'", "None", "True", "[]", "[1, 2]", "{'k': 1}", "ghost"]
)
# Function names appear in call position only; these are also assigned to.
_SHADOWED = ["len", "note", "_scale", "storage_get"]
_SMALL = st.sampled_from(["-1", "0", "1", "2", "3"])
# ``it`` is a local holding an iterator: a membership test uses it up, so an
# expression that reads it cannot be evaluated twice.  It is only ever tested,
# looped over, listed or (which fails the call) turned into text.
_ITERATORS = ["reversed(items)", "enumerate(items)", "zip(items, TABLE)", "reversed(TABLE)"]


@st.composite
def wild_expression(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return str(draw(st.integers(-4, 9)))
        return draw(st.sampled_from(_LEAVES))

    def sub():
        return draw(wild_expression(depth=depth + 1))

    kind = draw(st.integers(0, 15))
    if kind == 0:
        return f"({sub()} {draw(st.sampled_from(['+', '-', '//', '%', '&']))} {sub()})"
    if kind == 15:
        return draw(
            st.sampled_from(
                [
                    f"({sub()} in it)",
                    f"({sub()} not in it)",
                    f"([0, 'a'][{sub()} in it] + 1)",
                    "list(it)",
                    "str(it)",
                    'f"{it}"',
                ]
            )
        )
    if kind == 1:
        pair = [sub(), draw(_SMALL)]
        if draw(st.booleans()):
            pair.reverse()
        return f"({pair[0]} * {pair[1]})"
    if kind == 2:
        return f"({draw(wild_expression(depth=3))} ** {draw(_SMALL)})"
    if kind == 3:
        op = draw(st.sampled_from(["<", "<=", "==", "!=", ">", "in", "not in", "is"]))
        return f"({sub()} {op} {sub()})"
    if kind == 4:
        return f"({sub()} < {sub()} <= {sub()})"
    if kind == 5:
        return f"({sub()} {draw(st.sampled_from(['and', 'or']))} {sub()})"
    if kind == 6:
        return f"({draw(st.sampled_from(['-', '+', 'not ', '~']))}{sub()})"
    if kind == 7:
        return f"{draw(st.sampled_from(['items', 'TABLE', sub()]))}[{sub()}]"
    if kind == 8:
        return f"items[{sub()}:{sub()}]"
    if kind == 9:
        return f"({sub()} if {sub()} else {sub()})"
    if kind == 10:
        return draw(
            st.sampled_from([f"[{sub()}, {sub()}]", f"({sub()}, {sub()})", f"{{{sub()}: {sub()}}}"])
        )
    if kind == 11:
        # Leaves only: 3.11 cannot nest a quote inside an f-string replacement field.
        first, second = draw(wild_expression(depth=3)), draw(wild_expression(depth=3))
        return f'f"{{({first})}}-{{({second})!r}}"'
    if kind == 12:
        name = draw(st.sampled_from(["len", "abs", "str", "sorted", "min", "divmod", "int"]))
        return f"{name}({sub()})" if name != "divmod" else f"divmod({sub()}, {sub()})"
    if kind == 13:
        return draw(
            st.sampled_from(
                [
                    f"_scale({sub()})",
                    f"_scale({sub()}, {draw(_SMALL)})",
                    f"_scale({sub()}, shift={sub()})",
                    f"_scale(k={draw(_SMALL)}, a={sub()})",
                    f"_scale({sub()}, a={sub()})",
                    f"_scale(bogus={sub()})",
                    f"_sum_to({sub()})",
                    f"_pair({sub()})",
                    f"{draw(st.sampled_from(_SHADOWED))}({sub()})",
                ]
            )
        )
    return draw(
        st.sampled_from(
            [
                f"note({sub()})",
                f"storage_get({sub()}, {sub()})",
                f"storage_set('k', {sub()})",
                f"sha256_hex({sub()})",
                f"require({sub()}, 'stop')",
                "sender()",
            ]
        )
    )


def _indented(lines):
    return ["    " + line for line in lines]


@st.composite
def wild_block(draw, depth=0, in_loop=False):
    lines = []
    for __ in range(draw(st.integers(1, 3 if depth else 5))):
        kind = draw(st.integers(0, 13))
        expr = draw(wild_expression())
        target = draw(st.sampled_from(["x", "y", "acc", "n"]))
        if kind == 0:
            lines.append(f"{target} = cap({expr})")
        elif kind == 1:
            op = draw(st.sampled_from(["+=", "-=", "//=", "%=", "|="]))
            lines += [f"{target} {op} {expr}", f"{target} = cap({target})"]
        elif kind == 2:
            lines += [f"{target} {draw(st.sampled_from(['*=', '**=']))} {draw(_SMALL)}", f"{target} = cap({target})"]
        elif kind == 3:
            index = draw(wild_expression(depth=2))
            op = draw(st.sampled_from(["=", "+=", "-="]))
            lines += [f"items[{index}] {op} {expr}", "items = cap(items)"]
        elif kind == 4:
            other = draw(wild_expression(depth=2))
            lines.append(
                draw(
                    st.sampled_from(
                        [
                            f"x, y = cap({expr}), cap({other})",
                            f"x, y = cap({expr})",
                            f"[x, (y, acc)] = [cap({expr}), _pair(cap({other}))]",
                            f"x = y = cap({expr})",
                        ]
                    )
                )
            )
        elif kind == 5:
            lines.append(f"{draw(st.sampled_from(_SHADOWED))} = cap({expr})")
        elif kind == 6 and depth < 2:
            lines.append(f"if {expr}:")
            lines += _indented(draw(wild_block(depth + 1, in_loop)))
            if draw(st.booleans()):
                lines.append("else:")
                lines += _indented(draw(wild_block(depth + 1, in_loop)))
        elif kind == 7 and depth < 2:
            lines.append(
                draw(
                    st.sampled_from(
                        [
                            f"for i in range(({expr}) % 4):",
                            "for i in items:",
                            "for i, (x, y) in enumerate([(1, 2), (3, 4)]):",
                            f"for i in {expr}:",
                            "for i in {'a': 1, 'b': 2}:",
                            "for i in it:",
                        ]
                    )
                )
            )
            lines += _indented(draw(wild_block(depth + 1, True)))
            if draw(st.booleans()):
                lines.append("else:")
                lines += _indented(draw(wild_block(depth + 1, in_loop)))
        elif kind == 8 and depth < 2:
            lines += ["n = 0", f"while n < 3 and ({expr}):", "    n += 1"]
            lines += _indented(draw(wild_block(depth + 1, True)))
            if draw(st.booleans()):
                lines += ["else:", "    acc = cap(acc + 100)"]
        elif kind == 9 and (in_loop or draw(st.integers(0, 9)) == 0):
            lines.append(draw(st.sampled_from(["break", "continue"])))
        elif kind == 10:
            lines.append(
                draw(st.sampled_from([f"return {expr}", f"assert {expr}", f"assert {expr}, {expr}", "pass"]))
            )
        elif kind == 11:
            lines.append(f"emit('E', {{'v': {expr}}})")
        elif kind == 12:
            lines.append(f"it = {draw(st.sampled_from(_ITERATORS))}")
        else:
            lines.append(expr)
    return lines


@st.composite
def wild_program(draw):
    body = ["acc = 0", "n = 0", "i = 0", f"it = {draw(st.sampled_from(_ITERATORS))}"]
    body += draw(wild_block()) + ["return [acc, x, y, n, items]"]
    return PRELUDE + "def f(x, y, items):\n" + "".join(f"    {line}\n" for line in body)


_COPIED_FUNCTION = "def _h(a):\n    return a\ndef f(x, y, items):\n"
# One native region.  It binds each constant node's own value: inlined,
# CPython would fold equal constants into one object, and ``is`` would see
# it.  Its locals are named like the emitter's helpers, temporaries,
# counters and parameters, and stay the contract's own.
_IDENTITY_AND_NAMES = (
    "def f(x, y, items):\n"
    "    a = 100000\n"
    "    b = 100000\n"
    "    h_sized = a is b\n"
    "    l_x = (1, 2) is (1, 2)\n"
    "    k0 = 'k0'\n"
    "    t1 = x\n"
    "    n1 = 0\n"
    "    while n1 < 2:\n"
    "        n1 += 1\n"
    "        t1 = t1 + n1\n"
    "    g = t1 * 2\n"
    "    left = g\n"
    "    env = left\n"
    "    __builtins__ = [h_sized, l_x, k0, t1, n1, g, a is 100000]\n"
    "    return [__builtins__, left, env]\n"
)


class TestGeneratedProgramsMatchOracle:
    # No example count here: the active hypothesis profile sets it, so the
    # nightly ``ci-stress`` job runs these five times deeper than tier-1.
    @settings(deadline=None)
    @given(
        wild_program(),
        st.integers(-3, 6),
        st.sampled_from([0, 1, 2, "s", None]),
        st.lists(st.integers(-2, 5), min_size=0, max_size=4),
        st.sampled_from([WILD_GAS, WILD_GAS, 400, 150, 60]),
    )
    # Found by hypothesis (as ``storage_get(x, _scale)``) while a function name
    # was a value: the bridge handed each VM its own deep copy of the default,
    # and a copy printed its own address.  Now the read itself fails.
    @example(_COPIED_FUNCTION + "    return [storage_get(x, _h)]\n", 0, 0, [], WILD_GAS)
    @example(_COPIED_FUNCTION + "    return note(str(storage_get(x, _h)))\n", 0, 0, [], WILD_GAS)
    @example(_COPIED_FUNCTION + "    emit('E', {'v': f'{storage_get(y, _h)!r}'})\n", 0, 0, [], WILD_GAS)
    @example(_IDENTITY_AND_NAMES, 0, 0, [], WILD_GAS)
    def test_wild_programs_match(self, source, x, y, items, gas):
        assert_same(source, "f", {"x": x, "y": y, "items": items}, gas=gas)

    @settings(deadline=None)
    @given(
        wild_expression(),
        st.integers(-3, 6),
        st.sampled_from([0, 2, "s"]),
        st.sampled_from(_ITERATORS),
    )
    def test_wild_expressions_match(self, expression, x, y, iterator):
        source = PRELUDE + (
            "def f(x, y, items):\n    acc = 1\n    n = i = 0\n"
            f"    it = {iterator}\n    return {expression}\n"
        )
        assert_same(source, "f", {"x": x, "y": y, "items": [3, 1, 2]}, gas=WILD_GAS)


# Small programs for the exhaustive out-of-gas sweep.  Between them they run
# every statement and expression form and the corners where the walker's
# behaviour is easy to lose in a rewrite: host calls between charges, targets
# evaluated twice, values evaluated before keys, ``else`` after ``break``,
# arguments bound by position and by name, names that resolve differently at
# different times, and expressions that fail after part of them was paid for.
_HELPERS = (
    "LIMIT = 3\n"
    "def _twice(a, k=2):\n"
    "    return a * k\n"
    "def _grow(a, seen=[]):\n"
    "    seen[len(seen):] = [a]\n"
    "    return seen\n"
    "def _down(n):\n"
    "    return 0 if n <= 0 else 1 + _down(n - 1)\n"
)
_ARGS = {"x": 2, "items": [4, 5, 6]}
SWEEP_PROGRAMS = {
    "for_else_break_continue": (
        "def f(x, items):\n"
        "    total = 0\n"
        "    for i, v in enumerate(items + [1, 3, 7]):\n"
        "        if v % 2 == 0:\n"
        "            continue\n"
        "        total += v * x ** 2\n"
        "        if total > 40:\n"
        "            break\n"
        "    else:\n"
        "        total = -total\n"
        "    for v in items:\n"
        "        pass\n"
        "    else:\n"
        "        total = total + 1000\n"
        "    return total\n"
    ),
    "while_else_break": (
        "def f(x, items):\n"
        "    n = 0\n"
        "    while n < 5:\n"
        "        n += 1\n"
        "        if n == x:\n"
        "            break\n"
        "    else:\n"
        "        n = 100\n"
        "    m = 0\n"
        "    while m < 2:\n"
        "        m = m + 1\n"
        "        continue\n"
        "    else:\n"
        "        m = 200\n"
        "    return [n, m]\n"
    ),
    "break_in_else_leaves_outer_loop": (
        "def f(x, items):\n"
        "    out = []\n"
        "    for a in items:\n"
        "        for b in items:\n"
        "            if b > a:\n"
        "                break\n"
        "            out = out + [[a, b]]\n"
        "        else:\n"
        "            break\n"
        "        if a == 5:\n"
        "            return out\n"
        "    return len(out)\n"
    ),
    "storage_loop_and_unpacking": (
        _HELPERS + "def f(x, items):\n"
        "    entry = storage_get('e', {'n': 0, 'log': []})\n"
        "    while entry['n'] < LIMIT:\n"
        "        entry['n'] += _twice(x, k=1)\n"
        "        entry['log'] = entry['log'] + [f\"n={entry['n']}\"]\n"
        "    storage_set('e', entry)\n"
        "    a, (b, c) = items[0], (items[1], items[-1])\n"
        "    emit('Done', {'sum': a + b + c, 'neg': -a, 'ok': not a or b < c <= 9})\n"
        "    assert entry['n'] >= LIMIT, 'short'\n"
        "    return entry if a else None\n"
    ),
    "fails_after_partial_payment": (
        "def f(x, items):\n"
        "    y = items[0] + items[1] * x\n"
        "    z = (y - 1) // (x - 2) + items[x]\n"
        "    return z\n"
    ),
    "hash_slices_displays": (
        "def f(x, items):\n"
        "    require(x > 0, 'positive')\n"
        "    return sha256_hex([x, items[1:], items[::-1], {'k': (x, 'v')}, f'{x!r:>4}|{items}'])\n"
    ),
    "argument_binding": (
        _HELPERS + "def f(x, items):\n"
        "    out = [_twice(1), _twice(1, 5), _twice(1, k=7), _twice(k=3, a=2), _twice(1, a=9)]\n"
        "    return out + [_twice(1, 2, 3), _grow(1), _grow(2), _grow(3, [0])]\n"
    ),
    "missing_argument": (_HELPERS + "def f(x, items):\n    return _twice(k=1)\n"),
    "unexpected_argument": (_HELPERS + "def f(x, items):\n    return _twice(1, kk=2)\n"),
    "star_star_call": (_HELPERS + "def f(x, items):\n    return _twice(note(1), **{'k': note(2)})\n"),
    "dict_unpacking_display": ("def f(x, items):\n    return {'a': note(1), **{'b': 2}}\n"),
    "value_before_key_and_double_target": (
        "def f(x, items):\n"
        "    d = {note('k1'): note('v1'), note('k2'): note('v2')}\n"
        "    items[note(0) - 1] += note(10)\n"
        "    d[note('k3')] = note('v3')\n"
        "    return [d, items]\n"
    ),
    "name_resolution_moves": (
        _HELPERS + "def f(x, items):\n"
        "    out = [len(items), note(1), _twice(2), LIMIT]\n"
        "    if x > 1:\n"
        "        len = 7\n"
        "        LIMIT = 'local'\n"
        "    out = out + [len, LIMIT, _twice(-4)]\n"
        "    if x > 5:\n"
        "        _twice = 1\n"
        "    return out + [_twice(3), note(len)]\n"
    ),
    "function_read_as_value": (
        _HELPERS + "def f(x, items):\n"
        "    if x > 5:\n"
        "        _twice = 1\n"
        "    out = [_twice(x), note(x)]\n"
        "    return out + [_twice]\n"
    ),
    "text_of_data_only": (
        "def f(x, items):\n"
        "    note(str(items) + f'{x!r}' + '%s-%d' % (items, x))\n"
        "    return [note(str(x)), str(reversed(items))]\n"
    ),
    "aug_assign_needs_a_local": ("def f(x, items):\n    x += 1\n    len += 1\n    return x\n"),
    "short_circuits": (
        "def f(x, items):\n"
        "    a = note(0) or note('') or note(3) or note(4)\n"
        "    b = note(1) and note([]) and note(5)\n"
        "    c = note(1) < note(2) < note(2) < note(9)\n"
        "    d = note(7) if note(0) else note(8)\n"
        "    return [a, b, c, d, 1 in items, 4 in items, x is None, x is not None, not x]\n"
    ),
    "membership_uses_up_an_iterator": (
        "def f(x, items):\n"
        "    it = reversed(items)\n"
        "    a = [0, 1][4 in it] + (4 in it)\n"
        "    pairs = zip(items, items)\n"
        "    b = (5, 5) in pairs\n"
        "    rest = list(pairs)\n"
        "    it = enumerate(items)\n"
        "    return [a, b, rest, [0, 'a'][(0, 4) in it] + 1]\n"
    ),
    "call_depth_limit": (_HELPERS + "def f(x, items):\n    return [_down(5), _down(40)]\n"),
    "not_a_function": ("def f(x, items):\n    return items(1)\n"),
    "host_rejects_value": ("def f(x, items):\n    storage_set('k', 1)\n    storage_set('f', {1: items})\n"),
    "unsupported_statement": ("def f(x, items):\n    y = x\n    del y\n    return 1\n"),
    "unsupported_operators": ("def f(x, items):\n    y = ~x if x > 5 else 0\n    return x << y\n"),
    "stray_continue": ("def f(x, items):\n    if x:\n        continue\n    return 1\n"),
    "float_from_pow": ("def f(x, items):\n    y = x ** 2 + x ** 0\n    return [y, x ** -1 < 1]\n"),
    "float_inside_argument": ("def f(x, items):\n    return [items[0], items[1]]\n", {"x": 1, "items": [1, 2.5]}),
    "python_errors": (
        "def f(x, items):\n"
        "    for step in range(9):\n"
        "        if step == x:\n"
        "            a = -'a' if x == 0 else 0\n"
        "            b = 1 < 'a' if x == 1 else 0\n"
        "            items[9] = 1 if x == 2 else 0\n"
        "    return x\n",
        {"x": 1, "items": [0] * 10},
    ),
    # The fused forms' hazards: a pure expression whose unmetered run raises
    # must be replayed node by node, from the meter it started with.
    # ``%`` refuses to format an iterator with a ContractError, not a Python error.
    "mod_formats_an_iterator": (
        "def f(x, items):\n    it = reversed(items)\n    y = x % it\n    return y\n",
        {"x": "%s", "items": [4, 5, 6]},
    ),
    "unbound_local_in_a_fused_expression": (
        "def f(x, items):\n"
        "    if x > 5:\n"
        "        late = 1\n"
        "    y = items[0] * x + [x, 1][x - 2]\n"
        "    return (y - items[1]) * x + late\n"
    ),
    "subscript_fails_after_a_costly_left_operand": (
        "def f(x, items):\n"
        "    y = (items[0] * x + items[1] - items[2] // x) % 7\n"
        "    return y + (items[1] - items[0]) * [1, 2, 3][y + items[x]]\n"
    ),
    "size_cap": (
        "def f(x, items):\n"
        "    s = 'ab' * 32768\n"
        "    t = items * 21845\n"
        "    n = 2 ** 65535\n"
        "    out = [len(s), len(t + [x]), n * (x - 1) == n, len(s[1:] + 'c')]\n"
        "    return out + [len(t + items)]\n"
    ),
    # Native regions: the walk replays a region from its entry when it breaks the cap.
    "size_cap_in_a_region": (
        "def f(x, items):\n"
        "    s = 'ab'\n"
        "    k = 0\n"
        "    while k < 20:\n"
        "        s = s + s\n"
        "        k += 1\n"
        "    return k\n"
    ),
    "repetition_over_the_cap_in_a_region": (
        "def f(x, items):\n"
        "    t = items\n"
        "    while x < 9:\n"
        "        x += 1\n"
        "        if x > 4:\n"
        "            t = t * 30000\n"
        "    return x\n"
    ),
}
SWEEP_PROGRAMS = {
    name: program if isinstance(program, tuple) else (program, _ARGS)
    for name, program in SWEEP_PROGRAMS.items()
}


class TestOutOfGasPointMatchesOracle:
    @pytest.mark.parametrize("name", sorted(SWEEP_PROGRAMS))
    def test_every_limit_from_zero_to_full_cost(self, name):
        source, args = SWEEP_PROGRAMS[name]
        contract = compile_contract(source)
        full = assert_same(contract, "f", args)["gas"]
        out_of_gas = 0
        for limit in range(full + 2):
            seen = assert_same(contract, "f", args, gas=limit)
            if limit < full:
                assert seen["error"] is not None
                out_of_gas += seen["error"][0] == "OutOfGasError"
        assert out_of_gas > full // 2

    def test_matmul_strided(self):
        n = 5
        a = [[(i * j + 1) % 7 for j in range(n)] for i in range(n)]
        b = [[(i + j) % 5 for j in range(n)] for i in range(n)]
        args = {"a": a, "b": b, "n": n}
        contract = compile_contract(library.COMPUTE_CONTRACT_SOURCE)
        full = assert_same(contract, "matmul", args)["gas"]
        for limit in list(range(0, full, 7)) + [full - 1, full]:
            seen = assert_same(contract, "matmul", args, gas=limit)
            assert (seen["error"] is None) == (limit >= full)
