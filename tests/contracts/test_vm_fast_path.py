"""The VM's fused expressions against the tree-walking oracle, at every gas limit.

A call-free expression whose gas is fixed when it is compiled (names,
constants, ``+ - * // %``, one comparison other than ``in``, subscripts, list
and tuple displays) runs unmetered and pays its whole charge in one check;
when the meter is short or the unmetered run raises, the node-by-node walk
runs instead, from the same meter.  The grammar below generates only such
expressions, over the values that make that replay hard: strings that
format, dicts, an iterator, a tuple and a name the activation may not hold.
Each one is placed where the lowering fuses it (an assignment, a tuple
assignment, an ``if`` / ``while`` test, a ``return``, an argument, an
augmented assignment) or inside a native region (a ``while`` with ``break``
and ``continue``, nested loops, ``while ... else``, arms that bind different
names, a list ``+=``) and run at every gas limit from zero to its full cost.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_vm_differential import assert_same

from repro.common.errors import OutOfGasError
from repro.contracts import vm
from repro.contracts.vm import GasMeter, Interpreter, compile_contract

# ``it`` twice: an iterator is what a replay must not see changed.
_LEAVES = ["n", "s", "xs", "d", "it", "it", "t", "ghost", "0", "1", "-2", "5", "'a'", "'%s'", "None", "True"]
_FORMATS = ["s", "'%s'", "'%d'", "'%s-%s'"]


@st.composite
def pure_expression(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(_LEAVES))

    def sub():
        return draw(pure_expression(depth + 1))

    kind = draw(st.integers(0, 4))
    if kind == 0:
        return f"({sub()} {draw(st.sampled_from(['+', '-', '*', '//', '%']))} {sub()})"
    if kind == 4:  # ``%`` formats its right operand: text of data only, else a ContractError
        return f"({draw(st.sampled_from(_FORMATS))} % {sub()})"
    if kind == 1:
        op = draw(st.sampled_from(["<", "<=", "==", "!=", ">", ">=", "is", "is not"]))
        return f"({sub()} {op} {sub()})"
    if kind == 2:
        return f"{sub()}[{sub()}]"
    return draw(st.sampled_from([f"[{sub()}, {sub()}]", f"({sub()}, {sub()})", f"[{sub()}]"]))


# Where the lowering puts a fused expression; ``{}`` is the expression.
_CONTEXTS = [
    "y = {}",
    "y, w = {}, n",
    "if {}:\n        y = 1\n    else:\n        y = 2",
    "while {}:\n        y = 3\n        break",
    "return {}",
    "y = len([{}]) + _same({})",
    "y = n\n    y += {}",
    # Native regions: each runs as one compiled function, or is walked from its entry.
    "k = 0\n    while k < 3:\n        k += 1\n        if k == 1:\n            continue\n"
    "        y = {}\n        if k > n:\n            break",
    "i = 0\n    while i < 2:\n        j = 0\n        while j < 2:\n"
    "            y = [y, {}]\n            j += 1\n        i += 1",
    # ``w`` is unbound when the region leaves through the first arm.
    "if {}:\n        u = n\n    else:\n        w = {}\n    y = _same(w)",
    "k = 0\n    while k < n:\n        k += 1\n        if k == 2:\n            break\n"
    "    else:\n        y = {}",
    # A list ``+=`` rebinds: ``u`` keeps the list ``y`` held before.
    "y = [n]\n    u = y\n    y += [{}]\n    y *= 2\n    y = [y, u]",
]


def program(expression, context):
    """``f`` runs ``context`` in ``_body``, then shows ``y`` as text and what is left of ``it``."""
    statement = context.format(expression, expression)
    return (
        "def _same(v):\n"
        "    return v\n"
        "def _body(n, s, xs, d, it):\n"
        "    t = (n, s)\n"
        "    if n > 100:\n"
        "        ghost = n\n"
        "    y = None\n"
        f"    {statement}\n"
        "    return y\n"
        "def f(n, s, xs, d):\n"
        "    it = reversed(xs)\n"
        "    y = _body(n, s, xs, d, it)\n"
        "    return [str(y), list(it)]\n"
    )


# Half the profile's examples: each one runs both VMs at every gas limit.
@settings(max_examples=max(1, settings.default.max_examples // 2), deadline=None)
@given(
    pure_expression(),
    st.sampled_from(_CONTEXTS),
    st.integers(-3, 6),
    st.sampled_from(["%s", "ab", "%d", ""]),
    st.lists(st.integers(-2, 5), max_size=3),
    st.sampled_from([{}, {"a": 1}, {"a": [1, "k"], "k": "a"}]),
)
# The first fused prototype replayed only Python errors: ``%``'s ContractError
# for an iterator escaped with the expression's charges unpaid.
@example("(s % it)", "y = {}", 0, "%s", [4, 5, 6], {})
def test_fused_expression_at_every_gas_limit(expression, context, n, s, xs, d):
    contract = compile_contract(program(expression, context))
    args = {"n": n, "s": s, "xs": xs, "d": d}
    full = assert_same(contract, "f", args)["gas"]
    for limit in range(full + 1):
        assert_same(contract, "f", args, gas=limit)


@pytest.fixture
def native_sums(monkeypatch):
    """Every sequence ``+`` that a compiled region runs (the walk sizes its own)."""
    sized, original = [], vm._GLOBALS["h_sized"]
    monkeypatch.setitem(vm._GLOBALS, "h_sized", lambda value: sized.append(value) or original(value))
    return sized


def test_a_region_gives_up_once_its_gas_is_spent(native_sums):
    """A region's loop pays each iteration before running it and stops when the
    gas left is spent, not at the size cap or the iteration limit; the walk takes over."""
    contract = compile_contract("def f(s):\n    while True:\n        s = s + 'a'\n    return s\n")
    with pytest.raises(OutOfGasError):
        Interpreter(contract, {}, GasMeter(1000)).call("f", {"s": ""})
    # An iteration costs 9: the loop 3, the test 1, the statement 2 and ``s + 'a'`` 3.
    assert 0 < len(native_sums) <= 1000 // 9


def test_a_region_runs_no_segment_it_cannot_pay(native_sums):
    """A loop-free region pays its whole segment before running any of it: a
    short meter gives up at entry, however long the segment is."""
    lines = "    s = s + 'a'\n" * 2000
    contract = compile_contract(f"def f(s):\n{lines}    return s\n")
    with pytest.raises(OutOfGasError):
        Interpreter(contract, {}, GasMeter(100)).call("f", {"s": ""})
    assert native_sums == []
    assert Interpreter(contract, {}, GasMeter(10**6)).call("f", {"s": ""}) == "a" * 2000
    assert len(native_sums) == 2000


@pytest.mark.parametrize("depth", [20, 21, 30])
def test_loops_nested_deeper_than_cpython_compiles(depth):
    """CPython refuses a function with more than 20 nested loops (a SyntaxError):
    a region nested deeper is walked, with the same result and gas."""
    loops = [f"{'    ' * (level + 1)}while x < {level + 2}:" for level in range(depth)]
    body = ["def f(x):", *loops, "    " * (depth + 1) + "x = x + 1", "    return x"]
    contract = compile_contract("\n".join(body) + "\n")
    full = assert_same(contract, "f", {"x": 1})
    assert full["result"] == depth + 1
    for limit in range(full["gas"] + 1):
        assert_same(contract, "f", {"x": 1}, gas=limit)
