"""The contract IR's gas bound: soundness (bound >= metered usage) and loop bounds."""

import math

import pytest

from repro.analysis.contract_ir import build, format_gas
from repro.contracts import gas as G
from repro.contracts import library
from repro.contracts.vm import GasMeter, Interpreter, compile_contract, parse_contract


def estimate(source):
    """Worst-case gas of every public entrypoint of ``source``."""
    return build(parse_contract(source)).bounds()


def loop_bound(loop_source):
    """The IR's static bound of the one loop in ``loop_source``."""
    body = "".join(f"    {line}\n" for line in loop_source.splitlines())
    (function,) = build(parse_contract(f"def f(n, items):\n{body}")).functions.values()
    (loop,) = [node.loop for node in function.nodes if node.loop]
    return loop.bound


def metered_run(source, method, args=None, hosts=None):
    contract = compile_contract(source)
    meter = GasMeter(100_000_000)
    interpreter = Interpreter(contract, hosts or {}, meter)
    result = interpreter.call(method, args or {})
    return result, meter


#: Loops and their static bounds; each runs exactly that many times.
LOOP_BOUNDS = [
    ("for i in range(10):\n    pass", 10),
    ("for i in range(2, 12):\n    pass", 10),
    ("for i in range(0, 10, 3):\n    pass", 4),
    ("for i in range(10, 0, -2):\n    pass", 5),
    ("for i in [1, 2, 3]:\n    pass", 3),
    ("for c in 'abcd':\n    pass", 4),
    ("while False:\n    pass", 0),
]


class TestLoopBounds:
    @pytest.mark.parametrize("loop_source,expected", LOOP_BOUNDS)
    def test_static_bounds(self, loop_source, expected):
        assert loop_bound(loop_source) == expected

    def test_dynamic_loops_use_vm_ceiling(self):
        for loop_source in (
            "for i in range(n):\n    pass",
            "for item in items:\n    pass",
            "while n > 0:\n    pass",
            "for i in range(10 ** 9):\n    pass",  # past the ceiling, the VM stops the loop there
        ):
            assert loop_bound(loop_source) == G.MAX_ITERATIONS_PER_LOOP

    @pytest.mark.parametrize("loop_source,expected", LOOP_BOUNDS)
    def test_static_bounds_are_tight(self, loop_source, expected):
        """Each loop runs its bound exactly: the bound of the whole function
        is what the meter reads."""
        source = "def f(n, items):\n" + "".join(f"    {line}\n" for line in loop_source.splitlines())
        _, meter = metered_run(source, "f", {"n": 0, "items": []})
        assert estimate(source)["f"] == meter.used


class TestSoundness:
    """The bound must never be below what the GasMeter observes."""

    def test_straight_line_function(self):
        source = "def f(a, b):\n    c = a + b\n    return c * 2\n"
        _, meter = metered_run(source, "f", {"a": 3, "b": 4})
        assert estimate(source)["f"] >= meter.used

    def test_static_loop(self):
        source = (
            "def f():\n"
            "    total = 0\n"
            "    for i in range(50):\n"
            "        total = total + i\n"
            "    return total\n"
        )
        _, meter = metered_run(source, "f")
        assert estimate(source)["f"] >= meter.used

    def test_branches_use_max(self):
        source = (
            "def f(flag):\n"
            "    if flag:\n"
            "        return 1\n"
            "    x = 1 + 2 + 3 + 4\n"
            "    return x\n"
        )
        est = estimate(source)["f"]
        for flag in (True, False):
            _, meter = metered_run(source, "f", {"flag": flag})
            assert est >= meter.used

    def test_internal_calls_memoized_and_counted(self):
        source = (
            "def _helper(x):\n"
            "    return x * 2\n"
            "def f(a):\n"
            "    return _helper(a) + _helper(a + 1)\n"
        )
        _, meter = metered_run(source, "f", {"a": 5})
        ir = build(parse_contract(source))
        assert ir.bound("f") >= meter.used
        assert ir.bound("f") == meter.used  # straight-line code: the bound is exact

    def test_library_counter_contract(self):
        storage = {}
        hosts = {
            "storage_get": lambda k, d=None: storage.get(k, d),
            "storage_set": lambda k, v: storage.__setitem__(k, v),
            "emit": lambda *a, **kw: None,
            "require": lambda cond, msg="": None,
            "sender": lambda: "addr",
        }
        est = estimate(library.COUNTER_SOURCE)
        _, meter = metered_run(
            library.COUNTER_SOURCE, "increment", {"by": 3}, hosts=hosts
        )
        assert est["increment"] >= meter.used

    def test_recursion_is_unbounded(self):
        source = "def f(n):\n    return f(n - 1)\n"
        assert math.isinf(estimate(source)["f"])

    def test_private_helpers_excluded_from_entrypoints(self):
        source = "def _h():\n    return 1\ndef f():\n    return _h()\n"
        assert set(estimate(source)) == {"f"}


def test_format_gas():
    assert format_gas(1234567) == "1,234,567"
    assert format_gas(math.inf) == "unbounded"
