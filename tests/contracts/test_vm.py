"""MedScript VM tests: compilation, execution, determinism, gas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ContractError, OutOfGasError
from repro.contracts.vm import GasMeter, Interpreter, compile_contract


def run(source, method, args=None, gas=10_000_000, hosts=None):
    contract = compile_contract(source)
    meter = GasMeter(gas)
    interpreter = Interpreter(contract, hosts or {}, meter)
    return interpreter.call(method, args or {}), meter


class TestCompilation:
    def test_simple_function_compiles(self):
        compiled = compile_contract("def f():\n    return 1\n")
        assert compiled.methods == ["f"]

    def test_top_level_constants(self):
        compiled = compile_contract("LIMIT = 10\ndef f():\n    return LIMIT\n")
        assert compiled.constants == {"LIMIT": 10}

    def test_docstring_allowed(self):
        compile_contract('"""doc"""\ndef f():\n    return 0\n')

    def test_no_functions_rejected(self):
        with pytest.raises(ContractError):
            compile_contract("X = 1\n")

    def test_import_rejected(self):
        with pytest.raises(ContractError):
            compile_contract("def f():\n    import os\n    return 1\n")

    def test_attribute_access_rejected(self):
        with pytest.raises(ContractError):
            compile_contract("def f(x):\n    return x.append(1)\n")

    def test_float_literal_rejected(self):
        with pytest.raises(ContractError):
            compile_contract("def f():\n    return 1.5\n")

    def test_true_division_rejected(self):
        with pytest.raises(ContractError):
            compile_contract("def f():\n    return 4 / 2\n")

    def test_lambda_rejected(self):
        with pytest.raises(ContractError):
            compile_contract("def f():\n    g = lambda: 1\n    return g()\n")

    def test_comprehension_rejected(self):
        with pytest.raises(ContractError):
            compile_contract("def f():\n    return [i for i in range(3)]\n")

    def test_nested_function_rejected(self):
        with pytest.raises(ContractError):
            compile_contract("def f():\n    def g():\n        return 1\n    return g()\n")

    def test_syntax_error_wrapped(self):
        with pytest.raises(ContractError):
            compile_contract("def f(:\n")

    def test_private_methods_hidden(self):
        compiled = compile_contract(
            "def _helper():\n    return 1\ndef public():\n    return _helper()\n"
        )
        assert compiled.methods == ["public"]


class TestExecution:
    def test_arithmetic(self):
        result, __ = run("def f(a, b):\n    return a * b + a % b\n", "f", {"a": 7, "b": 3})
        assert result == 22

    def test_floor_division(self):
        result, __ = run("def f():\n    return 7 // 2\n", "f")
        assert result == 3

    def test_while_loop(self):
        source = "def f(n):\n    total = 0\n    i = 0\n    while i < n:\n        total = total + i\n        i = i + 1\n    return total\n"
        result, __ = run(source, "f", {"n": 10})
        assert result == 45

    def test_for_loop_over_range(self):
        source = "def f(n):\n    total = 0\n    for i in range(n):\n        total = total + i\n    return total\n"
        result, __ = run(source, "f", {"n": 5})
        assert result == 10

    def test_break_and_continue(self):
        source = (
            "def f():\n"
            "    total = 0\n"
            "    for i in range(10):\n"
            "        if i == 3:\n"
            "            continue\n"
            "        if i == 6:\n"
            "            break\n"
            "        total = total + i\n"
            "    return total\n"
        )
        result, __ = run(source, "f")
        assert result == 0 + 1 + 2 + 4 + 5

    def test_dict_and_list_literals(self):
        source = "def f():\n    d = {'a': [1, 2]}\n    d['a'] = d['a'] + [3]\n    return d\n"
        result, __ = run(source, "f")
        assert result == {"a": [1, 2, 3]}

    def test_tuple_unpacking(self):
        result, __ = run("def f():\n    a, b = 1, 2\n    return a + b\n", "f")
        assert result == 3

    def test_conditional_expression(self):
        result, __ = run("def f(x):\n    return 'big' if x > 5 else 'small'\n", "f", {"x": 9})
        assert result == "big"

    def test_builtin_whitelist(self):
        source = "def f(xs):\n    return [len(xs), min(xs), max(xs), sum(xs)]\n"
        result, __ = run(source, "f", {"xs": [3, 1, 2]})
        assert result == [3, 1, 3, 6]

    def test_string_concat_and_fstring(self):
        result, __ = run('def f(name):\n    return f"hi {name}"\n', "f", {"name": "bob"})
        assert result == "hi bob"

    def test_user_function_calls(self):
        source = "def _double(x):\n    return 2 * x\ndef f(x):\n    return _double(x) + 1\n"
        result, __ = run(source, "f", {"x": 5})
        assert result == 11

    def test_recursion_bounded(self):
        source = "def f(n):\n    if n <= 0:\n        return 0\n    return f(n - 1)\n"
        with pytest.raises(ContractError):
            run(source, "f", {"n": 100})

    def test_default_arguments(self):
        result, __ = run("def f(x=4):\n    return x\n", "f")
        assert result == 4

    def test_missing_argument_rejected(self):
        with pytest.raises(ContractError):
            run("def f(x):\n    return x\n", "f")

    def test_unexpected_argument_rejected(self):
        with pytest.raises(ContractError):
            run("def f():\n    return 1\n", "f", {"bogus": 1})

    def test_unknown_method_rejected(self):
        with pytest.raises(ContractError):
            run("def f():\n    return 1\n", "g")

    def test_private_method_not_callable_externally(self):
        with pytest.raises(ContractError):
            run("def _f():\n    return 1\ndef g():\n    return 2\n", "_f")

    def test_undefined_name_rejected(self):
        with pytest.raises(ContractError):
            run("def f():\n    return mystery\n", "f")

    def test_division_by_zero_wrapped(self):
        with pytest.raises(ContractError):
            run("def f():\n    return 1 // 0\n", "f")

    def test_float_argument_rejected(self):
        with pytest.raises(ContractError):
            run("def f(x):\n    return x\n", "f", {"x": 1.5})

    def test_assert_statement(self):
        with pytest.raises(ContractError):
            run("def f(x):\n    assert x > 0, 'must be positive'\n    return x\n", "f", {"x": -1})

    def test_is_none_comparison(self):
        result, __ = run("def f(x):\n    return x is None\n", "f", {"x": None})
        assert result is True

    def test_host_function_invocation(self):
        result, __ = run(
            "def f():\n    return magic(3)\n", "f", hosts={"magic": lambda x: x * 10}
        )
        assert result == 30


class TestGas:
    def test_gas_consumed(self):
        __, meter = run("def f():\n    return 1 + 1\n", "f")
        assert meter.used > 0

    def test_out_of_gas_raised(self):
        source = "def f():\n    i = 0\n    while i < 100000:\n        i = i + 1\n    return i\n"
        with pytest.raises(OutOfGasError):
            run(source, "f", gas=500)

    def test_gas_monotone_in_work(self):
        source = "def f(n):\n    total = 0\n    for i in range(n):\n        total = total + i\n    return total\n"
        __, small = run(source, "f", {"n": 10})
        __, big = run(source, "f", {"n": 100})
        assert big.used > small.used

    def test_same_inputs_same_gas(self):
        source = "def f(n):\n    total = 0\n    for i in range(n):\n        total = total + i * i\n    return total\n"
        __, a = run(source, "f", {"n": 50})
        __, b = run(source, "f", {"n": 50})
        assert a.used == b.used

    def test_loop_gas_exhaustion_mid_iteration(self):
        """Gas runs dry part-way through a loop, not only at loop heads."""
        source = "def f(n):\n    total = 0\n    for i in range(n):\n        total = total + i\n    return total\n"
        __, m10 = run(source, "f", {"n": 10})
        __, m20 = run(source, "f", {"n": 20})
        per_iteration = (m20.used - m10.used) // 10
        # Enough for ~15.5 iterations: the meter must trip inside the 16th.
        limit = m10.used + 5 * per_iteration + per_iteration // 2
        contract = compile_contract(source)
        meter = GasMeter(limit)
        interpreter = Interpreter(contract, {}, meter)
        with pytest.raises(OutOfGasError):
            interpreter.call("f", {"n": 1000})
        # The failing charge is recorded and the budget is fully spent.
        assert meter.used > meter.limit
        assert meter.remaining == 0
        # It got past the 10-iteration run's usage before dying.
        assert meter.used > m10.used


class TestStorageSubscripts:
    @staticmethod
    def make_hosts(storage):
        return {
            "storage_get": lambda key, default=None: storage.get(key, default),
            "storage_set": lambda key, value: storage.__setitem__(key, value),
        }

    def test_augmented_assign_on_storage_dict_entry(self):
        source = (
            "def bump(k):\n"
            '    entry = storage_get(k, {"n": 0})\n'
            '    entry["n"] += 5\n'
            "    storage_set(k, entry)\n"
            '    return entry["n"]\n'
        )
        storage = {}
        hosts = self.make_hosts(storage)
        first, __ = run(source, "bump", {"k": "acct"}, hosts=hosts)
        assert first == 5
        assert storage["acct"] == {"n": 5}
        second, __ = run(source, "bump", {"k": "acct"}, hosts=hosts)
        assert second == 10
        assert storage["acct"] == {"n": 10}

    def test_augmented_assign_on_list_subscript(self):
        source = (
            "def rotate(k):\n"
            "    values = storage_get(k, [1, 2, 3])\n"
            "    values[0] += values[2]\n"
            "    storage_set(k, values)\n"
            "    return values[0]\n"
        )
        storage = {}
        result, __ = run(source, "rotate", {"k": "v"}, hosts=self.make_hosts(storage))
        assert result == 4
        assert storage["v"] == [4, 2, 3]

    def test_augmented_subscript_charges_gas_deterministically(self):
        source = (
            "def bump(k):\n"
            '    entry = storage_get(k, {"n": 0})\n'
            '    entry["n"] += 1\n'
            "    storage_set(k, entry)\n"
            '    return entry["n"]\n'
        )
        __, a = run(source, "bump", {"k": "x"}, hosts=self.make_hosts({}))
        __, b = run(source, "bump", {"k": "x"}, hosts=self.make_hosts({}))
        assert a.used == b.used


class TestSizeCapLeavesSmallValuesAlone:
    """Builtins and ``%`` refuse only what is over ``MAX_VALUE_SIZE``: a loop
    over a long ``range``, and ``%`` with a large value but a small width, run."""

    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("len(list(range(65536)))", 65536),
            ("sum(range(65536))", 65536 * 65535 // 2),
            ("max(reversed(range(65536)))", 65535),
            ("'%*d|%-5s|%%' % (4, 200000, 'ab')", "200000|ab   |%"),
            ("'%(a)05d' % {'a': 7}", "00007"),
        ],
    )
    def test_at_the_cap(self, expression, expected):
        assert run(f"def f():\n    return {expression}\n", "f")[0] == expected

    def test_for_over_a_long_range_is_untouched(self):
        source = "def f():\n    for i in range(10**12):\n        if i == 3:\n            return i\n"
        assert run(source, "f")[0] == 3


class TestDeterminism:
    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=50))
    def test_property_same_result_and_gas_every_run(self, n, m):
        source = (
            "def f(n, m):\n"
            "    acc = 0\n"
            "    for i in range(n):\n"
            "        acc = (acc + i * m) % 1000003\n"
            "    return acc\n"
        )
        first = run(source, "f", {"n": n, "m": m})
        second = run(source, "f", {"n": n, "m": m})
        assert first[0] == second[0]
        assert first[1].used == second[1].used
