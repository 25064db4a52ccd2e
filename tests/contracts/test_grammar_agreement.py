"""The deploy gate and the VM accept and reject exactly the same sources.

``compile_contract`` decides what runs on chain; ``analyze_contract_source``
decides what the off-chain gate admits.  Both read one grammar
(``repro.contracts.vm.parse_contract``), so the VM refuses a module if and
only if the gate reports it under MED002, MED003 or MED009.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_vm_differential import PRELUDE, wild_block

from repro.analysis import analyze_contract_source
from repro.common.errors import ContractError
from repro.contracts.vm import compile_contract

GRAMMAR_CODES = {"MED002", "MED003", "MED009"}


def vm_rejects(source):
    try:
        compile_contract(source)
    except ContractError:
        return True
    return False


def gate_codes(source):
    return {f.code for f in analyze_contract_source(source, taint=False)} & GRAMMAR_CODES


# Sources on which the two used to disagree: the VM compiled the first three
# and refused the last four, the gate the other way round.
DIVERGENT = {
    "complex_literal": ("def f():\n    return 1j * 1j\n", {"MED002"}),
    "set_display": ("def f():\n    return {1, 2}\n", {"MED009"}),
    "true_division_in_place": ("def f(x):\n    x /= 2\n    return x\n", {"MED003"}),
    "float_constant": ("X = 1.5\ndef f():\n    return X\n", {"MED002"}),
    "non_literal_constant": ("X = len([1])\ndef f():\n    return X\n", {"MED009"}),
    "multi_target_constant": ("X = Y = 1\ndef f():\n    return X\n", {"MED009"}),
    "no_functions": ("X = 1\n", {"MED009"}),
}


@pytest.mark.parametrize("name", sorted(DIVERGENT))
def test_divergent_source_rejected_by_both(name):
    source, codes = DIVERGENT[name]
    assert vm_rejects(source)
    assert gate_codes(source) == codes


# Statements that leave the subset, spliced into otherwise valid programs.
IN_FUNCTION = [
    "x = 1.5",
    "x = 2j",
    "x = y / 2",
    "x /= 2",
    "x = {1, y}",
    "x = [i for i in items]",
    "x = items.count",
    "x = lambda: 1",
    "import os",
    "global x",
    "def g():\n    return 1",
    "try:\n    pass\nexcept Exception:\n    pass",
    "x = (yield)",
    "x = -(3)",
]
TOP_LEVEL = [
    "LIMIT = 3",
    "NAMES = ['a', ('b', -1), {'c': None}]",
    "RATE = 0.5",
    "PAIR = (1, 2j)",
    "SEEN = {1}",
    "SEEN = set()",
    "LIMIT = len('abc')",
    "LIMIT = OTHER = 3",
    "a, b = 1, 2",
    "import os",
    "'''a docstring'''",
    "if True:\n    pass",
    "class C:\n    pass",
]


@st.composite
def contract_module(draw):
    lines = draw(wild_block())
    if draw(st.booleans()):
        fragment = draw(st.sampled_from(IN_FUNCTION)).split("\n")
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = fragment
    signature = draw(st.sampled_from(["x, y, items", "x, y, items=[]", "x, *y, items"]))
    function = f"def f({signature}):\n" + "".join(f"    {line}\n" for line in lines)
    top = "".join(line + "\n" for line in draw(st.lists(st.sampled_from(TOP_LEVEL), max_size=2)))
    parts = draw(st.sampled_from([[top, function], [top, PRELUDE, function], [function, top], [top]]))
    return "".join(parts)


# No example count here: the nightly ``ci-stress`` profile runs it deeper.
@settings(deadline=None)
@given(contract_module())
def test_vm_rejects_exactly_what_the_gate_reports(source):
    assert vm_rejects(source) == bool(gate_codes(source)), source
