"""The contract IR agrees with the VM it models, on generated programs.

:mod:`repro.analysis.contract_ir` resolves calls and charges gas the way
``repro.contracts.vm`` does. On ``test_vm_differential.wild_program``, run
with a gas limit above the IR's bound, the meter never reads more than the
bound, whether the call returns or raises.

The ``@example`` s are three decisions a static pass can get wrong by making
it again instead of reading the VM's: the store into a ``for`` target is
charged every iteration, a call reaches a host function before a contract
function of the same name, and a positional argument wins over a keyword for
the same parameter. A unit test pins each on the VM: the gas it charges, or
which storage slot the host function it reaches writes.
"""

import copy
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_vm_differential import CONTEXT, cap, wild_program

from repro.analysis.contract_ir import build
from repro.chain.state import StateDB
from repro.common.errors import ContractError
from repro.contracts.runtime import HostBridge
from repro.contracts.vm import GasMeter, Interpreter, compile_contract, parse_contract

FOR_TARGET = (
    "def f(x, y, items):\n"
    "    a = [0, 0]\n"
    "    for a[(1+1)*(2+2)//8] in range(10):\n"
    "        pass\n"
    "    return a\n"
)
HOST_NAMED = "def storage_set(k, v):\n    return 0\ndef f(x, y, items):\n    return storage_set('k', 1)\n"
BOTH_BINDINGS = "def _put(k):\n    storage_set(k, 1)\ndef f(x, y, items):\n    _put('a', k='b')\n"

#: What each storage host function does to the slot its first argument names.
ACCESS = {
    "storage_get": ("reads",),
    "storage_has": ("reads",),
    "storage_set": ("writes",),
    "storage_delete": ("reads", "writes"),
    "storage_keys": ("read_prefixes",),
}


def run(source, args, gas):
    """Call ``f``: the meter, and each ``(access, slot)`` the storage hosts touched."""
    meter = GasMeter(gas)
    bridge = HostBridge(StateDB(), "c0ffee", "alice", CONTEXT, meter, [])
    hosts = dict(bridge.functions(), note=lambda *values: values[0] if values else None, cap=cap)
    touched = []

    def recorded(name, function):
        def host(*positional, **named):
            result = function(*positional, **named)
            slot = positional[0] if positional else next(iter(named.values()), "")
            touched.extend((access, str(slot)) for access in ACCESS[name])
            return result

        return host

    hosts.update({name: recorded(name, hosts[name]) for name in ACCESS})
    try:
        Interpreter(compile_contract(source), hosts, meter).call("f", copy.deepcopy(args))
    except ContractError:  # an OutOfGasError is one
        pass
    return meter, touched


ARGS = (
    st.integers(-3, 6),
    st.sampled_from([0, 1, 2, "s", None]),
    st.lists(st.integers(-2, 5), min_size=0, max_size=4),
)


@settings(deadline=None)
@given(wild_program(), *ARGS)
@example(FOR_TARGET, 0, 0, [])
@example(HOST_NAMED, 0, 0, [])
@example(BOTH_BINDINGS, 0, 0, [])
def test_meter_never_reads_past_the_bound(source, x, y, items):
    bound = build(parse_contract(source)).bound("f")
    if math.isinf(bound):  # a call cycle: no limit is above it
        return
    meter, _ = run(source, {"x": x, "y": y, "items": items}, int(bound) + 1)
    assert meter.used <= bound, source


def test_store_into_a_for_target_is_charged():
    meter, _ = run(FOR_TARGET, {"x": 0, "y": 0, "items": []}, 10_000)
    # Ten stores into the target at ten gas each: 100 of the 183.
    assert build(parse_contract(FOR_TARGET)).bound("f") == meter.used == 183


def test_a_host_function_wins_over_a_contract_function_of_its_name():
    meter, touched = run(HOST_NAMED, {"x": 0, "y": 0, "items": []}, 10_000)
    assert touched == [("writes", "k")]
    # The host's write, not the contract function's 13 gas.
    assert build(parse_contract(HOST_NAMED)).bound("f") == meter.used == 226


def test_a_positional_argument_wins_over_a_keyword():
    _, touched = run(BOTH_BINDINGS, {"x": 0, "y": 0, "items": []}, 10_000)
    assert touched == [("writes", "a")]
