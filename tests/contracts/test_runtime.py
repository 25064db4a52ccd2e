"""Contract runtime tests: deploy, call, storage, events, rollback, views."""

import pytest

from repro.chain.executor import ExecutionContext
from repro.chain.state import StateDB
from repro.chain.transactions import Transaction, make_call, make_deploy
from repro.common.errors import ContractError
from repro.common.hashing import hash_value_hex
from repro.contracts import gas as G
from repro.contracts.library import COUNTER_SOURCE
from repro.contracts.runtime import ContractExecutor


@pytest.fixture()
def env(alice):
    state = StateDB()
    state.credit(alice.address, 10_000)
    executor = ContractExecutor()
    ctx = ExecutionContext(block_height=1, timestamp_ms=1000)
    return state, executor, ctx


def deploy_counter(state, executor, ctx, alice, nonce=0, start=0):
    tx = make_deploy(alice, "counter", COUNTER_SOURCE, init={"start": start}, nonce=nonce)
    receipt = executor.apply(state, tx, ctx)
    assert receipt.success, receipt.error
    return receipt.output


class TestDeploy:
    def test_deploy_returns_contract_id(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        assert len(contract_id) == 40

    def test_init_runs_on_deploy(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice, start=42)
        assert executor.execute_view(state, contract_id, "get") == 42

    def test_metadata_recorded(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        info = executor.contract_info(state, contract_id)
        assert info.owner == alice.address
        assert info.name == "counter"
        assert info.deployed_at_height == 1

    def test_bad_source_fails_cleanly(self, env, alice):
        state, executor, ctx = env
        tx = make_deploy(alice, "bad", "import os\n", nonce=0)
        receipt = executor.apply(state, tx, ctx)
        assert not receipt.success

    def test_contract_ids_distinct_per_nonce(self, env, alice):
        state, executor, ctx = env
        a = deploy_counter(state, executor, ctx, alice, nonce=0)
        b = deploy_counter(state, executor, ctx, alice, nonce=1)
        assert a != b

    def test_list_contracts(self, env, alice):
        state, executor, ctx = env
        deploy_counter(state, executor, ctx, alice)
        assert len(executor.list_contracts(state)) == 1


class TestCall:
    def test_call_mutates_storage(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice, start=5)
        tx = make_call(alice, contract_id, "increment", {"by": 3}, nonce=1)
        receipt = executor.apply(state, tx, ctx)
        assert receipt.success
        assert receipt.output == 8
        assert executor.execute_view(state, contract_id, "get") == 8

    def test_events_emitted(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        tx = make_call(alice, contract_id, "increment", nonce=1)
        receipt = executor.apply(state, tx, ctx)
        assert len(receipt.events) == 1
        assert receipt.events[0].name == "Incremented"
        assert receipt.events[0].tx_id == tx.tx_id

    def test_unknown_contract(self, env, alice):
        state, executor, ctx = env
        tx = make_call(alice, "00" * 20, "get", nonce=0)
        receipt = executor.apply(state, tx, ctx)
        assert not receipt.success
        assert "unknown contract" in receipt.error

    def test_unknown_method(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        tx = make_call(alice, contract_id, "destroy", nonce=1)
        receipt = executor.apply(state, tx, ctx)
        assert not receipt.success

    def test_failed_call_rolls_back_storage(self, env, alice):
        state, executor, ctx = env
        source = (
            "def init():\n"
            "    storage_set('v', 1)\n"
            "def bad():\n"
            "    storage_set('v', 999)\n"
            "    require(False, 'boom')\n"
            "def get():\n"
            "    return storage_get('v')\n"
        )
        tx = make_deploy(alice, "rollback", source, nonce=0)
        contract_id = executor.apply(state, tx, ctx).output
        call = make_call(alice, contract_id, "bad", nonce=1)
        receipt = executor.apply(state, call, ctx)
        assert not receipt.success
        assert "boom" in receipt.error
        assert executor.execute_view(state, contract_id, "get") == 1

    def test_failed_call_still_bumps_nonce(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        call = make_call(alice, contract_id, "nope", nonce=1)
        executor.apply(state, call, ctx)
        assert state.nonce(alice.address) == 2

    def test_out_of_gas_call(self, env, alice):
        state, executor, ctx = env
        source = (
            "def spin():\n"
            "    i = 0\n"
            "    while i < 1000000:\n"
            "        i = i + 1\n"
            "    return i\n"
        )
        tx = make_deploy(alice, "spinner", source, nonce=0)
        contract_id = executor.apply(state, tx, ctx).output
        call = make_call(alice, contract_id, "spin", nonce=1, gas_limit=20_000)
        receipt = executor.apply(state, call, ctx)
        assert not receipt.success
        assert receipt.gas_used <= 20_000 + 5_000

    def test_sender_visible_to_contract(self, env, alice):
        state, executor, ctx = env
        source = "def who():\n    return sender()\n"
        tx = make_deploy(alice, "who", source, nonce=0)
        contract_id = executor.apply(state, tx, ctx).output
        call = make_call(alice, contract_id, "who", nonce=1)
        assert executor.apply(state, call, ctx).output == alice.address

    def test_block_context_visible(self, env, alice):
        state, executor, ctx = env
        source = "def h():\n    return block_height()\n"
        tx = make_deploy(alice, "ctx", source, nonce=0)
        contract_id = executor.apply(state, tx, ctx).output
        call = make_call(alice, contract_id, "h", nonce=1)
        assert executor.apply(state, call, ctx).output == 1

    def test_float_storage_write_rejected(self, env, alice):
        state, executor, ctx = env
        source = "def f(x):\n    storage_set('k', x)\n    return 1\n"
        tx = make_deploy(alice, "floaty", source, nonce=0)
        contract_id = executor.apply(state, tx, ctx).output
        # Host call receives a float through args -> _check_value rejects.
        call = make_call(alice, contract_id, "f", {"x": 1}, nonce=1)
        assert executor.apply(state, call, ctx).success


# Each body makes Python itself raise inside the VM or the host bridge; until
# these were converted to ContractError they left ``ContractExecutor.apply``
# as TypeError/ZeroDivisionError/..., with the call's state snapshot still open.
ESCAPING_SHAPES = {
    "aug_assign_zero_division": ("x //= y", "arithmetic error"),
    "aug_assign_missing_key": ("d = {}\n    d['k'] += 1", "subscript error"),
    "unary_on_str": ("x = -'a'", "arithmetic error"),
    "compare_int_str": ("x = 1 < 'a'", "comparison error"),
    "subscript_store_out_of_range": ("l = []\n    l[3] = 1", "subscript error"),
    "iterate_int": ("for i in 5:\n        pass", "iteration error"),
    "unpack_int": ("a, b = 5", "unpacking error"),
    "dict_store_unhashable_key": ("d = {}\n    d[[1]] = 2", "subscript error"),
    "dict_display_unhashable_key": ("d = {[1]: 2}", "dict key error"),
    "dict_resized_while_iterated": (
        "d = {'a': 1}\n    for k in d:\n        d[k + 'x'] = 1",
        "iteration error",
    ),
    "builtin_zero_division": ("x = divmod(x, y)", "call error"),
    "slice_step_zero": ("x = [1, 2][::y]", "subscript error"),
    "break_outside_loop": ("if y == 0:\n        break", "'break' outside loop"),
    "store_a_function": ("storage_set('k', len)", "not serializable"),
    "emit_int_keyed_dict": ("emit('E', {'v': {1: 2}})", "not serializable"),
    "store_a_list_holding_itself": (
        "l = [1]\n    l[0:] = [l]\n    storage_set('k', l)",
        "value is not serializable: nested deeper",
    ),
    "emit_a_list_holding_itself": (
        "l = [1]\n    l[0:] = [l]\n    emit('E', {'v': l})",
        "value is not serializable: nested deeper",
    ),
    # Function values are first-class in MedScript; a receipt carries data only.
    "return_a_builtin": ("return len", "result is not serializable: a builtin_function"),
    "return_a_contract_function": ("return [_h]", "result is not serializable: a FunctionDef"),
    "return_a_host_function": ("return {'k': storage_get}", "result is not serializable: a method"),
    # Found by hypothesis: the bridge deep-copies the default it hands back.
    "return_a_copied_function": ("return [storage_get(x, _h)]", "result is not serializable"),
    "return_an_iterator": ("return [1, reversed([x])]", "result is not serializable"),
    "return_int_keyed_dict": ("return {'v': {1: 2}}", "result is not serializable: dict keys"),
    "return_a_list_holding_itself": (
        "l = [1]\n    l[0:] = [l]\n    return l",
        "result is not serializable: nested deeper",
    ),
}


class TestPythonErrorsBecomeFailedReceipts:
    @pytest.mark.parametrize("shape", sorted(ESCAPING_SHAPES))
    def test_failed_receipt_rollback_and_closed_journal(self, env, alice, shape):
        state, executor, ctx = env
        body, expected = ESCAPING_SHAPES[shape]
        source = (
            "def init():\n"
            "    storage_set('v', 1)\n"
            "def _h(a):\n"
            "    return a\n"
            "def run(x, y):\n"
            "    storage_set('v', 999)\n"
            f"    {body}\n"
            "    return 1\n"
        )
        contract_id = executor.apply(state, make_deploy(alice, shape, source, nonce=0), ctx).output
        expected_state = state.fork()
        expected_state.bump_nonce(alice.address)  # all a failed call keeps
        call = make_call(alice, contract_id, "run", {"x": 1, "y": 0}, nonce=1)
        receipt = executor.apply(state, call, ctx)
        assert not receipt.success
        assert expected in receipt.error
        assert receipt.gas_used > 5_000
        assert state.journal_depth == 0
        assert state.get_slot(contract_id, "s/v") == 1
        assert state.state_root() == expected_state.state_root()

    def test_every_result_a_receipt_carries_can_be_hashed(self, env, alice):
        state, executor, ctx = env
        source = (
            "def run(x, ratio):\n"
            "    shared = [x, 'a', None, True]\n"
            "    return {'t': (1, ratio), 'l': [shared, shared], 'd': {'k': {}}, 'deep': _nest(x, 31)}\n"
            "def _nest(v, n):\n"
            "    for i in range(n):\n"
            "        v = [v]\n"
            "    return v\n"
        )
        contract_id = executor.apply(state, make_deploy(alice, "data", source, nonce=0), ctx).output
        receipt = executor.apply(state, make_call(alice, contract_id, "run", {"x": 7, "ratio": [2, 5]}, nonce=1), ctx)
        assert receipt.success, receipt.error
        assert receipt.output["l"] == [[7, "a", None, True]] * 2
        assert len(hash_value_hex(receipt.output)) == 64

    def test_failing_init_leaves_no_open_snapshot(self, env, alice):
        state, executor, ctx = env
        source = "def init(y=0):\n    storage_set('v', 1)\n    y //= y\n"
        receipt = executor.apply(state, make_deploy(alice, "bad-init", source, nonce=0), ctx)
        assert not receipt.success
        assert "init failed: arithmetic error" in receipt.error
        assert state.journal_depth == 0


# ``Transaction.validate`` admits any dict as a payload, so a validly signed tx
# can carry these; each used to leave ``apply`` as a TypeError / ValueError.
def malformed_payloads(cid):
    return {
        "call_contract_int": ("call", {"contract": 5}),
        "call_contract_list": ("call", {"contract": [cid], "method": "get"}),
        "call_method_int": ("call", {"contract": cid, "method": 5}),
        "call_method_list": ("call", {"contract": cid, "method": ["get"]}),
        "call_args_list": ("call", {"contract": cid, "method": "get", "args": [1]}),
        "call_args_str": ("call", {"contract": cid, "method": "get", "args": "ab"}),
        "deploy_source_int": ("deploy", {"source": 7}),
        "deploy_source_none": ("deploy", {"contract": "c", "source": None}),
        "deploy_name_int": ("deploy", {"contract": 7, "source": COUNTER_SOURCE}),
        "deploy_init_list": ("deploy", {"contract": "c", "source": COUNTER_SOURCE, "init": [1]}),
    }


class TestMalformedPayloadsBecomeFailedReceipts:
    @pytest.mark.parametrize("shape", sorted(malformed_payloads("")))
    def test_failed_receipt_then_the_sender_carries_on(self, env, alice, shape):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        kind, payload = malformed_payloads(contract_id)[shape]
        tx = Transaction(sender=alice.address, nonce=1, kind=kind, payload=payload).signed_by(alice)
        tx.validate()  # admission has no objection
        expected_state = state.fork()
        expected_state.bump_nonce(alice.address)
        receipt = executor.apply(state, tx, ctx)
        assert not receipt.success
        assert receipt.error == f"malformed {kind} payload"
        assert receipt.gas_used == (G.GAS_CALL_BASE if kind == "call" else G.GAS_DEPLOY_BASE)
        assert state.journal_depth == 0
        assert state.state_root() == expected_state.state_root()
        follow_up = make_call(alice, contract_id, "increment", {"by": 3}, nonce=2)
        assert executor.apply(state, follow_up, ctx).success
        assert executor.execute_view(state, contract_id, "get") == 3

    def test_malformed_deploy_charges_no_more_than_its_gas_limit(self, env, alice):
        state, executor, ctx = env
        tx = Transaction(
            sender=alice.address, nonce=0, kind="deploy", payload={"source": 7}, gas_limit=10
        ).signed_by(alice)
        assert executor.apply(state, tx, ctx).gas_used == 10

    def test_empty_or_absent_args_still_mean_no_arguments(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice, start=4)
        for nonce, payload in enumerate(
            [{"args": None}, {"args": []}, {"args": {}}, {}], start=1
        ):
            payload = {"contract": contract_id, "method": "get", **payload}
            tx = Transaction(
                sender=alice.address, nonce=nonce, kind="call", payload=payload
            ).signed_by(alice)
            receipt = executor.apply(state, tx, ctx)
            assert receipt.success and receipt.output == 4


class TestViews:
    def test_view_does_not_mutate(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice, start=1)
        root_before = state.state_root()
        executor.execute_view(state, contract_id, "get")
        assert state.state_root() == root_before

    def test_view_write_rejected(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        with pytest.raises(ContractError):
            executor.execute_view(state, contract_id, "increment")

    def test_view_refuses_a_result_that_is_not_data(self, env, alice):
        state, executor, ctx = env
        source = "def peek():\n    return [len]\ndef get():\n    return [1]\n"
        contract_id = executor.apply(state, make_deploy(alice, "peek", source, nonce=0), ctx).output
        assert executor.execute_view(state, contract_id, "get") == [1]
        with pytest.raises(ContractError, match="result is not serializable"):
            executor.execute_view(state, contract_id, "peek")

    def test_view_unknown_contract(self, env, alice):
        state, executor, ctx = env
        with pytest.raises(ContractError):
            executor.execute_view(state, "ab" * 20, "get")

    def test_view_of_the_wrong_shape_is_a_contract_error(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        for call in [(5, "get"), (contract_id, 5), (contract_id, "get", [1])]:
            with pytest.raises(ContractError, match="malformed view call"):
                executor.execute_view(state, *call)


class TestDeterminismAcrossExecutors:
    def test_two_executors_same_state_root(self, alice):
        """Invariant 3: identical txs produce identical state on any node."""
        results = []
        for __ in range(2):
            state = StateDB()
            state.credit(alice.address, 10_000)
            executor = ContractExecutor()
            ctx = ExecutionContext(block_height=1, timestamp_ms=1000)
            contract_id = deploy_counter(state, executor, ctx, alice)
            for nonce in range(1, 6):
                tx = make_call(alice, contract_id, "increment", {"by": nonce}, nonce=nonce)
                executor.apply(state, tx, ctx)
            results.append(state.state_root())
        assert results[0] == results[1]

    def test_executors_share_one_compilation_per_source(self, alice, monkeypatch):
        """The compile cache is per process: a node's executor must not
        compile a source that another node in the process already did."""
        from repro.contracts import runtime

        compiled = []
        real = runtime.compile_contract
        monkeypatch.setattr(
            runtime, "compile_contract", lambda src: compiled.append(src) or real(src)
        )
        source = COUNTER_SOURCE + "\n# a source no other test compiles\n"
        for __ in range(3):
            state = StateDB()
            state.credit(alice.address, 10_000)
            tx = make_deploy(alice, "counter", source, init={"start": 0}, nonce=0)
            assert ContractExecutor().apply(state, tx, ExecutionContext()).success
        assert compiled == [source]
