"""Property tests: parallel block execution == serial, on random blocks.

Bare ``@given`` (no explicit ``@settings``) so the ``ci-stress`` hypothesis
profile (see ``tests/conftest.py`` and the scheduled CI job) deepens these
without code changes.
"""

import pytest
from hypothesis import given, strategies as st

from repro.chain.executor import ExecutionContext
from repro.chain.scheduler import BlockScheduler, derive_tx_access, plan_waves
from repro.chain.state import StateDB
from repro.chain.transactions import make_call, make_deploy, make_transfer
from repro.common.signatures import KeyPair
from repro.contracts.library import COUNTER_SOURCE
from repro.contracts.runtime import ContractExecutor

from test_scheduler import LEDGER_SOURCE

CTX = ExecutionContext(block_height=3, timestamp_ms=99, node_name="prop")
SENDERS = [KeyPair.generate(f"prop-sender-{i}") for i in range(4)]
USERS = ["ann", "bo", "cy", "di"]

_REFERENCE_EXECUTOR = ContractExecutor()  # warm compile cache across examples


@pytest.fixture(scope="module")
def scheduler():
    with BlockScheduler(ContractExecutor(), backend="thread") as sched:
        yield sched


def fresh_ledger():
    state = StateDB()
    for keypair in SENDERS:
        state.credit(keypair.address, 10_000)
    deployer = KeyPair.generate("prop-deployer")
    state.credit(deployer.address, 10_000)
    receipt = _REFERENCE_EXECUTOR.apply(
        state, make_deploy(deployer, "ledger", LEDGER_SOURCE, nonce=0), CTX
    )
    assert receipt.success, receipt.error
    return state, receipt.output


def build_block(contract_id, ops):
    """Turn abstract ops into txs with per-sender nonce bookkeeping."""
    nonces = {keypair.address: 0 for keypair in SENDERS}
    txs = []
    for kind, sender_i, a, b, amount in ops:
        keypair = SENDERS[sender_i]
        nonce = nonces[keypair.address]
        nonces[keypair.address] += 1
        if kind == "credit":
            txs.append(
                make_call(keypair, contract_id, "credit",
                          {"user": USERS[a], "amount": amount}, nonce=nonce)
            )
        elif kind == "move":
            txs.append(
                make_call(keypair, contract_id, "move",
                          {"src": USERS[a], "dst": USERS[b],
                           "amount": amount}, nonce=nonce)
            )
        elif kind == "transfer":
            txs.append(
                make_transfer(keypair, SENDERS[b].address, amount,
                              nonce=nonce)
            )
        elif kind == "scan":
            txs.append(
                make_call(keypair, contract_id, "audit", nonce=nonce)
            )
        else:  # deploy: an unknown-footprint barrier mid-block
            txs.append(
                make_deploy(keypair, f"c{nonce}", COUNTER_SOURCE, nonce=nonce)
            )
    return txs


OPS = st.lists(
    st.tuples(
        st.sampled_from(["credit", "move", "transfer", "scan", "deploy"]),
        st.integers(0, len(SENDERS) - 1),
        st.integers(0, len(USERS) - 1),
        st.integers(0, len(USERS) - 1),
        st.integers(1, 40),
    ),
    min_size=1,
    max_size=20,
)


@given(ops=OPS)
def test_parallel_block_equals_serial(scheduler, ops):
    state, contract_id = fresh_ledger()
    txs = build_block(contract_id, ops)

    serial = state.fork()
    serial_receipts = [
        _REFERENCE_EXECUTOR.apply(serial, tx, CTX) for tx in txs
    ]
    serial_root = serial.state_root()

    overlay, receipts = scheduler.execute_block(state, txs, CTX)
    assert overlay.state_root() == serial_root
    assert receipts == serial_receipts


@given(ops=OPS)
def test_waves_partition_and_order_indexes(ops):
    state, contract_id = fresh_ledger()
    txs = build_block(contract_id, ops)
    accesses = [derive_tx_access(state, tx) for tx in txs]
    waves = plan_waves(accesses)
    flat = [index for wave in waves for index in wave]
    assert sorted(flat) == list(range(len(txs)))  # exact partition
    for wave in waves:
        assert wave == sorted(wave)  # canonical commit order kept
    for wave in waves:
        for index in wave:
            if accesses[index].unknown:
                assert wave == [index]  # barriers are singletons
