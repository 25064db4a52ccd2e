"""ContractRegistry tests: the deploy-time static-verification gate."""

import pytest

from repro.common.errors import ContractVerificationError
from repro.common.signatures import KeyPair
from repro.contracts.library import COUNTER_SOURCE
from repro.contracts.registry import ContractRegistry

NONDETERMINISTIC_SOURCE = (
    "def draw():\n"
    "    return random()\n"
)

UNBOUNDED_SOURCE = (
    "def spin(n):\n"
    "    while True:\n"
    "        n = n + 1\n"
    "    return n\n"
)

PHI_LEAK_SOURCE = (
    "def admit_patient(patient_id, record):\n"
    '    storage_set("phi/" + patient_id, record)\n'
    "    return True\n"
)


class FakeState:
    def __init__(self):
        self.nonces = {}

    def nonce(self, address):
        return self.nonces.get(address, 0)


class FakeNode:
    def __init__(self):
        self.txs = []
        self.state = FakeState()

    def submit_tx(self, tx):
        self.txs.append(tx)


@pytest.fixture
def registry():
    return ContractRegistry(node=FakeNode(), deployer=KeyPair.generate("deployer"))


class TestVerifyGate:
    def test_nondeterministic_contract_rejected_with_typed_error(self, registry):
        with pytest.raises(ContractVerificationError) as excinfo:
            registry.deploy("rng", NONDETERMINISTIC_SOURCE, verify=True)
        error = excinfo.value
        assert "MED001" in str(error)
        assert any(f.code == "MED001" for f in error.findings)
        # The gate fires before anything touches the chain.
        assert registry.node.txs == []
        assert registry.records == []

    def test_unbounded_loop_rejected(self, registry):
        with pytest.raises(ContractVerificationError) as excinfo:
            registry.deploy("spinner", UNBOUNDED_SOURCE, verify=True)
        assert any(f.code == "MED004" for f in excinfo.value.findings)

    def test_clean_contract_deploys_with_verified_record(self, registry):
        tx = registry.deploy("counter", COUNTER_SOURCE, verify=True)
        assert registry.node.txs == [tx]
        (record,) = registry.records
        assert record.name == "counter"
        assert record.verified
        assert record.tx_id == tx.tx_id

    def test_noqa_cannot_wave_a_float_past_the_gate(self, registry):
        """A float is a compile error of the VM; silencing MED002 at the gate
        would only move the refusal into a failed deploy receipt on chain."""
        source = "def f():\n    return 1.5  # repro: noqa\n"
        with pytest.raises(ContractVerificationError) as excinfo:
            registry.deploy("floaty", source, verify=True)
        assert [f.code for f in excinfo.value.findings] == ["MED002"]
        assert registry.node.txs == []

    def test_verify_false_skips_the_gate(self, registry):
        tx = registry.deploy("rng", NONDETERMINISTIC_SOURCE, verify=False)
        assert registry.node.txs == [tx]
        assert not registry.records[0].verified

    def test_verify_by_default(self):
        registry = ContractRegistry(
            node=FakeNode(),
            deployer=KeyPair.generate("deployer"),
            verify_by_default=True,
        )
        with pytest.raises(ContractVerificationError):
            registry.deploy("rng", NONDETERMINISTIC_SOURCE)
        # Explicit verify=False overrides the registry default.
        registry.deploy("rng", NONDETERMINISTIC_SOURCE, verify=False)
        assert len(registry.node.txs) == 1

    def test_phi_escaping_contract_rejected_with_taint_trace(self, registry):
        with pytest.raises(ContractVerificationError) as excinfo:
            registry.deploy("leaky", PHI_LEAK_SOURCE, verify=True)
        error = excinfo.value
        assert "MED201" in str(error)
        (finding,) = [f for f in error.findings if f.code == "MED201"]
        # The typed error carries the full source -> path -> sink trace.
        kinds = [step["kind"] for step in finding.trace]
        assert kinds[0] == "source"
        assert kinds[-1] == "sink"
        assert finding.trace[-1]["line"] == 2  # the storage_set line
        assert "record" in finding.trace[0]["detail"]
        # Nothing was signed or submitted.
        assert registry.node.txs == []

    def test_taint_false_registry_skips_the_phi_pass(self):
        registry = ContractRegistry(
            node=FakeNode(),
            deployer=KeyPair.generate("deployer"),
            taint=False,
        )
        tx = registry.deploy("leaky", PHI_LEAK_SOURCE, verify=True)
        assert registry.node.txs == [tx]

    def test_max_gas_ceiling_enforced_at_deploy(self):
        registry = ContractRegistry(
            node=FakeNode(),
            deployer=KeyPair.generate("deployer"),
            max_gas=50,
        )
        with pytest.raises(ContractVerificationError) as excinfo:
            registry.deploy("counter", COUNTER_SOURCE, verify=True)
        assert any(f.code == "MED008" for f in excinfo.value.findings)


class TestNonceTracking:
    def test_sequential_deploys_claim_increasing_nonces(self, registry):
        tx_a = registry.deploy("a", COUNTER_SOURCE)
        tx_b = registry.deploy("b", COUNTER_SOURCE)
        tx_c = registry.deploy("c", COUNTER_SOURCE)
        assert [tx_a.nonce, tx_b.nonce, tx_c.nonce] == [0, 1, 2]

    def test_chain_nonce_advances_local_counter(self, registry):
        registry.node.state.nonces[registry.deployer.address] = 7
        tx = registry.deploy("a", COUNTER_SOURCE)
        assert tx.nonce == 7

    def test_timestamp_source_used(self):
        registry = ContractRegistry(
            node=FakeNode(),
            deployer=KeyPair.generate("deployer"),
            timestamp_source=lambda: 123_456,
        )
        tx = registry.deploy("a", COUNTER_SOURCE)
        assert tx.timestamp_ms == 123_456
