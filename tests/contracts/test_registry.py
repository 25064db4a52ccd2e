"""The deploy-time static-verification gate: ``platform_deploy_tx`` and
``verify_contract``.

A platform contract's deploy tx is built only after its source passed the
verifier, PHI taint pass included; the gate tests swap a bad source in under
a platform name and check that no tx is built.
"""

import pytest

from repro.analysis.verify import verify_contract
from repro.common.errors import ContractVerificationError
from repro.common.signatures import KeyPair
from repro.contracts import deploy
from repro.contracts.library import COUNTER_SOURCE, PLATFORM_CONTRACTS

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

DEPLOYER = KeyPair.generate("deployer")


@pytest.fixture
def built(monkeypatch):
    """The deploy txs the helper signs from here on."""
    txs = []
    make_deploy = deploy.make_deploy

    def recorded(*args, **kwargs):
        txs.append(make_deploy(*args, **kwargs))
        return txs[-1]

    monkeypatch.setattr(deploy, "make_deploy", recorded)
    return txs


def refused(monkeypatch, source):
    """The error the helper raises for ``source`` under a platform name."""
    monkeypatch.setitem(PLATFORM_CONTRACTS, "analytics", source)
    with pytest.raises(ContractVerificationError) as excinfo:
        deploy.platform_deploy_tx(DEPLOYER, "analytics")
    return excinfo.value


class TestVerifyGate:
    def test_nondeterministic_contract_rejected_with_typed_error(self, monkeypatch, built):
        error = refused(monkeypatch, NONDETERMINISTIC_SOURCE)
        assert "MED001" in str(error)
        assert any(f.code == "MED001" for f in error.findings)
        # The gate fires before anything is signed.
        assert built == []

    def test_unbounded_loop_rejected(self, monkeypatch, built):
        error = refused(monkeypatch, UNBOUNDED_SOURCE)
        assert any(f.code == "MED004" for f in error.findings)
        assert built == []

    def test_clean_contract_yields_one_signed_deploy_tx(self, built):
        tx = deploy.platform_deploy_tx(DEPLOYER, "clinical-trial", timestamp_ms=123_456)
        assert built == [tx]
        assert tx.sender == DEPLOYER.address
        assert tx.payload == {
            "contract": "clinical-trial",
            "source": PLATFORM_CONTRACTS["clinical-trial"],
            "init": {},
        }
        assert tx.timestamp_ms == 123_456
        tx.validate()  # signed by the deployer
        # Deterministic: every process signs the same bytes.
        assert deploy.platform_deploy_tx(DEPLOYER, "clinical-trial", 123_456).tx_id == tx.tx_id

    def test_noqa_cannot_wave_a_float_past_the_gate(self, monkeypatch, built):
        """A float is a compile error of the VM; silencing MED002 at the gate
        would only move the refusal into a failed deploy receipt on chain."""
        error = refused(monkeypatch, "def f():\n    return 1.5  # repro: noqa\n")
        assert [f.code for f in error.findings] == ["MED002"]
        assert built == []

    def test_phi_escaping_contract_rejected_with_taint_trace(self, monkeypatch, built):
        error = refused(monkeypatch, PHI_LEAK_SOURCE)
        assert "MED201" in str(error)
        (finding,) = [f for f in error.findings if f.code == "MED201"]
        # The typed error carries the full source -> path -> sink trace.
        kinds = [step["kind"] for step in finding.trace]
        assert kinds[0] == "source"
        assert kinds[-1] == "sink"
        assert finding.trace[-1]["line"] == 2  # the storage_set line
        assert "record" in finding.trace[0]["detail"]
        # Nothing was signed.
        assert built == []

    def test_taint_false_skips_the_phi_pass(self):
        findings = verify_contract(PHI_LEAK_SOURCE, name="leaky", taint=False)
        assert not [f for f in findings if f.code.startswith("MED2")]

    def test_max_gas_ceiling_enforced_at_deploy(self):
        with pytest.raises(ContractVerificationError) as excinfo:
            verify_contract(COUNTER_SOURCE, name="counter", max_gas=50)
        assert any(f.code == "MED008" for f in excinfo.value.findings)


class TestNonceTracking:
    def test_sequential_deploys_claim_increasing_nonces(self):
        """Platform contract i is deployed at nonce i, whatever the order the
        txs are built in."""
        names = list(PLATFORM_CONTRACTS)
        nonces = {name: deploy.platform_deploy_tx(DEPLOYER, name).nonce for name in reversed(names)}
        assert [nonces[name] for name in names] == list(range(len(names)))
