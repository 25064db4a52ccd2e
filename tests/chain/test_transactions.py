"""Transaction signing, validation, and builder tests."""

import dataclasses
import sys
import threading

import pytest

from repro.chain import transactions
from repro.chain.transactions import (
    Transaction,
    VerifiedSignatures,
    make_call,
    make_deploy,
    make_transfer,
)
from repro.common.errors import ValidationError
from repro.common.signatures import PublicKey
from repro.p2p.wire import tx_from_wire, tx_to_wire


def test_transfer_builder_signs_validly(alice):
    tx = make_transfer(alice, "recipient", 100, nonce=0)
    tx.validate()  # does not raise
    assert tx.sender == alice.address


def test_tx_id_excludes_signature(alice):
    tx = make_transfer(alice, "r", 5, nonce=0)
    stripped = dataclasses.replace(tx, signature=b"")
    assert tx.tx_id == stripped.tx_id


def test_tx_id_changes_with_payload(alice):
    a = make_transfer(alice, "r", 5, nonce=0)
    b = make_transfer(alice, "r", 6, nonce=0)
    assert a.tx_id != b.tx_id


def test_unsigned_tx_fails_validation(alice):
    tx = Transaction(sender=alice.address, nonce=0, kind="transfer", payload={})
    with pytest.raises(ValidationError):
        tx.validate()


def test_tampered_payload_breaks_signature(alice):
    tx = make_transfer(alice, "r", 5, nonce=0)
    tampered = dataclasses.replace(tx, payload={"to": "attacker", "amount": 5})
    assert not tampered.verify_signature()


def test_signature_from_other_key_rejected(alice, bob):
    tx = make_transfer(alice, "r", 5, nonce=0)
    stolen = dataclasses.replace(
        tx, sender=bob.address, public_key=bob.public.data
    )
    assert not stolen.verify_signature()


def test_unknown_kind_rejected(alice):
    tx = make_transfer(alice, "r", 5, nonce=0)
    bad = dataclasses.replace(tx, kind="mystery")
    with pytest.raises(ValidationError):
        bad.validate()


def test_negative_nonce_rejected(alice):
    tx = make_transfer(alice, "r", 5, nonce=0)
    bad = dataclasses.replace(tx, nonce=-1)
    with pytest.raises(ValidationError):
        bad.validate()


def test_zero_gas_limit_rejected(alice):
    tx = make_transfer(alice, "r", 5, nonce=0)
    bad = dataclasses.replace(tx, gas_limit=0)
    with pytest.raises(ValidationError):
        bad.validate()


def test_deploy_builder_payload(alice):
    tx = make_deploy(alice, "counter", "def get():\n    return 1\n", nonce=2)
    assert tx.kind == "deploy"
    assert tx.payload["contract"] == "counter"
    tx.validate()


def test_call_builder_payload(alice):
    tx = make_call(alice, "cid123", "method", {"x": 1}, nonce=3)
    assert tx.kind == "call"
    assert tx.payload["args"] == {"x": 1}
    tx.validate()


def test_estimated_size_positive_and_stable(alice):
    tx = make_transfer(alice, "r", 5, nonce=0)
    assert tx.estimated_size_bytes() > 100
    assert tx.estimated_size_bytes() == tx.estimated_size_bytes()


def test_signing_digest_memo_not_stale(alice):
    tx = make_transfer(alice, "r", 5, nonce=0)
    first = tx.signing_digest()
    copied = dataclasses.replace(tx, nonce=1)
    assert copied.signing_digest() != first


# -- the process-wide set of verified (digest, signature) pairs ----------------


@pytest.fixture
def verified(monkeypatch):
    """A private, small set in place of the process-wide one."""
    fresh = VerifiedSignatures(4)
    monkeypatch.setattr(transactions, "_VERIFIED", fresh)
    return fresh


@pytest.fixture
def ec_verifies(monkeypatch):
    """Counts the calls that reach the elliptic-curve check."""
    calls = []
    real = PublicKey.verify

    def counting(self, message, signature):
        calls.append(message)
        return real(self, message, signature)

    monkeypatch.setattr(PublicKey, "verify", counting)
    return calls


def _over_the_wire(tx):
    return tx_from_wire(tx_to_wire(tx))


def test_fresh_copy_from_the_wire_is_not_verified_again(alice, verified, ec_verifies):
    tx = make_transfer(alice, "r", 5, nonce=0)
    tx.validate()
    assert len(ec_verifies) == 1
    for _ in range(3):  # gossip body, block body, a resend
        copy = _over_the_wire(tx)
        assert copy is not tx
        copy.validate()
    assert len(ec_verifies) == 1
    assert len(verified) == 1


def test_altered_copies_are_not_answered_from_the_set(alice, bob, verified, ec_verifies):
    tx = make_transfer(alice, "r", 5, nonce=0)
    assert tx.verify_signature()
    bad_signature = tx.signature[:-1] + bytes([tx.signature[-1] ^ 1])
    altered = [
        dataclasses.replace(tx, signature=bad_signature),
        dataclasses.replace(tx, public_key=bob.public.data),
        dataclasses.replace(tx, sender=bob.address),
        dataclasses.replace(tx, payload={"to": "r", "amount": 6}),
    ]
    for copy in altered:
        assert not _over_the_wire(copy).verify_signature()
        with pytest.raises(ValidationError):
            copy.validate()
    assert len(verified) == 1  # still only the original


def test_invalid_results_are_never_remembered(alice, verified, ec_verifies):
    tx = make_transfer(alice, "r", 5, nonce=0)
    forged = dataclasses.replace(tx, signature=tx.signature[:-1] + b"\x00")
    assert not forged.verify_signature()
    assert not forged.verify_signature()
    assert not _over_the_wire(forged).verify_signature()
    assert len(ec_verifies) == 3
    assert len(verified) == 0


def test_set_never_exceeds_its_size_and_evicts_oldest_first(alice, verified, ec_verifies):
    txs = [make_transfer(alice, "r", 1, nonce=n) for n in range(7)]
    for tx in txs:
        tx.validate()
        assert len(verified) <= verified.capacity
    assert len(verified) == verified.capacity == 4
    assert len(ec_verifies) == 7
    _over_the_wire(txs[-1]).validate()  # newest: still remembered
    assert len(ec_verifies) == 7
    _over_the_wire(txs[0]).validate()  # oldest: evicted, verified again
    assert len(ec_verifies) == 8
    assert len(verified) == 4


def test_process_wide_set_is_bounded():
    assert isinstance(transactions._VERIFIED, VerifiedSignatures)
    assert transactions._VERIFIED.capacity == 2048
    assert len(transactions._VERIFIED) <= 2048


def test_eight_threads_validating_overlapping_txs_agree(alice, bob, verified):
    """RPC handlers run ``validate`` under ``asyncio.to_thread``; the set is
    smaller than the working set here, so adds, evictions and lookups race."""
    good = [make_transfer(alice, "r", 1, nonce=n) for n in range(6)]
    good += [make_transfer(bob, "r", 1, nonce=n) for n in range(6)]
    forged = [
        dataclasses.replace(tx, signature=tx.signature[:-1] + bytes([tx.signature[-1] ^ 1]))
        for tx in good[:4]
    ]
    expected = {
        tx.tx_id + tx.signature.hex(): tx._verify_signature_uncached() for tx in good + forged
    }
    assert sum(expected.values()) == len(good)
    wires = [tx_to_wire(tx) for tx in good + forged]
    errors, disagreements = [], []

    def worker(offset):
        try:
            for round_ in range(3):
                for i in range(len(wires)):
                    tx = tx_from_wire(wires[(i * (offset + 1) + round_) % len(wires)])
                    if tx.verify_signature() is not expected[tx.tx_id + tx.signature.hex()]:
                        disagreements.append(tx.tx_id)
                    assert len(verified) <= verified.capacity
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert disagreements == []
    assert len(verified) == verified.capacity


# -- payload strings must encode as UTF-8 ----------------------------------------


def lone_surrogate_txs(keypair, nonce=0):
    """Three signed txs a lone surrogate used to carry into ``state_root()``
    (transfer ``to``, a storage key via call args) or the contract compiler
    (deploy source); all survive JSON and keep their id across the wire."""
    return [
        make_transfer(keypair, "\ud800", 1, nonce=nonce),
        make_call(keypair, "c", "put", {"key": {"nested\udfff": [1]}}, nonce=nonce),
        make_deploy(keypair, "c", "def f():\n    return '\ud800'\n", nonce=nonce),
    ]


def test_lone_surrogate_in_any_payload_string_is_refused(alice, verified):
    for tx in lone_surrogate_txs(alice):
        assert _over_the_wire(tx).tx_id == tx.tx_id  # nothing upstream stops it
        with pytest.raises(ValidationError, match="UTF-8"):
            tx.validate()
        with pytest.raises(ValidationError, match="UTF-8"):
            _over_the_wire(tx).validate()
        assert not tx.verify_signature()
    assert len(verified) == 0


def test_well_formed_non_ascii_payloads_keep_their_ids(alice):
    golden = {
        "\u00e9": "2901cd0f6a57ae1825e82a4750da9ca63ef1567e0e141e2a6caf8cf9d0a2bc72",
        "\u60a3\u8005": "808f450d14a3c18f142b01d9ecb03f5f63dd3c9b42ecea7a13f4b1d95b0988cf",
        "\U0001f600": "4719645518238224c3ac771f11f354dbb7443ea94c0fe5f40aa13f54a60834b3",
    }
    for to, tx_id in golden.items():
        tx = make_transfer(alice, to, 1, nonce=0)
        tx.validate()
        assert tx.tx_id == tx_id
    nested = make_call(
        alice, "c", "put", {"\u60a3\u8005": ["\u00e9", {"k\U0001f600": "v"}]}, nonce=0
    )
    nested.validate()
    assert nested.tx_id == "c242c3f365d6f0ca5c2f35f6deaade5e071747a538605f61a0723f0788eeac75"


def test_payload_strings_are_checked_once_per_tx_per_process(alice, verified, monkeypatch):
    calls = []
    real = transactions._encodes_as_utf8

    def counting(value):
        if isinstance(value, dict) and "to" in value:
            calls.append(value)
        return real(value)

    monkeypatch.setattr(transactions, "_encodes_as_utf8", counting)
    tx = make_transfer(alice, "\u60a3\u8005", 5, nonce=0)
    for copy in (tx, tx, _over_the_wire(tx), _over_the_wire(tx)):
        copy.validate()
    assert len(calls) == 1
