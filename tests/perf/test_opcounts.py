"""Exact work counts: the half of performance that needs no stopwatch.

Each count below is an integer the code determines, measured over a fixed
seeded input and compared ``<=`` with ``opcounts.json`` beside this file.  A
change that does less work lowers the pin in the same commit, so
``git log -p tests/perf/opcounts.json`` is the trajectory; a change that does
more fails here before any benchmark is run.

The counters wrap module attributes from outside; nothing is added to the
code under measurement.
"""

import json
import random
import sys
from pathlib import Path

from repro.chain import state as state_mod
from repro.chain.blocks import Block, make_genesis
from repro.chain.state import StateDB
from repro.chain.transactions import make_transfer
from repro.common import signatures as sigs
from repro.common.signatures import KeyPair, PrivateKey, PublicKey
from repro.consensus.node import BlockchainNode, make_network_nodes
from repro.consensus.poa import ProofOfAuthority
from repro.sim.kernel import Kernel
from repro.sim.network import Network

PINNED = json.loads((Path(__file__).parent / "opcounts.json").read_text())


def _assert_within_pins(section, measured):
    pinned = PINNED[section]
    assert set(measured) == set(pinned), "opcounts.json and this test name different counts"
    over = {
        name: (count, pinned[name]) for name, count in measured.items() if count > pinned[name]
    }
    assert not over, f"{section}: (measured, pinned) {over}; all measured: {measured}"


def test_point_operations_per_signature_verify(monkeypatch):
    """32 signatures under 8 keys, static tables built before counting."""
    rng = random.Random(21)
    privates = [PrivateKey(rng.randrange(1, sigs._N)) for _ in range(8)]
    publics = [private.public_key() for private in privates]
    corpus = []
    for i in range(32):
        message = rng.randbytes(40)
        corpus.append((publics[i % 8], message, privates[i % 8].sign(message, publics[i % 8])))
    assert publics[0].verify(*corpus[0][1:])

    calls = {"_jac_double": 0, "_jac_add_affine": 0, "_batch_to_affine": 0}

    def counting(name):
        original = getattr(sigs, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(sigs, name, counting(name))
    per_verify = []
    for public, message, signature in corpus:
        calls.update(dict.fromkeys(calls, 0))
        assert public.verify(message, signature)
        per_verify.append(dict(calls))

    measured = {}
    for label, name in (
        ("doublings", "_jac_double"),
        ("mixed_additions", "_jac_add_affine"),
        ("inversions", "_batch_to_affine"),  # one modular inversion per call
    ):
        counts = [verify[name] for verify in per_verify]
        measured[f"{label}_mean"] = sum(counts) / len(counts)
        measured[f"{label}_max"] = max(counts)
    _assert_within_pins("signature_verify", measured)


def test_verifications_per_committed_tx_on_a_shared_process_network(monkeypatch):
    """Three validators in one process: the first to meet a tx pays for its
    signature check, the other two find it in ``_VERIFIED``; every follower
    checks every block's seal and validates its structure (tx Merkle tree,
    every ``tx.validate()``) once — the proposer, which built the block from
    admitted txs, not at all; and every validator hashes the trie branches on
    the paths its own execution of the block wrote, nothing else."""
    names = ["v0", "v1", "v2"]
    senders = [KeyPair.generate(f"opcounts-sender-{i}") for i in range(4)]
    kernel = Kernel(seed=21)
    network = Network(kernel)
    state = StateDB()
    for sender in senders:
        state.credit(sender.address, 10**6)
    for i in range(500):  # bystanders, so that the trie has paths to copy
        state.credit(f"opcounts-holder-{i}", 1)
    engine = ProofOfAuthority(
        names, {name: KeyPair.generate(name) for name in names}, block_interval_s=0.5
    )
    nodes = make_network_nodes(
        kernel, network, names, make_genesis(state.state_root()), state, lambda: engine
    )
    txs = [
        make_transfer(sender, "opcounts-dest", 1 + nonce, nonce=nonce)
        for nonce in range(4)
        for sender in senders
    ]
    digests = {tx.signing_digest() for tx in txs}

    verified = {"tx": 0, "seal": 0}
    original = PublicKey.verify

    def counted(self, message, signature):
        verified["tx" if message in digests else "seal"] += 1
        return original(self, message, signature)

    monkeypatch.setattr(PublicKey, "verify", counted)

    structure = {"proposer": 0, "follower": 0}
    validate_structure = Block.validate_structure

    def counted_structure(block):
        frame = sys._getframe(1)  # whose call is it: the nearest node up the stack
        while not isinstance(frame.f_locals.get("self"), BlockchainNode):
            frame = frame.f_back
        own = frame.f_locals["self"].name == block.header.proposer
        structure["proposer" if own else "follower"] += 1
        return validate_structure(block)

    monkeypatch.setattr(Block, "validate_structure", counted_structure)

    branches = []
    build_branch = state_mod._branch
    monkeypatch.setattr(
        state_mod, "_branch", lambda children: branches.append(1) or build_branch(children)
    )
    for node in nodes.values():
        node.start()
    for i, tx in enumerate(txs):
        assert nodes[names[i % 3]].submit_tx(tx)
    kernel.run(
        until=60.0,
        stop_when=lambda: all(node.receipt(txs[-1].tx_id) for node in nodes.values())
        and len({node.head.block_id for node in nodes.values()}) == 1,
    )
    for node in nodes.values():
        node.stop()

    assert all(node.receipt(tx.tx_id).success for node in nodes.values() for tx in txs)
    assert len({node.head.block_id for node in nodes.values()}) == 1
    blocks = nodes["v0"].head.height
    _assert_within_pins(
        "sim_network",
        {
            "tx_verifications_per_committed_tx": verified["tx"] / len(txs),
            "seal_verifications_per_block_per_follower": verified["seal"] / (blocks * 2),
            "structure_validations_per_block_per_follower": structure["follower"] / (blocks * 2),
            "structure_validations_per_block_per_proposer": structure["proposer"] / blocks,
            "trie_branch_builds_per_block_per_validator": len(branches) / (blocks * 3),
        },
    )


class _CountingDict(dict):
    """A dict that reports every lookup made on it."""

    def __init__(self, data, probes):
        super().__init__(data)
        self._probes = probes

    def get(self, key, default=None):
        self._probes.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self._probes.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self._probes.append(key)
        return super().__contains__(key)


def test_steps_to_read_a_key_last_written_64_forks_below(monkeypatch):
    """A read costs one probe of the reader's own pending writes plus a trie
    descent, however many generations ago the key was written: no state in
    the lineage is consulted on the way."""
    lineage = [StateDB({f"k/{i}": i for i in range(2000)})]
    lineage[0].state_root()
    for generation in range(64):
        head = lineage[-1].fork()
        for i in range(4):
            head.set(f"k/{4 * generation + i}", [generation])
        head.state_root()
        lineage.append(head)
    steps = []
    for state in lineage:  # every dict any state of the lineage holds
        for name, value in vars(state).items():
            if type(value) is dict:
                setattr(state, name, _CountingDict(value, steps))
    is_leaf = state_mod._is_leaf
    monkeypatch.setattr(state_mod, "_is_leaf", lambda node: steps.append(node) or is_leaf(node))

    assert lineage[-1].get("k/1999") == 1999  # last written in lineage[0]
    _assert_within_pins("state_read", {"steps_64_forks_below": len(steps)})
