"""Bit-identicality gate for the state layer.

The golden hashes below pin one scenario end to end: state roots feed block
hashes, so any drift here is a consensus break, not a formatting nit.

The header commitment changed once, deliberately, when ``state_root()``
became the root of the Merkle trie (DESIGN.md §17): ``GOLDEN_STATE_ROOT``
and ``GOLDEN_HEAD_BLOCK_ID`` were re-pinned in that one commit.  Their
previous values are kept as ``LEGACY_*`` pins of the *content* — the
SHA-256 of the canonical JSON of the same final state, which is what the
root used to be — so the re-pin is provably the commitment function moving
and nothing else: same state, same receipts, same txs, timestamps and
proposers in every block.

The two head-id pins (and only those) moved a second time when every node
began gossiping through ``repro.p2p``: blocks carry the same transactions
in the same partition from the same proposers, but their *timestamps*
shift — a submitted tx now reaches the next proposer over announce /
get_data / body instead of one flood hop, and the ping timers keep the sim
clock running to each ``kernel.run(until=...)`` bound instead of stopping
when the queue drains (block 1 at 1100 ms instead of 1020, block 2 at
31060 instead of 2080).  State root, content digest and receipts hash are
byte-identical.
"""

import sys
from pathlib import Path

from repro.chain.blocks import build_block, make_genesis
from repro.chain.state import StateDB
from repro.chain.transactions import make_call, make_deploy, make_transfer
from repro.common.hashing import hash_value, hash_value_hex
from repro.common.signatures import KeyPair
from repro.consensus.node import NodeConfig, make_network_nodes
from repro.consensus.poa import ProofOfAuthority
from repro.contracts.library import DATA_REGISTRY_SOURCE
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "chain"))
from root_oracle import oracle_root  # noqa: E402

GOLDEN_STATE_ROOT = (
    "b87dd97fc0e3893e75faf0401003ec35c62dfbb02fd660d128dff7a4ce0d47eb"
)
# sha256(canonical_bytes(final state dict)): GOLDEN_STATE_ROOT's value before
# the trie, now a pin of the content the root commits to.
LEGACY_STATE_CONTENT_DIGEST = (
    "7727f5269c19af523908eb88a00cb6b256e4d695fb8a1beb3b934e451ee822ac"
)
# Receipts hash and head block id embed tx ids, so they were re-pinned when
# the fee-market fields (max_fee_per_gas / priority_fee_per_gas) entered the
# transaction signing digest.  The state root is pinned to the original seed:
# fees are admission signals only and must never leak into execution.
GOLDEN_RECEIPTS_HASH = (
    "d5f62687543102ff3df9474db79c0c741b409d6597ca4bd2e1baf22fce692833"
)
GOLDEN_HEAD_BLOCK_ID = (
    "599a855d8553c840f3a5ae480a52e09a794cbdf9bdf1556daa7dcdb466d679b9"
)
# GOLDEN_HEAD_BLOCK_ID's value before the trie: the head id of the same
# chain with each header's root replaced by its state's content digest.
LEGACY_HEAD_BLOCK_ID = (
    "2ad45c942ce84ef8e2390f45cd976adbda842f1167cc1858fe306be13da0d20f"
)


def _run_scenario(state_prune_window: int = 64):
    kernel = Kernel(seed=7)
    metrics = MetricsRegistry()
    network = Network(kernel, metrics)
    owner = KeyPair.generate("golden-owner")
    state = StateDB()
    state.credit(owner.address, 10**9)
    genesis = make_genesis(state.state_root())
    names = [f"n{i}" for i in range(3)]
    keypairs = {name: KeyPair.generate(name) for name in names}
    engine = ProofOfAuthority(names, keypairs, block_interval_s=1.0)
    nodes = make_network_nodes(
        kernel,
        network,
        names,
        genesis,
        state,
        lambda: engine,
        metrics=metrics,
        config=NodeConfig(
            max_txs_per_block=5, state_prune_window=state_prune_window
        ),
    )
    for node in nodes.values():
        node.start()
    entry = nodes["n0"]
    txs = []
    deploy = make_deploy(
        owner, "registry", DATA_REGISTRY_SOURCE, nonce=0, gas_limit=10**9
    )
    txs.append(deploy)
    entry.submit_tx(deploy)
    kernel.run(until=30)
    contract_id = entry.receipt(deploy.tx_id).output
    nonce = 1
    for index in range(6):
        tx = make_call(
            owner,
            contract_id,
            "register_dataset",
            {
                "dataset_id": f"ds-{index}",
                "site": "n0",
                "schema": "s",
                "record_count": 10 + index,
                "merkle_root": "ab" * 32,
            },
            nonce=nonce,
            gas_limit=10**8,
        )
        nonce += 1
        txs.append(tx)
        entry.submit_tx(tx)
    transfer = make_transfer(owner, keypairs["n1"].address, 1234, nonce=nonce)
    txs.append(transfer)
    entry.submit_tx(transfer)
    kernel.run(until=120)
    return nodes, names, entry, txs


def _receipts_hash(entry, txs):
    receipts = []
    for tx in txs:
        receipt = entry.receipt(tx.tx_id)
        receipts.append(
            {
                "tx_id": receipt.tx_id,
                "success": receipt.success,
                "gas_used": receipt.gas_used,
                "output": receipt.output,
                "error": receipt.error,
                "events": [
                    [
                        event.contract_id,
                        event.name,
                        event.data,
                        event.tx_id,
                        event.block_height,
                    ]
                    for event in receipt.events
                ],
            }
        )
    return hash_value_hex(receipts, allow_float=False)


def _content_digest(state: StateDB) -> bytes:
    return hash_value(state.to_dict(), allow_float=False)


def _head_id_under_content_digest_roots(node) -> str:
    """Re-seal the node's canonical chain with the pre-trie commitment in
    every header; everything else in each block is taken as executed."""
    chain = [node.head]
    while chain[-1].height:
        chain.append(node.store.get(chain[-1].header.parent_hash.hex()))
    chain.reverse()
    legacy = make_genesis(_content_digest(node._executed[chain[0].block_id].state))
    for block in chain[1:]:
        unsealed = build_block(
            legacy,
            block.transactions,
            _content_digest(node._executed[block.block_id].state),
            block.header.proposer,
            block.header.timestamp_ms,
        )
        legacy = node.consensus.seal(block.header.proposer, unsealed)
    return legacy.block_id


def test_state_roots_receipts_and_blocks_bit_identical_to_seed():
    nodes, names, entry, txs = _run_scenario()
    roots = {name: nodes[name].state.state_root().hex() for name in names}
    assert set(roots.values()) == {GOLDEN_STATE_ROOT}, roots
    assert _receipts_hash(entry, txs) == GOLDEN_RECEIPTS_HASH
    assert entry.head.block_id == GOLDEN_HEAD_BLOCK_ID


def test_only_the_commitment_function_moved_in_the_repin():
    nodes, names, entry, _ = _run_scenario()
    for name in names:
        assert _content_digest(nodes[name].state).hex() == LEGACY_STATE_CONTENT_DIGEST
    assert _head_id_under_content_digest_roots(entry) == LEGACY_HEAD_BLOCK_ID


def test_incremental_machinery_agrees_with_naive_recomputation():
    nodes, names, entry, _ = _run_scenario()
    for name in names:
        node = nodes[name]
        # Every retained per-block state, not just the head: each was rooted
        # incrementally on top of its parent's trie.
        for state in (record.state for record in node._executed.values()):
            assert state.state_root() == oracle_root(state.to_dict())


def test_aggressive_pruning_does_not_change_consensus_results():
    nodes, names, entry, txs = _run_scenario(state_prune_window=1)
    roots = {name: nodes[name].state.state_root().hex() for name in names}
    assert set(roots.values()) == {GOLDEN_STATE_ROOT}, roots
    assert _receipts_hash(entry, txs) == GOLDEN_RECEIPTS_HASH
    assert entry.head.block_id == GOLDEN_HEAD_BLOCK_ID
    # The retained state map is bounded by the window, not chain length.
    for name in names:
        node = nodes[name]
        assert len(node._executed) <= node.store.height + 1
        assert len(node._executed) <= 1 + 2  # boundary + head window + slack
