"""SimChain assembles the same chain the hand-built golden scenario does.

``tests/integration/test_state_equivalence.py`` pins one scenario whose
kernel, network, funded genesis, PoA engine and nodes are put together by
hand.  Run through :class:`SimChain` it must give the same state root,
receipts hash and head block id: any change to the order of the assembly
or to what the chain's defaults build shows up here as a changed pin.
"""

from repro.chain.transactions import make_call, make_deploy, make_transfer
from repro.common.signatures import KeyPair
from repro.consensus.node import NodeConfig
from repro.consensus.simchain import SimChain
from repro.contracts.library import DATA_REGISTRY_SOURCE

from tests.integration.test_state_equivalence import (
    GOLDEN_HEAD_BLOCK_ID,
    GOLDEN_RECEIPTS_HASH,
    GOLDEN_STATE_ROOT,
    _receipts_hash,
)


def test_the_golden_scenario_through_simchain_hits_every_pin():
    owner = KeyPair.generate("golden-owner")
    chain = SimChain(
        ["n0", "n1", "n2"],
        {owner.address: 10**9},
        block_interval_s=1.0,
        config=NodeConfig(max_txs_per_block=5, state_prune_window=64),
        seed=7,
    )
    entry = chain.nodes["n0"]
    deploy = make_deploy(owner, "registry", DATA_REGISTRY_SOURCE, nonce=0, gas_limit=10**9)
    txs = [deploy]
    entry.submit_tx(deploy)
    chain.kernel.run(until=30)
    contract_id = entry.receipt(deploy.tx_id).output
    for index in range(6):
        args = {
            "dataset_id": f"ds-{index}",
            "site": "n0",
            "schema": "s",
            "record_count": 10 + index,
            "merkle_root": "ab" * 32,
        }
        txs.append(
            make_call(owner, contract_id, "register_dataset", args, nonce=1 + index, gas_limit=10**8)
        )
    n1 = KeyPair.generate("n1").address
    txs.append(make_transfer(owner, n1, 1234, nonce=7))
    for tx in txs[1:]:
        entry.submit_tx(tx)
    chain.kernel.run(until=120)
    roots = {name: node.state.state_root().hex() for name, node in chain.nodes.items()}
    assert set(roots.values()) == {GOLDEN_STATE_ROOT}, roots
    assert _receipts_hash(entry, txs) == GOLDEN_RECEIPTS_HASH
    assert entry.head.block_id == GOLDEN_HEAD_BLOCK_ID


def test_the_default_engine_seals_every_block_interval():
    chain = SimChain(["n0"], {}, block_interval_s=0.25, config=NodeConfig(mine_empty=True))
    chain.kernel.run(until=1.1)
    stamps = [block.header.timestamp_ms for block in chain.nodes["n0"].store.canonical_chain()]
    assert stamps[1:] == [250, 500, 750, 1000]
