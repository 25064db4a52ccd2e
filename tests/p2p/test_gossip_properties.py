"""Gossip liveness under seeded loss, partition and heal schedules.

Announces are notifications nobody answers and a node skips every peer it
knows to hold an id, so a lost announce is never re-sent by the protocol
that lost it.  What must still hold: once the network heals, every
transaction a node admitted reaches every node — pooled or committed —
through relays, fetch failover and retry, the on-connect inventory after an
eviction, or the blocks that carry it, and no node is ever sent a body it
already had.  The validators seal empty blocks too, so the chain keeps
growing and a fork made during a partition is decided after the heal (two
branches of equal height on an idle chain are consensus's to break, not
gossip's).  Part of the scheduled ``ci-stress`` deep-fuzz profile.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.sim.network import LinkSpec

from tests.p2p.conftest import P2PWorld

NAMES = ["n0", "n1", "n2", "n3"]
ALICE = KeyPair.generate("alice")

windows = st.lists(
    st.tuples(
        st.floats(0.0, 4.0),  # opens this long after the previous window closed
        st.floats(0.5, 6.0),  # and lasts this long
        st.sets(st.sampled_from(NAMES), min_size=1, max_size=3),  # one side of the cut
    ),
    max_size=2,
)
submissions = st.lists(
    st.tuples(st.floats(0.0, 8.0), st.sampled_from(NAMES)),  # when, and where
    min_size=1,
    max_size=5,
)


# A fifth of the profile's examples: each one runs a 4-node chain for ~20 s of sim time.
@settings(
    max_examples=max(1, settings.default.max_examples // 5),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**16),
    loss=st.sampled_from([0.0, 0.05, 0.2]),
    windows=windows,
    submissions=submissions,
)
def test_after_the_heal_every_admitted_tx_is_on_every_node(seed, loss, windows, submissions):
    world = P2PWorld(ALICE, n_validators=len(NAMES), seed=seed, mine_empty=True)
    kernel, network = world.kernel, world.network
    start = kernel.now
    network.default_link = LinkSpec(loss_rate=loss)

    at = start
    for gap, length, side in windows:
        opened = at + gap
        kernel.schedule(opened - kernel.now, lambda side=side: network.partition(
            side, set(NAMES) - side
        ))
        at = opened + length
        kernel.schedule(at - kernel.now, network.heal)
    heal_at = max(at, start + max(when for when, _ in submissions)) + 0.01

    admitted = []

    def submit(nonce, name):
        tx = make_transfer(ALICE, "sink", 1, nonce=nonce)
        if world.nodes[name].submit_tx(tx):
            admitted.append(tx)

    for nonce, (when, name) in enumerate(sorted(submissions)):
        kernel.schedule(start + when - kernel.now, lambda n=nonce, m=name: submit(n, m))
    kernel.run(until=heal_at)
    network.heal()
    network.default_link = LinkSpec()

    def everywhere():
        return all(
            tx.tx_id in node.mempool or node.receipt(tx.tx_id)
            for tx in admitted
            for node in world.nodes.values()
        )

    kernel.run(until=kernel.now + 60.0, stop_when=everywhere)
    assert admitted
    assert everywhere(), f"not on every node {kernel.now - heal_at:.1f}s after the heal"
    assert world.metrics.counter_total("p2p_duplicate_bodies") == 0
