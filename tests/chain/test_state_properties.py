"""Property tests for the versioned state layer.

The journaled :class:`StateDB` is checked against a *model*: a plain dict
with full-copy snapshots (the semantics of the historical implementation).
Any divergence between the journal/fork machinery and the model under a
randomized operation sequence is a consensus bug.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from root_oracle import oracle_root

from repro.chain.state import StateDB

_KEYS = st.text(alphabet="abcxyz/", min_size=1, max_size=6)
_VALUES = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.text(alphabet="qrstuv", max_size=6),
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
    st.dictionaries(
        st.text(alphabet="mn", min_size=1, max_size=2),
        st.integers(min_value=0, max_value=99),
        max_size=2,
    ),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _KEYS, _VALUES),
        st.tuples(st.just("delete"), _KEYS, st.none()),
        st.tuples(st.just("snapshot"), st.none(), st.none()),
        st.tuples(st.just("commit"), st.none(), st.none()),
        st.tuples(st.just("rollback"), st.none(), st.none()),
    ),
    max_size=40,
)


class _ModelState:
    """Reference semantics: full-copy snapshots over a plain dict."""

    def __init__(self, data=None):
        self.data = dict(data or {})
        self.snapshots = []

    def apply(self, op, key, value):
        if op == "set":
            self.data[key] = copy.deepcopy(value)
        elif op == "delete":
            self.data.pop(key, None)
        elif op == "snapshot":
            self.snapshots.append(copy.deepcopy(self.data))
        elif op == "commit":
            if self.snapshots:
                self.snapshots.pop()
            else:
                return False
        elif op == "rollback":
            if self.snapshots:
                self.data = self.snapshots.pop()
            else:
                return False
        return True


def _apply_to_state(state, op, key, value):
    if op == "set":
        state.set(key, value)
    elif op == "delete":
        state.delete(key)
    elif op == "snapshot":
        state.snapshot()
    elif op in ("commit", "rollback"):
        if state.journal_depth == 0:
            return False
        getattr(state, op)()
    return True


class TestJournalProperties:
    @settings(max_examples=60)
    @given(
        st.dictionaries(_KEYS, _VALUES, max_size=8),
        st.lists(
            st.one_of(
                st.tuples(st.just("set"), _KEYS, _VALUES),
                st.tuples(st.just("delete"), _KEYS, st.none()),
            ),
            max_size=20,
        ),
    )
    def test_rollback_round_trip_restores_exact_state(self, initial, writes):
        state = StateDB(dict(initial))
        before_dict = state.to_dict()
        before_root = state.state_root()
        state.snapshot()
        for op, key, value in writes:
            _apply_to_state(state, op, key, value)
        state.rollback()
        assert state.to_dict() == before_dict
        assert state.state_root() == before_root

    @settings(max_examples=60)
    @given(_OPS)
    def test_nested_interleavings_match_full_copy_model(self, ops):
        state = StateDB()
        model = _ModelState()
        for op, key, value in ops:
            if model.apply(op, key, value):
                _apply_to_state(state, op, key, value)
        assert state.to_dict() == model.data
        assert state.state_root() == oracle_root(model.data)

    @settings(max_examples=40)
    @given(_OPS, _OPS)
    def test_overlay_matches_model_and_never_touches_parent(self, base_ops, fork_ops):
        state = StateDB()
        model = _ModelState()
        for op, key, value in base_ops:
            if model.apply(op, key, value):
                _apply_to_state(state, op, key, value)
        while state.journal_depth:
            state.commit()
        model.snapshots = []
        parent_dict = state.to_dict()
        overlay = state.fork()
        fork_model = _ModelState(copy.deepcopy(model.data))
        for op, key, value in fork_ops:
            if fork_model.apply(op, key, value):
                _apply_to_state(overlay, op, key, value)
        assert overlay.to_dict() == fork_model.data
        assert overlay.state_root() == oracle_root(fork_model.data)
        assert state.to_dict() == parent_dict


_SHAPE_OPS = ["snapshot", "commit", "rollback", "fork"]

# One step of a walk over a tree of forks: the operation, whether a root is
# taken right after it, and which of the states forked so far it lands on.
_TREE_OPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("set"), _KEYS, _VALUES),
            st.tuples(st.just("delete"), _KEYS, st.none()),
            st.tuples(st.sampled_from(_SHAPE_OPS), st.none(), st.none()),
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=60,
)


def _walk_against_oracle(initial, ops):
    """Drive a growing tree of forks through ``ops``, each state beside its
    own plain-dict model.  ``fork`` adds a state; every other operation lands
    on whichever state the step picks, so parents keep writing, rolling back
    and rooting after they were forked, and so do their children.  Whenever a
    root is taken — inside a snapshot, on a fresh fork — it must be the
    oracle's root of that state's model, and at the end every state in the
    tree must hold exactly its model: nothing any other state did shows."""
    tree = [(StateDB(dict(initial)), _ModelState(initial))]
    for (op, key, value), take_root, pick in ops:
        state, model = tree[pick % len(tree)]
        if op == "fork":
            if state.journal_depth == 0:
                tree.append((state.fork(), _ModelState(copy.deepcopy(model.data))))
        elif model.apply(op, key, value):
            _apply_to_state(state, op, key, value)
        if take_root:
            assert state.state_root() == oracle_root(model.data)
    for state, model in tree:
        assert state.to_dict() == model.data
        assert dict(state.items()) == model.data
        assert state.keys_with_prefix("") == sorted(model.data)
        assert len(state) == len(model.data)
        assert all(state.get(key) == value for key, value in model.data.items())
        assert state.state_root() == oracle_root(model.data)


class TestRootEquivalenceProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(_KEYS, _VALUES, max_size=8), _TREE_OPS)
    def test_incremental_roots_match_recomputation(self, initial, ops):
        _walk_against_oracle(initial, ops)

    def test_long_seeded_walks_match_recomputation(self):
        # Hypothesis keeps its sequences short (a handful of ops); these
        # run long enough to grow a tree of forks, nest snapshots and
        # revisit keys on every branch.
        for seed in range(25):
            rng = random.Random(seed)
            keys = [f"k/{i}" for i in range(24)]
            ops = []
            for _ in range(400):
                roll = rng.random()
                if roll < 0.45:
                    op = ("set", rng.choice(keys), [rng.randrange(5)])
                elif roll < 0.65:
                    op = ("delete", rng.choice(keys), None)
                elif roll < 0.97:
                    op = (rng.choice(_SHAPE_OPS[:3]), None, None)
                else:
                    op = ("fork", None, None)
                ops.append((op, rng.random() < 0.3, rng.randrange(8)))
            _walk_against_oracle({key: 0 for key in keys[::2]}, ops)

    @settings(max_examples=30)
    @given(
        st.dictionaries(_KEYS, _VALUES, max_size=10),
        st.lists(
            st.one_of(
                st.tuples(st.just("set"), _KEYS, _VALUES),
                st.tuples(st.just("delete"), _KEYS, st.none()),
            ),
            max_size=15,
        ),
    )
    def test_overlay_incremental_root_matches_recomputation(self, initial, diff):
        base = StateDB(dict(initial))
        base_root = base.state_root()  # the overlay starts from this trie
        overlay = base.fork()
        for op, key, value in diff:
            _apply_to_state(overlay, op, key, value)
        assert overlay.state_root() == oracle_root(overlay.to_dict())
        assert base.state_root() == base_root == oracle_root(initial)

    @settings(max_examples=40)
    @given(
        st.dictionaries(_KEYS, _VALUES, max_size=12),
        st.dictionaries(_KEYS, _VALUES, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_root_depends_on_the_pairs_not_on_how_they_got_there(
        self, pairs, doomed, rng
    ):
        doomed = {k: v for k, v in doomed.items() if k not in pairs}
        writes = list(pairs.items()) + list(doomed.items())
        rng.shuffle(writes)
        state = StateDB()
        for index, (key, value) in enumerate(writes):
            state.set(key, value)
            if index % 3 == 0:
                state.state_root()
        deletes = list(doomed)
        rng.shuffle(deletes)
        for key in deletes:
            state.delete(key)
        assert state.state_root() == StateDB(pairs).state_root() == oracle_root(pairs)
