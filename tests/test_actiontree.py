"""Tests for the Persistent Action Tree (PAT)."""

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actiontree import EMPTY, FAN, ActionTreeStore


class TestBasics:
    def setup_method(self):
        self.store = ActionTreeStore()

    def test_empty(self):
        assert self.store.get(EMPTY, 1) is None
        assert self.store.get(EMPTY, 1, "d") == "d"
        assert self.store.get(EMPTY, 10**6, "d") == "d"
        assert self.store.to_dict(EMPTY) == {}

    def test_set_get(self):
        root = self.store.set(EMPTY, 3, "a")
        root = self.store.set(root, 1, "b")
        assert self.store.get(root, 3) == "a"
        assert self.store.get(root, 1) == "b"
        assert self.store.get(root, 2) is None
        assert self.store.get(root, -1, "d") == "d"

    def test_none_is_an_action(self):
        root = self.store.set(EMPTY, 1, None)
        assert root != EMPTY
        assert self.store.get(root, 1, "d") is None
        assert self.store.to_dict(root) == {1: None}

    def test_persistence(self):
        root1 = self.store.set(EMPTY, 1, "x")
        root2 = self.store.set(root1, 1, "y")
        assert self.store.get(root1, 1) == "x"
        assert self.store.get(root2, 1) == "y"

    def test_set_same_value_is_identity(self):
        root = self.store.set(EMPTY, 1, "x")
        assert self.store.set(root, 1, "x") == root

    def test_order_independence_gives_same_id(self):
        a = EMPTY
        for k in [5, 1, 900, 3, 70]:
            a = self.store.set(a, k, k * 10)
        b = EMPTY
        for k in [900, 70, 5, 3, 1]:
            b = self.store.set(b, k, k * 10)
        assert a == b  # hash-consing: structural equality is id equality

    def test_build_equals_sets(self):
        items = {4: "d", 2: "b", 8: "h"}
        built = self.store.build(items)
        manual = EMPTY
        for k, v in items.items():
            manual = self.store.set(manual, k, v)
        assert built == manual

    def test_uniform(self):
        root = self.store.uniform([0, 1, 2], "DROP")
        assert self.store.to_dict(root) == {0: "DROP", 1: "DROP", 2: "DROP"}

    def test_overwrite(self):
        root = self.store.uniform([0, 1, 2], 0)
        new = self.store.overwrite(root, {1: 9, 2: 8})
        assert self.store.to_dict(new) == {0: 0, 1: 9, 2: 8}
        assert self.store.to_dict(root) == {0: 0, 1: 0, 2: 0}

    def test_overwrite_identity_when_unchanged(self):
        root = self.store.uniform([0, 1], 5)
        assert self.store.overwrite(root, {0: 5}) == root

    def test_overwrite_equals_set_fold(self):
        root = self.store.build({k: k % 3 for k in range(0, 30, 2)})
        for delta in (
            {4: 9, 10: 8, 28: 7},  # every key present
            {5: 1, 31: 2},  # every key absent
            {0: 5, 7: 5, 12: 0, 29: 6},  # some of each, one unchanged
        ):
            folded = root
            for key in sorted(delta):
                folded = self.store.set(folded, key, delta[key])
            assert self.store.overwrite(root, delta) == folded

    def test_items_in_order(self):
        root = self.store.build({5: "e", 300: "z", 1: "a", 17: "q", 3: "c"})
        assert list(self.store.to_dict(root).items()) == [
            (1, "a"), (3, "c"), (5, "e"), (17, "q"), (300, "z")
        ]

    def test_root_is_as_shallow_as_the_largest_id(self):
        small = self.store.build({0: "a"})
        grown = self.store.set(small, FAN * FAN, "b")  # two levels up
        assert self.store.set(grown, FAN * FAN, "a") == self.store.build(
            {0: "a", FAN * FAN: "a"}
        )
        assert self.store.get(grown, 0) == "a"
        assert self.store.get(small, FAN * FAN) is None


# Dense low ids, ids that grow the root past one leaf (>= 16) and past one
# inner level (>= 256), and sparse ones far apart.
KEYS = st.one_of(
    st.integers(0, FAN - 1),
    st.integers(FAN, FAN * FAN + 40),
    st.integers(0, 5000),
)
ACTIONS = st.one_of(st.integers(0, 4), st.none(), st.tuples(st.integers(0, 3)))
MAPPINGS = st.dictionaries(KEYS, ACTIONS, max_size=24)


def _levels(mapping):
    """The depth of the one tree that holds ``mapping``."""
    top = max(mapping, default=0)
    levels = 1
    while top >= FAN**levels:
        levels += 1
    return levels


class TestProperties:
    @given(MAPPINGS, st.lists(MAPPINGS, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_semantics(self, items, deltas):
        """``get`` / ``to_dict`` agree with a dict at every step, and an
        old id still reads its old mapping after later overwrites."""
        store = ActionTreeStore()
        roots = [(store.build(items), dict(items))]
        for delta in deltas:
            root, model = roots[-1]
            roots.append((store.overwrite(root, delta), {**model, **delta}))
        probes = set(items).union(*deltas) | {0, FAN, FAN * FAN, 6000}
        for root, model in roots:
            assert list(store.to_dict(root).items()) == sorted(model.items())
            for key in probes:
                assert store.get(root, key, "absent") == model.get(key, "absent")

    @given(MAPPINGS, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_equal_mappings_get_equal_ids(self, items, rng):
        """However a mapping is reached, its id is the same."""
        store = ActionTreeStore()
        order = list(items)
        rng.shuffle(order)
        one_by_one = EMPTY
        for key in order:
            one_by_one = store.set(one_by_one, key, items[key])
        # A detour: set every key to a stale action first, then overwrite.
        detour = store.overwrite(store.build(dict.fromkeys(order, "stale")), items)
        assert one_by_one == store.build(items) == detour

    @given(MAPPINGS, MAPPINGS)
    @settings(max_examples=100, deadline=None)
    def test_canonical_ids(self, items_a, items_b):
        store = ActionTreeStore()
        assert (store.build(items_a) == store.build(items_b)) == (
            items_a == items_b
        )

    @given(MAPPINGS, st.dictionaries(KEYS, ACTIONS, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_overwrite_is_a_set_fold(self, items, delta):
        store = ActionTreeStore()
        root = store.build(items)
        folded = root
        for key in sorted(delta):
            folded = store.set(folded, key, delta[key])
        assert store.overwrite(root, delta) == folded

    @given(MAPPINGS.filter(bool), st.data())
    @settings(max_examples=100, deadline=None)
    def test_present_key_overwrite_copies_one_path(self, items, data):
        """A single-key overwrite of a present key makes at most one new
        node per level of the tree."""
        store = ActionTreeStore()
        root = store.build(items)
        key = data.draw(st.sampled_from(sorted(items)))
        before = store.num_nodes
        new = store.overwrite(root, {key: "new"})
        assert store.num_nodes - before <= _levels(items)
        assert store.to_dict(new) == {**items, key: "new"}


def test_readers_see_whole_vectors_while_the_writer_appends():
    """Serve readers read the writer's store while it appends: every id a
    reader is handed must already read its whole mapping."""
    store = ActionTreeStore()
    published = [(EMPTY, {})]
    done = threading.Event()
    errors = []

    def write():
        rng = random.Random(7)
        root, model = published[-1]
        try:
            for _ in range(3000):
                delta = {rng.randrange(600): rng.randrange(4) for _ in range(3)}
                root, model = store.overwrite(root, delta), {**model, **delta}
                published.append((root, model))
        finally:
            done.set()

    def read(seed):
        rng = random.Random(seed)
        while not done.is_set():
            root, model = published[rng.randrange(len(published))]
            if store.to_dict(root) != model:
                errors.append(root)
            key = rng.randrange(600)
            if store.get(root, key, "absent") != model.get(key, "absent"):
                errors.append((root, key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=read, args=(seed,), daemon=True)
            for seed in range(3)
        ]
        threads.append(threading.Thread(target=write, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert done.is_set() and len(published) == 3001
    assert errors == []
