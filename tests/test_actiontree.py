"""Tests for the Persistent Action Tree (PAT)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actiontree import EMPTY, ActionTreeStore, _priority


class TestBasics:
    def setup_method(self):
        self.store = ActionTreeStore()

    def test_empty(self):
        assert self.store.size(EMPTY) == 0
        assert self.store.get(EMPTY, 1) is None
        assert self.store.get(EMPTY, 1, "d") == "d"
        assert self.store.to_dict(EMPTY) == {}

    def test_set_get(self):
        root = self.store.set(EMPTY, 3, "a")
        root = self.store.set(root, 1, "b")
        assert self.store.get(root, 3) == "a"
        assert self.store.get(root, 1) == "b"
        assert self.store.get(root, 2) is None
        assert self.store.size(root) == 2

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
        for k in [5, 1, 9, 3, 7]:
            a = self.store.set(a, k, k * 10)
        b = EMPTY
        for k in [9, 7, 5, 3, 1]:
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

    def test_overwrite_of_present_keys_compares_no_priorities(self):
        root = self.store.build({k: "a" for k in range(40)})
        calls = []
        prio_less = self.store._prio_less

        def counted(a, b):
            calls.append((a, b))
            return prio_less(a, b)

        self.store._prio_less = counted
        new = self.store.overwrite(root, {k: "b" for k in range(0, 40, 3)})
        assert calls == []
        assert self.store.to_dict(new) == {
            k: "b" if k % 3 == 0 else "a" for k in range(40)
        }
        self.store.overwrite(root, {40: "b"})
        assert calls  # an absent key still goes through set

    def test_delete(self):
        root = self.store.build({1: "a", 2: "b", 3: "c"})
        smaller = self.store.delete(root, 2)
        assert self.store.to_dict(smaller) == {1: "a", 3: "c"}
        assert self.store.delete(smaller, 99) == smaller  # absent: no-op
        assert self.store.to_dict(root) == {1: "a", 2: "b", 3: "c"}

    def test_treap_ranks_are_computed_once_per_key(self):
        root = EMPTY
        for step in range(200):
            root = self.store.set(root, step % 7, step)
        root = self.store.delete(root, 3)
        assert sorted(self.store._rank) == list(range(7))
        assert all(self.store._rank[k] == (_priority(k), k) for k in range(7))

    def test_items_in_order(self):
        root = self.store.build({5: "e", 1: "a", 3: "c"})
        assert list(self.store.to_dict(root).items()) == [
            (1, "a"), (3, "c"), (5, "e")
        ]

    def test_contains(self):
        root = self.store.set(EMPTY, 1, None)  # None value still "present"
        assert self.store.contains(root, 1)
        assert not self.store.contains(root, 2)


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 5)), max_size=40
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_dict_semantics(self, operations):
        store = ActionTreeStore()
        root = EMPTY
        reference = {}
        for key, value in operations:
            root = store.set(root, key, value)
            reference[key] = value
        assert store.to_dict(root) == reference
        assert store.size(root) == len(reference)

    @given(
        st.dictionaries(st.integers(0, 30), st.integers(0, 3), max_size=20),
        st.dictionaries(st.integers(0, 30), st.integers(0, 3), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_canonical_ids(self, items_a, items_b):
        """Equal mappings yield equal ids; different mappings different ids."""
        store = ActionTreeStore()
        a = store.build(items_a)
        b = store.build(items_b)
        assert (a == b) == (items_a == items_b)

    @given(
        st.dictionaries(st.integers(0, 30), st.integers(0, 3), max_size=20),
        st.dictionaries(st.integers(0, 30), st.integers(0, 3), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_overwrite_is_a_set_fold(self, items, delta):
        store = ActionTreeStore()
        root = store.build(items)
        folded = root
        for key in sorted(delta):
            folded = store.set(folded, key, delta[key])
        assert store.overwrite(root, delta) == folded

    @given(st.dictionaries(st.integers(0, 200), st.integers(0, 3), min_size=30))
    @settings(max_examples=20, deadline=None)
    def test_treap_stays_balanced(self, items):
        store = ActionTreeStore()
        root = store.build(items)
        # Expected depth ~ 2-3·log2(n); allow generous slack.
        assert store.depth(root) <= 6 * max(1, len(items).bit_length())

    @given(
        st.dictionaries(st.integers(0, 30), st.integers(0, 3), min_size=1),
        st.lists(st.integers(0, 30), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_delete_matches_dict(self, items, removals):
        store = ActionTreeStore()
        root = store.build(items)
        reference = dict(items)
        for key in removals:
            root = store.delete(root, key)
            reference.pop(key, None)
        assert store.to_dict(root) == reference
