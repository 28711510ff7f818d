"""Tests for the append-forest (Section 4.3, Figures 4-2/4-3)."""

import pytest

from repro.storage.append_forest import AppendForest, AppendForestError


def build_forest(n_keys: int) -> AppendForest:
    forest = AppendForest()
    for key in range(1, n_keys + 1):
        forest.append_key(key, f"loc{key}")
    return forest


class TestAppendRules:
    def test_keys_must_increase(self):
        forest = build_forest(3)
        with pytest.raises(AppendForestError):
            forest.append_key(2, "dup")
        with pytest.raises(AppendForestError):
            forest.append_key(3, "dup")

    def test_range_node_entry_count_checked(self):
        forest = AppendForest()
        with pytest.raises(AppendForestError):
            forest.append(1, 3, ("only-one",))

    def test_empty_range_rejected(self):
        forest = AppendForest()
        with pytest.raises(AppendForestError):
            forest.append(5, 4, ())

    def test_eleven_node_forest_heights(self):
        # Figure 4-3: an 11-node forest = trees of 7, 3, 1 nodes
        forest = build_forest(11)
        assert forest.tree_heights() == [2, 1, 0]

    def test_figure_4_3_narration_key_12(self):
        forest = build_forest(12)
        root = forest.store.read(forest.root_address)
        assert root.hi == 12
        assert forest.store.read(root.forest).hi == 11

    def test_figure_4_3_narration_key_13(self):
        forest = build_forest(13)
        root = forest.store.read(forest.root_address)
        assert root.hi == 13
        assert root.height == 1
        assert forest.store.read(root.left).hi == 11
        assert forest.store.read(root.right).hi == 12
        assert forest.store.read(root.forest).hi == 10

    def test_figure_4_3_narration_key_14(self):
        forest = build_forest(14)
        root = forest.store.read(forest.root_address)
        assert root.hi == 14
        assert forest.store.read(root.left).hi == 10
        assert forest.store.read(root.right).hi == 13
        assert forest.store.read(root.forest).hi == 7

    def test_complete_forest_is_single_tree(self):
        for n in (1, 3, 7, 15, 31):
            forest = build_forest(n)
            assert len(forest.tree_heights()) == 1, n

    def test_at_most_two_trees_share_height(self):
        for n in range(1, 64):
            forest = build_forest(n)
            forest.check_invariants()


class TestSearch:
    def test_all_keys_findable(self):
        forest = build_forest(25)
        for key in range(1, 26):
            assert forest.search(key) == f"loc{key}"

    def test_missing_keys_raise(self):
        forest = build_forest(10)
        with pytest.raises(KeyError):
            forest.search(11)
        with pytest.raises(KeyError):
            forest.search(0)

    def test_contains(self):
        forest = build_forest(5)
        assert 3 in forest
        assert 9 not in forest

    def test_empty_forest(self):
        forest = AppendForest()
        with pytest.raises(KeyError):
            forest.search(1)
        assert forest.root_address is None
        assert forest.high_key is None

    def test_gap_in_key_space(self):
        forest = AppendForest()
        forest.append(1, 5, tuple(range(5)))
        forest.append(10, 12, tuple(range(3)))
        assert forest.search(3) == 2
        assert forest.search(11) == 1
        with pytest.raises(KeyError):
            forest.search(7)  # between the two nodes

    def test_search_cost_logarithmic(self):
        """O(log n) pointer traversals (Section 4.3)."""
        import math
        forest = build_forest(1023)
        worst = 0
        for key in range(1, 1024, 37):
            forest.search(key)
            worst = max(worst, forest.last_search_hops)
        # forest chain ≤ log2(n) trees, tree search ≤ log2(n) levels
        assert worst <= 2 * math.ceil(math.log2(1024)) + 1

    def test_range_nodes_index_many_records(self):
        # "each page sized node of the tree can index one thousand or
        # more records"
        forest = AppendForest()
        forest.append(1, 1000, tuple(f"t0:{i}" for i in range(1000)))
        forest.append(1001, 2000, tuple(f"t1:{i}" for i in range(1000)))
        assert forest.search(1) == "t0:0"
        assert forest.search(1500) == "t1:499"
        assert len(forest) == 2  # two page-sized nodes


class TestRebuild:
    def test_rebuild_matches_original(self):
        forest = build_forest(37)
        rebuilt = AppendForest(forest.store)
        rebuilt.rebuild_from_store()
        rebuilt.check_invariants()
        assert rebuilt.tree_heights() == forest.tree_heights()
        assert list(rebuilt.keys()) == list(forest.keys())
        assert rebuilt.high_key == 37

    def test_rebuild_empty(self):
        forest = AppendForest()
        forest.rebuild_from_store()
        assert forest.high_key is None

    def test_rebuild_after_torn_tail(self):
        """Losing the last page yields the previous consistent forest."""
        forest = build_forest(12)
        forest.store.truncate_tail(11)
        rebuilt = AppendForest(forest.store)
        rebuilt.rebuild_from_store()
        rebuilt.check_invariants()
        assert list(rebuilt.keys()) == list(range(1, 12))

    def test_append_continues_after_rebuild(self):
        forest = build_forest(9)
        rebuilt = AppendForest(forest.store)
        rebuilt.rebuild_from_store()
        rebuilt.append_key(10, "loc10")
        rebuilt.check_invariants()
        assert rebuilt.search(10) == "loc10"
        assert rebuilt.search(1) == "loc1"


class TestWriteOnceDiscipline:
    def test_all_pointers_point_backwards(self):
        """Every pointer names an earlier page: write-once safe."""
        forest = build_forest(50)
        for address in range(len(forest.store)):
            node = forest.store.read(address)
            for pointer in (node.left, node.right, node.forest):
                if pointer is not None:
                    assert pointer < address

    def test_nodes_never_rewritten(self):
        forest = build_forest(20)
        assert forest.store.appends == 20  # exactly one append per key
