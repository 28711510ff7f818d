"""Property-based tests for the append-forest."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.append_forest import AppendForest


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=0, max_value=200))
def test_invariants_hold_for_any_size(n):
    forest = AppendForest()
    for key in range(1, n + 1):
        forest.append_key(key, key * 10)
    forest.check_invariants()
    assert list(forest.keys()) == list(range(1, n + 1))


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.integers(min_value=1, max_value=9),
                  min_size=1, max_size=40)
)
def test_sparse_keys_all_findable(gaps):
    """Keys with arbitrary gaps: every appended key stays findable."""
    forest = AppendForest()
    key = 0
    keys = []
    for gap in gaps:
        key += gap
        forest.append_key(key, f"v{key}")
        keys.append(key)
    forest.check_invariants()
    for k in keys:
        assert forest.search(k) == f"v{k}"
    # and keys in the gaps are absent
    present = set(keys)
    for k in range(1, key + 1):
        if k not in present:
            try:
                forest.search(k)
            except KeyError:
                continue
            raise AssertionError(f"phantom key {k}")


@settings(max_examples=40, deadline=None)
@given(
    spans=st.lists(st.integers(min_value=1, max_value=50),
                   min_size=1, max_size=25)
)
def test_range_nodes_cover_every_key(spans):
    """Range-keyed nodes: each key in each range maps to its entry."""
    forest = AppendForest()
    lo = 1
    expected = {}
    for span in spans:
        hi = lo + span - 1
        entries = tuple(f"{lo}+{i}" for i in range(span))
        forest.append(lo, hi, entries)
        for i in range(span):
            expected[lo + i] = f"{lo}+{i}"
        lo = hi + 1
    forest.check_invariants()
    for key, value in expected.items():
        assert forest.search(key) == value


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    cut=st.integers(min_value=0, max_value=120),
)
def test_rebuild_from_any_prefix(n, cut):
    """Rebuilding from any durable prefix gives a valid forest."""
    forest = AppendForest()
    for key in range(1, n + 1):
        forest.append_key(key, key)
    keep = min(cut, len(forest.store))
    forest.store.truncate_tail(keep)
    rebuilt = AppendForest(forest.store)
    rebuilt.rebuild_from_store()
    rebuilt.check_invariants()
    assert list(rebuilt.keys()) == list(range(1, keep + 1))
