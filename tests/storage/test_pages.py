"""Tests for append-only page stores."""

import pytest

from repro.storage.pages import AppendOnlyPageStore, PageStoreError, ReusablePageStore


class TestAppendOnlyPageStore:
    def test_addresses_increase(self):
        store = AppendOnlyPageStore()
        assert store.append("a") == 0
        assert store.append("b") == 1
        assert store.next_address == 2

    def test_read_back(self):
        store = AppendOnlyPageStore()
        addr = store.append({"k": 1})
        assert store.read(addr) == {"k": 1}

    def test_out_of_range_read(self):
        store = AppendOnlyPageStore()
        with pytest.raises(PageStoreError):
            store.read(0)
        store.append("x")
        with pytest.raises(PageStoreError):
            store.read(1)
        with pytest.raises(PageStoreError):
            store.read(-1)

    def test_scan(self):
        store = AppendOnlyPageStore()
        for ch in "abc":
            store.append(ch)
        assert list(store.scan()) == [(0, "a"), (1, "b"), (2, "c")]
        assert list(store.scan(start=2)) == [(2, "c")]

    def test_truncate_tail(self):
        store = AppendOnlyPageStore()
        for ch in "abcd":
            store.append(ch)
        store.truncate_tail(2)
        assert len(store) == 2
        assert store.read(1) == "b"

    def test_truncate_bounds(self):
        store = AppendOnlyPageStore()
        store.append("a")
        with pytest.raises(PageStoreError):
            store.truncate_tail(5)
        with pytest.raises(PageStoreError):
            store.truncate_tail(-1)

    def test_counters(self):
        store = AppendOnlyPageStore()
        store.append("a")
        store.read(0)
        store.read(0)
        assert store.appends == 1
        assert store.reads == 2


class TestReusablePageStore:
    def test_known_location_roundtrip(self):
        store = ReusablePageStore()
        assert store.read_known_location() is None
        store.write_known_location("checkpoint-1")
        assert store.read_known_location() == "checkpoint-1"
        store.write_known_location("checkpoint-2")
        assert store.read_known_location() == "checkpoint-2"
        assert store.checkpoint_writes == 2

    def test_known_location_independent_of_appends(self):
        store = ReusablePageStore()
        store.append("data")
        store.write_known_location("cp")
        assert store.read(0) == "data"
        assert store.read_known_location() == "cp"
