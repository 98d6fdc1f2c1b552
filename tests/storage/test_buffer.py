"""Tests for the LRU buffer pool."""

import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferPool


class TestBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(StorageError):
            BufferPool(0)

    def test_miss_then_hit(self):
        pool = BufferPool(2)
        assert pool.get(1) is None
        pool.put(1, "a")
        assert pool.get(1) == "a"
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_len_and_contains(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        assert len(pool) == 1
        assert 1 in pool and 2 not in pool


class TestEviction:
    def test_lru_eviction_order(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        pool.put(2, "b")
        pool.put(3, "c")  # evicts 1 (least recent)
        assert 1 not in pool and 2 in pool and 3 in pool
        assert pool.stats.evictions == 1

    def test_get_refreshes_recency(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        pool.put(2, "b")
        pool.get(1)  # 1 becomes most recent
        pool.put(3, "c")  # evicts 2
        assert 1 in pool and 2 not in pool

    def test_put_refreshes_existing(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        pool.put(2, "b")
        pool.put(1, "a2")  # refresh, no eviction
        pool.put(3, "c")  # evicts 2
        assert pool.get(1) == "a2"
        assert 2 not in pool

    def test_never_exceeds_capacity(self):
        pool = BufferPool(3)
        for i in range(50):
            pool.put(i, i)
        assert len(pool) == 3


class TestInvalidation:
    def test_invalidate_removes(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        pool.invalidate(1)
        assert pool.get(1) is None

    def test_invalidate_absent_is_noop(self):
        BufferPool(2).invalidate(99)

    def test_clear_keeps_stats(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        pool.get(1)
        pool.clear()
        assert len(pool) == 0
        assert pool.stats.hits == 1


class TestPinning:
    def test_pinning_a_non_resident_page_raises(self):
        pool = BufferPool(2)
        with pytest.raises(StorageError):
            pool.pin(1)

    def test_pinned_page_survives_and_lru_unpinned_goes(self):
        pool = BufferPool(3)
        for page_id in (1, 2, 3):
            pool.put(page_id, page_id)
        pool.pin(1)  # least recent, but protected
        pool.put(4, 4)
        assert 1 in pool and 2 not in pool
        assert pool.stats.evictions == 1
        assert pool.pinned == frozenset({1})

    def test_everything_pinned_grows_the_pool(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        pool.put(2, "b")
        pool.pin_all()
        assert pool.pinned == frozenset({1, 2})
        pool.put(3, "c")
        assert len(pool) == 3
        assert pool.stats.evictions == 0

    def test_unpin_all_leaves_the_pool_evictable(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        pool.put(2, "b")
        pool.pin_all()
        pool.unpin_all()
        assert pool.pinned == frozenset()
        pool.put(3, "c")
        assert 1 not in pool and len(pool) == 2
        assert pool.stats.evictions == 1

    def test_invalidate_and_clear_drop_the_pin(self):
        pool = BufferPool(4)
        pool.put(1, "a")
        pool.put(2, "b")
        pool.pin_all()
        pool.invalidate(1)
        assert pool.pinned == frozenset({2})
        pool.clear()
        assert pool.pinned == frozenset()


class TestAdmissionRecord:
    """``drain_admitted``: what ``put`` admitted since the last call and
    is still resident — the pages a scheduler has yet to pin."""

    def test_records_admissions_not_refreshes(self):
        pool = BufferPool(4)
        pool.put(1, "a")
        pool.put(2, "b")
        assert pool.drain_admitted() == {1, 2}
        pool.put(1, "a2")  # a refresh admits nothing
        pool.get(2)
        pool.put(3, "c")
        assert pool.drain_admitted() == {3}
        assert pool.drain_admitted() == set()

    def test_evicted_and_invalidated_ids_leave_the_record(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        pool.put(2, "b")
        pool.put(3, "c")  # evicts 1
        pool.invalidate(2)
        admitted = pool.drain_admitted()
        assert admitted == {3}
        for page_id in admitted:  # so pinning the record never raises
            pool.pin(page_id)
        pool.put(4, "d")
        pool.clear()
        assert pool.drain_admitted() == set()

    def test_pinning_the_record_after_pin_all_is_a_full_repin(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        pool.put(2, "b")
        pool.pin_all()
        pool.drain_admitted()
        pool.put(3, "c")  # grows: everything is pinned
        pool.put(4, "d")  # evicts 3, the one unpinned page
        for page_id in pool.drain_admitted():
            pool.pin(page_id)
        assert pool.pinned == frozenset(pool.resident_pages()) == {1, 2, 4}


class TestStats:
    def test_hit_ratio(self):
        pool = BufferPool(2)
        pool.put(1, "a")
        pool.get(1)
        pool.get(2)
        assert pool.stats.hit_ratio == pytest.approx(0.5)

    def test_hit_ratio_unused_is_zero(self):
        assert BufferPool(1).stats.hit_ratio == 0.0

    def test_accesses(self):
        pool = BufferPool(2)
        pool.get(1)
        pool.put(1, "a")
        pool.get(1)
        assert pool.stats.accesses == 2
