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


class TestHold:
    """A held pool (a serving tick) evicts nothing; ``release`` evicts
    LRU-first back down to capacity."""

    def test_nothing_is_evicted_while_held(self):
        pool = BufferPool(2)
        pool.hold()
        for page_id in (1, 2, 3, 4):
            pool.put(page_id, page_id)
        assert len(pool) == 4 and pool.held
        assert pool.stats.evictions == 0
        assert all(pool.get(page_id) == page_id for page_id in (1, 2, 3, 4))

    def test_release_evicts_lru_first(self):
        pool = BufferPool(2)
        pool.hold()
        for page_id in (1, 2, 3, 4):
            pool.put(page_id, page_id)
        pool.get(1)  # now the most recent: 2 and 3 are the LRU pair
        pool.release()
        assert not pool.held
        assert len(pool) == 2 and 1 in pool and 4 in pool
        assert pool.stats.evictions == 2

    def test_released_pool_evicts_again(self):
        pool = BufferPool(2)
        pool.hold()
        pool.put(1, "a")
        pool.release()
        pool.put(2, "b")
        pool.put(3, "c")
        assert 1 not in pool and len(pool) == 2
        assert pool.stats.evictions == 1

    def test_invalidate_and_clear_work_while_held(self):
        pool = BufferPool(2)
        pool.hold()
        for page_id in (1, 2, 3):
            pool.put(page_id, page_id)
        pool.invalidate(1)
        assert 1 not in pool and len(pool) == 2
        pool.clear()
        assert len(pool) == 0 and pool.held
        pool.put(4, "d")
        pool.release()
        assert 4 in pool and pool.stats.evictions == 0


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
