"""An LRU page buffer with pinning.

Sect. 4 of the paper argues that an LRU buffer at the server is *not* a
substitute for dynamic-query processing (buffering happens at the client;
a per-session server buffer would hurt multi-session scalability and
still pay communication costs).  We implement the buffer anyway so the
claim can be tested as an ablation: the naive evaluator can be run with a
buffer pool of any size and its *physical* page reads compared against
PDQ/NPDQ without one.

The serving layer (:mod:`repro.server`) reuses the pool for its
shared scan: the scheduler **pins** the pages a tick has touched so a
later client piggybacks on the read an earlier one paid for.  Pinned
pages are exempt from LRU eviction, and when every resident page is
pinned ``put`` grows the pool past its capacity instead of evicting;
releasing the pins (:meth:`BufferPool.unpin_all`, the end of a tick)
evicts back down to ``capacity``.  What the pins guarantee, and what
they do not, is stated in :mod:`repro.server.scheduler`.

So that the scheduler can pin what a tick *admitted* instead of
re-pinning everything resident, the pool records the ids ``put``
admits; an id leaves the record when its page is evicted or
invalidated, so the record is always a subset of the resident set.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Set

from repro.errors import StorageError

__all__ = ["BufferPool", "BufferStats"]


@dataclass
class BufferStats:
    """Hit/miss counters for a buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the buffer (0 if unused)."""
        return self.hits / self.accesses if self.accesses else 0.0


class BufferPool:
    """A fixed-capacity LRU cache of disk pages.

    Parameters
    ----------
    capacity:
        Maximum number of resident pages; must be positive.
    """

    __slots__ = ("capacity", "stats", "_pages", "_pinned", "_admitted")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise StorageError("buffer capacity must be positive")
        self.capacity = capacity
        self.stats = BufferStats()
        self._pages: "OrderedDict[int, Any]" = OrderedDict()
        self._pinned: Set[int] = set()
        self._admitted: Set[int] = set()

    def get(self, page_id: int) -> Optional[Any]:
        """Return the cached payload and refresh recency, or ``None``."""
        payload = self._pages.get(page_id)
        if payload is None:
            self.stats.misses += 1
            return None
        self._pages.move_to_end(page_id)
        self.stats.hits += 1
        return payload

    def peek(self, page_id: int) -> Optional[Any]:
        """The cached payload or ``None``, without counting an access or
        refreshing recency (inspection only)."""
        return self._pages.get(page_id)

    def put(self, page_id: int, payload: Any) -> None:
        """Insert (or refresh) a page, evicting the LRU page if full.

        Pinned pages are never chosen as eviction victims; if every
        resident page is pinned the pool grows past its capacity until
        :meth:`unpin_all` releases the pins.
        """
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self._pages[page_id] = payload
            return
        # Pins are a subset of the resident set, so equal sizes mean
        # there is no victim to look for.
        resident = len(self._pages)
        if resident >= self.capacity and len(self._pinned) < resident:
            self._evict()
        self._pages[page_id] = payload
        self._admitted.add(page_id)

    def _evict(self) -> None:
        """Drop the least recently used unpinned page."""
        victim = next(pid for pid in self._pages if pid not in self._pinned)
        del self._pages[victim]
        self._admitted.discard(victim)
        self.stats.evictions += 1

    # -- pinning (shared-scan support) -----------------------------------------

    def pin(self, page_id: int) -> None:
        """Protect a resident page from eviction until :meth:`unpin`.

        Raises
        ------
        StorageError
            If the page is not resident (a pin must follow the read that
            brought the page in, or it could silently protect nothing).
        """
        if page_id not in self._pages:
            raise StorageError(f"cannot pin non-resident page {page_id}")
        self._pinned.add(page_id)

    def unpin(self, page_id: int) -> None:
        """Release one page's pin (no-op when not pinned)."""
        self._pinned.discard(page_id)

    def pin_all(self) -> None:
        """Pin every resident page."""
        self._pinned.update(self._pages)

    def drain_admitted(self) -> Set[int]:
        """Hand over, and start afresh, the record of page ids ``put``
        admitted since the previous call and that are still resident."""
        admitted, self._admitted = self._admitted, set()
        return admitted

    def unpin_all(self) -> None:
        """Release every pin (end of a serving tick), then evict by
        :meth:`put`'s rule until the pool is back within capacity."""
        self._pinned.clear()
        while len(self._pages) > self.capacity:
            self._evict()

    @property
    def pinned(self) -> "frozenset[int]":
        """Page ids currently protected from eviction."""
        return frozenset(self._pinned)

    def resident_pages(self) -> "tuple[int, ...]":
        """All resident page ids, LRU-first (shared-scan bookkeeping)."""
        return tuple(self._pages)

    def invalidate(self, page_id: int) -> None:
        """Drop a page (e.g. after an in-place node update)."""
        self._pages.pop(page_id, None)
        self._pinned.discard(page_id)
        self._admitted.discard(page_id)

    def clear(self) -> None:
        """Drop every resident page, pins included (statistics are kept)."""
        self._pages.clear()
        self._pinned.clear()
        self._admitted.clear()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages
