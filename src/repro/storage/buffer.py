"""An LRU page buffer that a serving tick can hold.

Sect. 4 of the paper argues that an LRU buffer at the server is *not* a
substitute for dynamic-query processing (buffering happens at the client;
a per-session server buffer would hurt multi-session scalability and
still pay communication costs).  We implement the buffer anyway so the
claim can be tested as an ablation: the naive evaluator can be run with a
buffer pool of any size and its *physical* page reads compared against
PDQ/NPDQ without one.

The serving layer (:mod:`repro.server`) reuses the pool for its shared
scan: while a tick is open the scheduler **holds** the pool
(:meth:`BufferPool.hold`), and a held pool evicts nothing — ``put`` only
inserts, so the pool may grow past ``capacity`` — and every page the
tick has read stays resident until the tick ends.  :meth:`BufferPool.release`
(the end of the tick) evicts LRU-first until the pool is back within
``capacity``.  What the hold guarantees is stated in
:mod:`repro.server.scheduler`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

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

    __slots__ = ("capacity", "stats", "held", "_pages")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise StorageError("buffer capacity must be positive")
        self.capacity = capacity
        self.stats = BufferStats()
        #: True while a serving tick holds the pool: nothing is evicted.
        self.held = False
        self._pages: "OrderedDict[int, Any]" = OrderedDict()

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

        A held pool evicts nothing: it grows past its capacity until
        :meth:`release`.
        """
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self._pages[page_id] = payload
            return
        if not self.held and len(self._pages) >= self.capacity:
            self._evict()
        self._pages[page_id] = payload

    def _evict(self) -> None:
        """Drop the least recently used page."""
        self._pages.popitem(last=False)
        self.stats.evictions += 1

    # -- holding (shared-scan support) -----------------------------------------

    def hold(self) -> None:
        """Evict nothing until :meth:`release` (a serving tick opens)."""
        self.held = True

    def release(self) -> None:
        """End the hold (a serving tick ends), then evict LRU-first until
        the pool is back within capacity."""
        self.held = False
        while len(self._pages) > self.capacity:
            self._evict()

    def invalidate(self, page_id: int) -> None:
        """Drop a page (e.g. after an in-place node update)."""
        self._pages.pop(page_id, None)

    def clear(self) -> None:
        """Drop every resident page (statistics and the hold are kept)."""
        self._pages.clear()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages
