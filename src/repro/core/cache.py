"""The client-side object cache keyed on disappearance times.

Sect. 4.1: "it is easy (at the client) to maintain objects keyed on
their 'disappearance time', discarding them from the cache at that
time."  The incremental evaluators deliver each object once, together
with its visibility interval; the client inserts it here and calls
:meth:`advance` as rendering time progresses.  Re-deliveries of the same
object (e.g. across motion updates, or NPDQ re-entries) simply extend
the cached disappearance time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.core.results import AnswerItem
from repro.errors import QueryError
from repro.motion.segment import MotionSegment

__all__ = ["CachedObject", "ClientCache", "CacheStats"]


@dataclass
class CachedObject:
    """One resident object: latest segment and eviction deadline."""

    record: MotionSegment
    disappears_at: float


@dataclass
class CacheStats:
    """Insertion/eviction accounting for a client cache."""

    insertions: int = 0
    refreshes: int = 0
    evictions: int = 0


class ClientCache:
    """Objects currently visible to the observer, evicted lazily by time.

    The cache never talks to the server: everything it needs (the
    object's motion segment and its disappearance time) arrived with the
    answer, which is the point of the paper's late-retrieval design.
    """

    def __init__(self) -> None:
        self._objects: Dict[int, CachedObject] = {}
        self._deadlines: List[Tuple[float, int]] = []
        self._now = float("-inf")
        self.stats = CacheStats()

    # -- ingest --------------------------------------------------------------

    def insert(self, item: AnswerItem) -> None:
        """Add (or refresh) an answer delivered by a dynamic query.

        Raises
        ------
        QueryError
            If the item already ended before the current cache time —
            callers should only feed answers for the present/future.
        """
        if item.disappears_at < self._now:
            raise QueryError(
                f"answer for object {item.object_id} disappeared at "
                f"{item.disappears_at}, cache time is already {self._now}"
            )
        cached = self._objects.get(item.object_id)
        if cached is None:
            self._objects[item.object_id] = CachedObject(
                item.record, item.disappears_at
            )
            self.stats.insertions += 1
        else:
            # Refresh: keep the later deadline and the newer segment.
            if item.record.seq >= cached.record.seq:
                cached.record = item.record
            cached.disappears_at = max(cached.disappears_at, item.disappears_at)
            self.stats.refreshes += 1
        heapq.heappush(self._deadlines, (item.disappears_at, item.object_id))

    # -- time ------------------------------------------------------------------

    def advance(self, now: float) -> List[int]:
        """Move the cache clock forward; return ids of evicted objects.

        Raises
        ------
        QueryError
            If time moves backwards.
        """
        if now < self._now:
            raise QueryError("cache time cannot move backwards")
        self._now = now
        evicted: List[int] = []
        while self._deadlines and self._deadlines[0][0] < now:
            deadline, object_id = heapq.heappop(self._deadlines)
            cached = self._objects.get(object_id)
            # Lazy deletion: only honour the heap record if it is still
            # the object's live deadline (refreshes leave stale records).
            if cached is not None and cached.disappears_at == deadline:
                del self._objects[object_id]
                self.stats.evictions += 1
                evicted.append(object_id)
        return evicted

    # -- inspection ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current cache clock."""
        return self._now

    def get(self, object_id: int) -> "CachedObject | None":
        """The cached state of an object, or ``None``."""
        return self._objects.get(object_id)

    def visible_ids(self) -> "set[int]":
        """Ids of all resident objects."""
        return set(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def __iter__(self) -> Iterator[CachedObject]:
        return iter(self._objects.values())
