"""The shared-scan scheduler: a tick's page reads are shared by its clients.

A single live PDQ already reads each R-tree node at most once for its
whole dynamic query; with N concurrent observers over the same space the
naive serving loop still reads a popular node up to N times per tick —
once per client.  Following the shared-execution argument of the
continuous-query literature (group overlapping queries so the index is
traversed once per *batch*, not once per client), the scheduler makes
node reads shared across the whole client population within a tick:

1. **batch phase** — at tick start it polls every live session's
   :meth:`~repro.server.session.ClientSession.frontier_demand` (for
   PDQ, aggregate and NPDQ clients the pages their evaluation read —
   the first one's demand runs the ``PDQSweep`` or ``NPDQSweep`` that
   evaluates every such client of the tick at once; the priority-queue
   frontier of :meth:`PDQEngine.frontier_pages` for an auto client's
   live predictive engine; nothing for kNN clients and an auto client's
   other frames, which read during the drain), merges the per-client
   page demand *per index tree* — PDQ/auto pages live in the
   native-space tree, NPDQ ones in the dual-time tree, and the two
   trees' page-id namespaces are independent — and reads each distinct
   page once, in page-id order (the simulated analogue of an elevator
   pass).  The sweeps read pages while producing their demand; those
   reads flow through the same shared buffer pool, so overlapping
   demand piggybacks on them like on explicit batch reads, and a failed
   sweep read is a failed batch read.  Each batched page is **pinned**
   in its tree's shared :class:`~repro.storage.BufferPool` so no
   client's traversal can evict another client's pending page mid-tick;
2. **drain phase** — sessions then run their normal engine code.  Every
   ``load_node`` goes through the shared disk: pages fetched in the
   batch (or by an earlier client this tick) are buffer hits, i.e.
   late-joining queries piggyback on the in-flight read; pages first
   discovered mid-expansion (an auto session's children enqueued
   during this very tick, and every page of a session that names no
   demand) are fetched once on demand and pinned when the drain of the
   session that fetched them ends
   (:meth:`SharedScanScheduler.pin_resident`);
3. **end of tick** — all pins are released and a pool that grew past
   its capacity while everything in it was pinned evicts back down; the
   pools keep pages around under plain LRU for cross-tick locality.

The invariant actually kept: **every page resident when a session's
drain ends stays resident until** ``end_tick``, so a later session of
the tick never pays for a page an earlier one left behind.  It is weaker
than "one physical read per page per tick": a page fetched mid-drain is
unprotected until that drain ends, so with the pool at capacity a
session can evict its own earlier fetch and a later session re-reads it
within the tick — a known defect, stated as an ``xfail`` test in
``tests/server/test_scheduler.py``.

Engines still count their *logical* reads in their own
:class:`QueryCost`, so per-client accounting stays identical to isolated
execution — only the physical I/O is deduplicated, which is what the
shared-scan benchmark measures.  (The NPDQ sweep charges each client
exactly its own reads.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import CorruptPageError, ServerError, TransientIOError
from repro.index.rtree import RTree
from repro.server.clock import Tick
from repro.server.session import ClientSession, PDQSweep
from repro.storage.buffer import BufferPool

__all__ = ["BatchStats", "SharedScanScheduler"]


@dataclass(frozen=True)
class BatchStats:
    """Outcome of one tick's batch phase.

    ``demanded`` counts (page, client) demand pairs across every tree;
    ``unique_pages`` counts distinct (tree, page) pairs; ``fetched`` is
    the number of physical reads the batch phase issued, including the
    reads the sweeps performed while producing their demand;
    ``piggybacked`` is the demand the batch absorbed without extra I/O (already-buffered pages plus duplicate demand for freshly
    fetched ones); ``failed`` counts pages whose batch read — a PDQ
    sweep's included — failed (left to the owning engines' own
    retry/degradation machinery during the drain phase).
    """

    demanded: int
    unique_pages: int
    fetched: int
    piggybacked: int
    failed: int


class SharedScanScheduler:
    """Batches per-tick node reads of many sessions by (tree, page id).

    Parameters
    ----------
    tree:
        The primary R-tree (the native-space index's tree, which
        PDQ/SPDQ/auto frontiers traverse).
    buffer_capacity:
        Capacity of the shared pool attached to a tree's disk when the
        disk has none yet.  An existing pool is reused as-is.
    extra_trees:
        Further trees whose frontiers the scan should batch — in
        practice the dual-time tree the NPDQ sweep reads.  A tree
        sharing the primary tree's disk shares its pool.
    """

    def __init__(
        self,
        tree: RTree,
        buffer_capacity: int = 1024,
        extra_trees: Sequence[RTree] = (),
    ):
        self.tree = tree
        self.buffer_capacity = buffer_capacity
        self.trees: List[RTree] = []
        self._disks: List[object] = []
        for t in (tree, *extra_trees):
            self._adopt(t)
        self.pool: BufferPool = tree.disk.buffer_pool  # type: ignore[assignment]
        self._in_tick = False
        # True once pin_resident has pinned every pool whole this tick.
        self._all_pinned = False

    def _adopt(self, tree: RTree) -> None:
        """Track ``tree``, attaching a shared pool to its disk if bare."""
        if any(t is tree for t in self.trees):
            return
        disk = tree.disk
        if disk.buffer_pool is None:
            disk.set_buffer_pool(BufferPool(self.buffer_capacity))
        self.trees.append(tree)
        if not any(d is disk for d in self._disks):
            self._disks.append(disk)

    def _pools(self) -> List[BufferPool]:
        return [
            d.buffer_pool for d in self._disks if d.buffer_pool is not None
        ]

    def _reads(self) -> int:
        return sum(d.stats.reads for d in self._disks)

    # -- tick lifecycle -----------------------------------------------------

    def begin_tick(
        self, sessions: Iterable[ClientSession], tick: Tick
    ) -> BatchStats:
        """Run the batch phase: merge frontiers, read each page once.

        Pages that fail to read (injected faults) are skipped here —
        each engine that needs the page will run its own retry and
        degradation policy when it pops the node during the drain phase.
        """
        if self._in_tick:
            raise ServerError("previous tick was not ended")
        self._in_tick = True
        reads_before = self._reads()
        for pool in self._pools():
            pool.drain_admitted()  # what follows is this batch's record
        # Demand is collected per tree: page ids are only unique within
        # one disk's namespace.  The sweeps run here, inside the tick,
        # so their physical reads land in this tick's account.
        demand: List[Tuple[RTree, Dict[int, int]]] = []
        buckets: Dict[int, Dict[int, int]] = {}
        sweeps = set()
        for session in sessions:
            sweeps.add(getattr(session, "sweep", None))
            for tree, pages in session.frontier_demand(tick):
                self._adopt(tree)
                bucket = buckets.get(id(tree))
                if bucket is None:
                    bucket = buckets[id(tree)] = {}
                    demand.append((tree, bucket))
                for page_id in pages:
                    bucket[page_id] = bucket.get(page_id, 0) + 1
        sweep_fetched = self._reads() - reads_before
        # A PDQ sweep's failed load is this batch's failed read: the
        # owning engine reads the page itself during the drain.
        failed = sum(s.failed_reads(tick) for s in sweeps if isinstance(s, PDQSweep))
        swept = {
            id(pool): pool.drain_admitted() for pool in self._pools()
        }
        demanded = sum(sum(b.values()) for _, b in demand)
        fetched = 0
        piggybacked = 0
        for tree, bucket in demand:
            pool = tree.disk.buffer_pool
            fresh = swept.get(id(pool), ())
            for page_id in sorted(bucket):
                if pool is not None and page_id in pool:
                    # A page resident since before the batch is pure
                    # piggyback; one the sweep just fetched already
                    # cost its one physical read (in
                    # ``sweep_fetched``), so only its *extra* demand is.
                    extra = 1 if page_id in fresh else 0
                    piggybacked += bucket[page_id] - extra
                    pool.pin(page_id)
                    continue
                try:
                    tree.load_node(page_id)
                except (TransientIOError, CorruptPageError):
                    failed += 1
                    continue
                fetched += 1
                piggybacked += bucket[page_id] - 1
                if pool is not None:
                    pool.pin(page_id)
        return BatchStats(
            demanded=demanded,
            unique_pages=sum(len(b) for _, b in demand),
            fetched=fetched + sweep_fetched,
            piggybacked=piggybacked,
            failed=failed,
        )

    def pin_resident(self) -> None:
        """Pin every resident page for the rest of the tick.

        Called by the broker after each session's drain so that pages a
        session demand-fetched mid-tick cannot be evicted before a later
        session piggybacks on them.  The first call of a tick pins each
        pool whole; after it every resident page is pinned, so a later
        call only has to pin what was admitted since the previous one —
        the pin set after every call is the full re-pin's, for
        O(pool + admitted) a tick instead of O(sessions x pool).
        """
        for pool in self._pools():
            if self._all_pinned:
                for page_id in pool.drain_admitted():
                    pool.pin(page_id)
            else:
                pool.pin_all()
                pool.drain_admitted()
        self._all_pinned = True

    def end_tick(self) -> None:
        """Release every pin; LRU governs the pools again until next tick."""
        if not self._in_tick:
            raise ServerError("no tick in progress")
        for pool in self._pools():
            pool.unpin_all()
        self._in_tick = False
        self._all_pinned = False

    # -- introspection ------------------------------------------------------------

    @property
    def pinned_pages(self) -> List[int]:
        """Currently pinned page ids (mid-tick debugging aid)."""
        pinned = set()
        for pool in self._pools():
            pinned.update(pool.pinned)
        return sorted(pinned)
