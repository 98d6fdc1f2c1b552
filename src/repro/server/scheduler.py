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
   sweep read is a failed batch read;
2. **drain phase** — sessions then run their normal engine code.  Every
   ``load_node`` goes through the shared disk: pages fetched in the
   batch (or by an earlier client this tick) are buffer hits, i.e.
   late-joining queries piggyback on the in-flight read; pages first
   discovered mid-expansion (an auto session's children enqueued
   during this very tick, and every page of a session that names no
   demand) are fetched once on demand;
3. **end of tick** — the pools are released and evict, LRU-first, back
   down to their capacity; between ticks they keep pages under plain
   LRU for cross-tick locality.

The whole tick **holds** every pool it serves
(:meth:`~repro.storage.BufferPool.hold`): from ``begin_tick`` to
``end_tick`` a pool evicts nothing, growing past its capacity instead.
So the invariant kept is the paper's read-once rule at the scale of the
tick: **every page is read at most once a tick** — once resident, a page
stays resident until ``end_tick``, whichever session fetched it and
whenever.  A pool the scheduler first meets mid-tick (the dual tree's,
named by a session's demand) is held from that moment on.

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
    ``piggybacked`` is the demand on pages resident after the batch
    minus the batch's physical reads (the demand the batch absorbed
    without extra I/O); ``failed`` counts pages whose batch read — a
    PDQ sweep's included — failed (left to the owning engines' own
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
        self._in_tick = False
        for t in (tree, *extra_trees):
            self._adopt(t)
        self.pool: BufferPool = tree.disk.buffer_pool  # type: ignore[assignment]

    def _adopt(self, tree: RTree) -> None:
        """Track ``tree``, attaching a shared pool to its disk if bare;
        a pool met mid-tick is held at once."""
        if any(t is tree for t in self.trees):
            return
        disk = tree.disk
        if disk.buffer_pool is None:
            disk.set_buffer_pool(BufferPool(self.buffer_capacity))
        self.trees.append(tree)
        if not any(d is disk for d in self._disks):
            self._disks.append(disk)
            if self._in_tick:
                disk.buffer_pool.hold()

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
        for pool in self._pools():
            pool.hold()
        reads_before = self._reads()
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
        # A PDQ sweep's failed load is this batch's failed read: the
        # owning engine reads the page itself during the drain.
        failed = sum(s.failed_reads(tick) for s in sweeps if isinstance(s, PDQSweep))
        for tree, bucket in demand:
            pool = tree.disk.buffer_pool
            for page_id in sorted(bucket):
                if page_id in pool:
                    continue
                try:
                    tree.load_node(page_id)
                except (TransientIOError, CorruptPageError):
                    failed += 1
        # Held pools evict nothing, so every physical read of the batch
        # is one page resident now: its first demand cost that read and
        # the rest piggybacked.
        fetched = self._reads() - reads_before
        resident_demand = sum(
            count
            for tree, bucket in demand
            for page_id, count in bucket.items()
            if page_id in tree.disk.buffer_pool
        )
        return BatchStats(
            demanded=sum(sum(b.values()) for _, b in demand),
            unique_pages=sum(len(b) for _, b in demand),
            fetched=fetched,
            piggybacked=resident_demand - fetched,
            failed=failed,
        )

    def pin_resident(self) -> None:
        """Does nothing: the held pools keep every page the tick read.

        Kept by name because ``bench/trace.py`` wraps it.
        """

    def end_tick(self) -> None:
        """Release every pool; LRU governs them again until next tick."""
        if not self._in_tick:
            raise ServerError("no tick in progress")
        for pool in self._pools():
            pool.release()
        self._in_tick = False
