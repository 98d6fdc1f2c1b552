"""The shared-scan scheduler: a tick's page reads are shared by its clients.

A single live PDQ already reads each R-tree node at most once for its
whole dynamic query; with N concurrent observers over the same space the
naive serving loop still reads a popular node up to N times per tick —
once per client.  Following the shared-execution argument of the
continuous-query literature (group overlapping queries so the index is
traversed once per *batch*, not once per client), the scheduler makes
node reads shared across the whole client population within a tick:

1. **batch phase** — at tick start it asks every serving session for its
   :meth:`~repro.server.session.ClientSession.frontier_demand`.  For
   PDQ, aggregate and NPDQ clients that is the pages their evaluation
   read: the first one's demand runs the ``PDQSweep`` (resp.
   ``NPDQSweep``) that evaluates every such client of the tick at once,
   page-major, each page loaded once for all its readers.  The batch is
   the sweeps; the scheduler reads nothing itself.  kNN, join and auto
   clients name no demand;
2. **drain phase** — sessions then run their normal engine code.  Every
   ``load_node`` goes through the shared disk: pages a sweep loaded (or
   an earlier client fetched this tick) are buffer hits, i.e.
   late-joining queries piggyback on the in-flight read; the pages of a
   session that names no demand are fetched once, on first use;
3. **end of tick** — the pools are released and evict, LRU-first, back
   down to their capacity; between ticks they keep pages under plain
   LRU for cross-tick locality.

The whole tick **holds** every pool it serves
(:meth:`~repro.storage.BufferPool.hold`): from ``begin_tick`` to
``end_tick`` a pool evicts nothing, growing past its capacity instead.
So the invariant kept is the paper's read-once rule at the scale of the
tick: **every page is read at most once a tick** — once resident, a page
stays resident until ``end_tick``, whichever session fetched it and
whenever.  The pools are fixed when the scheduler is built, from
``tree`` and ``extra_trees``: a demand naming any other tree was read
through a pool the tick does not hold, and is refused.

Engines still count their *logical* reads in their own
:class:`QueryCost`, so per-client accounting stays identical to isolated
execution — only the physical I/O is deduplicated, which is what the
shared-scan benchmark measures.  (The NPDQ sweep charges each client
exactly its own reads.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.errors import ServerError
from repro.index.rtree import RTree
from repro.server.clock import Tick
from repro.server.session import ClientSession
from repro.storage.buffer import BufferPool

__all__ = ["BatchStats", "SharedScanScheduler"]


@dataclass(frozen=True)
class BatchStats:
    """Outcome of one tick's batch phase.

    ``fetched`` is the physical reads the sweeps issued inside
    ``begin_tick``; ``piggybacked`` is the demand on resident pages
    minus ``fetched`` (the demand the batch absorbed without extra I/O).
    """

    fetched: int
    piggybacked: int


class SharedScanScheduler:
    """Holds a tick's pools and runs its batch phase.

    Parameters
    ----------
    tree:
        The primary R-tree (the native-space index's tree, which the
        PDQ sweep reads).
    buffer_capacity:
        Capacity of the shared pool attached to a tree's disk when the
        disk has none yet.  An existing pool is reused as-is.
    extra_trees:
        Further trees a session's demand may name — in practice the
        dual-time tree the NPDQ sweep reads.  A tree sharing the primary
        tree's disk shares its pool.
    """

    def __init__(
        self,
        tree: RTree,
        buffer_capacity: int = 1024,
        extra_trees: Sequence[RTree] = (),
    ):
        self.trees: List[RTree] = [tree, *extra_trees]
        self._disks: List[object] = []
        for t in self.trees:
            disk = t.disk
            if disk.buffer_pool is None:
                disk.set_buffer_pool(BufferPool(buffer_capacity))
            if not any(d is disk for d in self._disks):
                self._disks.append(disk)
        self.pool: BufferPool = tree.disk.buffer_pool  # type: ignore[assignment]
        self._in_tick = False

    def _reads(self) -> int:
        return sum(d.stats.reads for d in self._disks)

    # -- tick lifecycle -----------------------------------------------------

    def begin_tick(
        self, sessions: Iterable[ClientSession], tick: Tick
    ) -> BatchStats:
        """Hold the pools and run the batch phase: every session's
        demand, whose first asker of a kind runs that kind's sweep.

        A page a sweep failed to load is not demanded — the engine that
        needs it runs its own retry and degradation policy during the
        drain phase.
        """
        if self._in_tick:
            raise ServerError("previous tick was not ended")
        self._in_tick = True
        for disk in self._disks:
            disk.buffer_pool.hold()
        reads_before = self._reads()
        demand = []  # (pool, pages) per session and tree
        for session in sessions:
            for tree, pages in session.frontier_demand(tick):
                if not any(t is tree for t in self.trees):
                    raise ServerError(
                        f"{session.client_id} demanded pages of a tree this "
                        "scheduler does not hold"
                    )
                demand.append((tree.disk.buffer_pool, pages))
        # Held pools evict nothing, so every physical read of the batch
        # is one page resident now: its first demand cost that read and
        # the rest piggybacked.
        fetched = self._reads() - reads_before
        resident = sum(p in pool for pool, pages in demand for p in pages)
        return BatchStats(fetched=fetched, piggybacked=resident - fetched)

    def pin_resident(self) -> None:
        """Does nothing: the held pools keep every page the tick read.

        Kept by name because ``bench/trace.py`` wraps it.
        """

    def end_tick(self) -> None:
        """Release every pool; LRU governs them again until next tick."""
        if not self._in_tick:
            raise ServerError("no tick in progress")
        for disk in self._disks:
            disk.buffer_pool.release()
        self._in_tick = False
