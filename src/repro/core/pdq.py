"""Predictive Dynamic Queries (Sect. 4.1, Algorithm 4.1).

The PDQ engine traverses the R-tree once for an entire dynamic query.
It keeps a priority queue ordered by the *start* of the time interval
during which each pending item (node or motion segment) overlaps the
moving query; ``get_next(t_start, t_end)`` pops items in appearance
order, expanding nodes lazily.  Consequences, exactly as the paper
claims:

* each R-tree node is read **at most once** per dynamic query regardless
  of the frame rate (absent concurrent updates);
* objects are delivered **exactly once per visibility interval**, tagged
  with that interval so the client cache knows when to evict them;
* retrieval is *late*: an object is fetched just before it appears, so
  trajectory deviations waste no work and object updates are maximally
  fresh.

Update management (Sect. 4.1, Fig. 4): the update-tracking engines over
one tree share one insertion listener on it.  A non-splitting insert pushes
the new segment straight into the queue; a splitting insert pushes the
lowest common ancestor of the freshly created nodes (a single node,
thanks to forced same-path splits); :func:`notify_inserts` serves a
committed write batch to every live engine of the tree at once.
Duplicate deliveries are eliminated at pop time via expanded-node and
reported-answer sets — equivalent to the paper's "compare with the
previously popped item" trick but robust to any number of concurrent
duplicates.  When the notified ancestor sits
within ``rebuild_depth`` of the root (the paper: "if the lowest common
ancestor ... is close to the root node, it is better to empty the
priority queue ... and rebuild"), the queue is rebuilt from the root
instead.

Queue items are plain tuples ``(low, tie, high, page id, record)``, and
an answer is the atomic row ``(object id, seq, low, high)`` the
reported set keys on; a window's answers are one
:class:`~repro.core.results.AnswerBlock` of those rows.

:func:`sweep_windows` evaluates, page-major, the pages many engines'
next windows will expand; each engine's ``window`` then pops, expands
and pushes exactly as it does alone, so answers and costs are its own.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import CorruptPageError, QueryError, TransientIOError
from repro.core.results import AnswerBlock, AnswerItem, SnapshotResult
from repro.core.trajectory import QueryTrajectory
from repro.geometry import kernels
from repro.geometry.interval import Interval
from repro.index.nsi import NativeSpaceIndex
from repro.index.rtree import InsertionNotice
from repro.motion.segment import MotionSegment
from repro.storage.metrics import QueryCost

__all__ = ["PDQEngine", "notify_inserts", "sweep_windows"]


class PDQEngine:
    """Incremental evaluator for one predictive dynamic query.

    Parameters
    ----------
    index:
        The :class:`~repro.index.NativeSpaceIndex` holding the motion
        segments.
    trajectory:
        The observer's key-snapshot trajectory.
    rebuild_depth:
        Insert notifications whose subtree root lies at depth <= this
        threshold trigger a queue rebuild instead of a queue insertion
        (0 = only a root split; the paper's heuristic).
    track_updates:
        Register for concurrent-insert notifications (on by default;
        turn off for insert-free historical workloads to skip listener
        overhead).
    fault_budget:
        ``None`` (default) propagates storage faults to the caller.  An
        integer enables graceful degradation: a node whose load keeps
        failing is re-enqueued up to this many extra times, then its
        subtree is skipped; subsequent frames are flagged ``degraded``
        with the cumulative skipped-subtree count (every skipped page id
        is kept in :attr:`skipped_subtrees`).

    Use as a context manager, or call :meth:`close` when done, so the
    engine stops hearing the tree's inserts.
    """

    def __init__(
        self,
        index: NativeSpaceIndex,
        trajectory: QueryTrajectory,
        rebuild_depth: int = 0,
        track_updates: bool = True,
        fault_budget: Optional[int] = None,
    ):
        if trajectory.dims != index.dims:
            raise QueryError(
                f"trajectory has {trajectory.dims} dims, index {index.dims}"
            )
        self.index = index
        self.trajectory = trajectory
        self.rebuild_depth = rebuild_depth
        self.fault_budget = fault_budget
        self.skipped_subtrees: List[int] = []
        self.cost = QueryCost()
        self._heap: List[tuple] = []
        self._tie = itertools.count()
        self._expanded: set = set()
        self._reported: set = set()
        self._fault_attempts: dict = {}
        # page id -> (page rows, their write count, frontier, components)
        # from sweep_windows
        self._stash: Dict[int, tuple] = {}
        self._frontier = trajectory.time_span.low
        self._closed = False
        self._tracking = track_updates
        if track_updates:
            tree = index.tree
            live = _LIVE.get(id(tree))
            if live is None:
                live = _LIVE[id(tree)] = _LiveEngines()
                tree.add_listener(live)
            live.engines.append(self)
        self._seed_root()

    @property
    def degraded(self) -> bool:
        """True once any subtree has been skipped due to faults."""
        return bool(self.skipped_subtrees)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Detach from the index; the engine becomes unusable."""
        if self._closed:
            return
        self._closed = True
        if self._tracking:
            tree = self.index.tree
            live = _LIVE[id(tree)]
            live.engines.remove(self)
            if not live.engines:
                tree.remove_listener(live)
                del _LIVE[id(tree)]

    def __enter__(self) -> "PDQEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queue plumbing ----------------------------------------------------------

    def _push(self, low: float, high: float, page_id: int = -1,
              record: Optional[MotionSegment] = None) -> None:
        """Enqueue a node (``page_id`` >= 0) or a segment's ``record``
        over one visibility component ``[low, high]``."""
        heapq.heappush(
            self._heap, (low, next(self._tie), high, page_id, record)
        )

    def _seed_root(self) -> None:
        """Enqueue the root over the whole query span.

        The root's own overlap interval is not computed (its box is not
        known before the first read); using the full span is correct and
        costs nothing because the root is explored immediately anyway.
        """
        span = self.trajectory.time_span
        self._push(span.low, span.high, page_id=self.index.tree.root_id)

    def _expand(self, page_id: int) -> None:
        """Load a node (one disk access) and enqueue its children.

        The whole page is evaluated by one batch pass
        (:mod:`repro.geometry.kernels`, bit-identical to the scalar
        ``segment_overlap``/``box_overlap``) that hands back only the
        components still ahead of the frontier, unless a
        :func:`sweep_windows` stashed them for these rows, unwritten
        since, and this frontier; the paper's per-entry costs are charged
        for the page at once.
        """
        node = self.index.tree.load_node(page_id, self.cost)
        rows = node.entries
        self.cost.count_distance_computations(len(rows))
        if node.is_leaf:
            self.cost.count_segment_tests(len(rows))
        stashed = self._stash.pop(page_id, (None, None, None, None))
        if stashed[0] is rows and stashed[1:3] == (rows.writes, self._frontier):
            components = stashed[3]
        else:
            components = self.trajectory.live_components(
                rows.segment_batch() if node.is_leaf else rows.box_batch(),
                self._frontier,
            )
        heap, tie, push = self._heap, self._tie, heapq.heappush
        if node.is_leaf:
            for k, low, high in components:
                push(heap, (low, next(tie), high, -1, rows.record(k)))
        else:
            for k, low, high in components:
                push(heap, (low, next(tie), high, rows.child_id(k), None))

    # -- the sweep's seeds ----------------------------------------------------------

    def _due_pages(self, t_start: float, t_end: float) -> Set[int]:
        """Pages ``window(t_start, t_end)`` pops and expands from the queue
        as it stands, by a heap walk that leaves a subtree whose top is
        due after ``t_end`` (heap order: nothing below is due earlier)."""
        heap, due, stack = self._heap, set(), [0]
        while stack:
            i = stack.pop()
            if i >= len(heap) or heap[i][0] > t_end:
                continue
            _, _, high, page_id, _ = heap[i]
            if page_id >= 0 and page_id not in self._expanded and high >= t_start:
                due.add(page_id)
            stack += (2 * i + 1, 2 * i + 2)
        return due

    # -- Algorithm 4.1 ---------------------------------------------------------------

    def get_next(self, t_start: float, t_end: float) -> Optional[AnswerItem]:
        """Return the next object appearing during ``[t_start, t_end]``.

        Objects come out ordered by appearance time.  ``None`` means no
        further object appears within the window (items appearing later
        stay queued for future calls).  Calls must use non-decreasing
        ``t_start`` values (time flows forward).
        """
        self._begin(t_start, t_end)
        found = self._pop(t_start, t_end)
        if found is None:
            return None
        row, record = found
        return AnswerItem(record, Interval(row[2], row[3]))

    def window(self, t_start: float, t_end: float) -> AnswerBlock:
        """All objects appearing during ``[t_start, t_end]``, as one
        :class:`~repro.core.results.AnswerBlock` in appearance order
        (what a sweep stashed for it and it did not take is dropped)."""
        self._begin(t_start, t_end)
        rows: list = []
        records: list = []
        found = self._pop(t_start, t_end)
        while found is not None:
            rows.append(found[0])
            records.append(found[1])
            found = self._pop(t_start, t_end)
        self._stash.clear()
        return AnswerBlock.of(rows, records)

    def _begin(self, t_start: float, t_end: float) -> None:
        if self._closed:
            raise QueryError("engine is closed")
        if t_end < t_start:
            raise QueryError("t_end must be >= t_start")
        self._frontier = max(self._frontier, t_start)

    def _pop(self, t_start: float, t_end: float) -> Optional[tuple]:
        """Algorithm 4.1's next answer: ``(row, record)``, where ``row``
        is the atomic ``(object id, seq, low, high)``, or ``None``."""
        heap = self._heap
        while heap:
            if heap[0][0] > t_end:
                return None
            low, _, high, page_id, record = heapq.heappop(heap)
            if high < t_start:
                continue  # expired: the window has moved past this item
            if page_id < 0:
                row = (record.object_id, record.seq, low, high)
                if row in self._reported:
                    continue  # duplicate from an update notification
                self._reported.add(row)
                self.cost.count_results()
                return row, record
            if page_id in self._expanded:
                continue  # duplicate from an update notification
            self._expanded.add(page_id)
            try:
                self._expand(page_id)
            except (TransientIOError, CorruptPageError):
                # The load failed after the disk's own retries; the
                # node was not expanded (nothing was enqueued yet).
                self._expanded.discard(page_id)
                if self.fault_budget is None:
                    raise
                tries = self._fault_attempts.get(page_id, 0)
                if tries < self.fault_budget:
                    # Re-enqueue over its remaining visibility so a
                    # later pop gets a fresh round of disk retries.
                    self._fault_attempts[page_id] = tries + 1
                    self._push(low, high, page_id)
                else:
                    self.skipped_subtrees.append(page_id)
        return None

    def run(self, period: float) -> List[SnapshotResult]:
        """Drive the whole dynamic query at the given frame period.

        Returns one :class:`SnapshotResult` per frame, each holding the
        *new* objects appearing in that frame and the frame's own cost
        delta — the quantities plotted in Figs. 6-9.
        """
        results: List[SnapshotResult] = []
        times = self.trajectory.frame_times(period)
        for a, b in zip(times, times[1:]):
            before = self.cost.snapshot()
            items = self.window(a, b)
            results.append(
                SnapshotResult(
                    query_time=Interval(a, b),
                    items=items,
                    cost=self.cost.snapshot() - before,
                    # A skipped subtree poisons every subsequent frame
                    # (its objects may have appeared at any later time),
                    # so the flag is cumulative, not per-frame.
                    degraded=self.degraded,
                    skipped_subtrees=len(self.skipped_subtrees),
                )
            )
        return results

    # -- update management (Sect. 4.1) ------------------------------------------------

    def _rebuild(self) -> None:
        """Empty and re-seed the queue from the root (paper's heuristic).

        Already-delivered answers stay suppressed via the reported set;
        nodes will be re-read (counted as fresh disk accesses), which is
        the cost the heuristic accepts in exchange for a clean queue.
        """
        self._heap.clear()
        self._expanded.clear()
        self._seed_root()


class _LiveEngines:
    """The live update-tracking engines of one tree, in registration
    order: the tree's one insertion listener, which notifies them all."""

    def __init__(self) -> None:
        self.engines: List[PDQEngine] = []
        self._stacked: tuple = ((), None)  # the engines' trajectory tables

    def __call__(self, notices: Sequence[InsertionNotice]) -> None:
        tables = tuple(e.trajectory.kernel_table() for e in self.engines)
        if tables != self._stacked[0]:
            self._stacked = (tables, kernels.TrajectoryTable.stack(tables))
        notify_inserts(self.engines, notices, self._stacked[1])


#: ``id(tree)`` -> its live engines; an entry dies with its tree
_LIVE: "weakref.WeakValueDictionary[int, _LiveEngines]" = weakref.WeakValueDictionary()


def notify_inserts(
    engines: Sequence[PDQEngine],
    notices: Sequence[InsertionNotice],
    table: kernels.TrajectoryTable,
) -> None:
    """Sect. 4.1's update management for one committed insert batch, for
    the live ``engines`` at once (``table`` stacks their trajectory
    tables, in order).

    Each engine takes the notices in insert order, as one at a time: a
    new segment (no split) is pushed over its visibility components, a
    split that grew the root or sits within ``rebuild_depth`` of it
    rebuilds the queue, and any other split pushes its subtree over its
    box's components.  Every (engine, row) pair is evaluated by one
    gathered kernel call per row kind over the stacked trajectory
    tables, with the scalar overlaps' floats, so heaps, tie counters,
    costs and answers are those of per-insert notification.
    """
    for engine in engines:
        engine._stash.clear()  # the tree changed under what a sweep read
    plain = [i for i, n in enumerate(notices) if n.subtree_id is None]
    split = [i for i, n in enumerate(notices) if n.subtree_id is not None]
    boxes = [notices[i].subtree_box for i in split]
    found: Dict[Tuple[int, int], list] = {}  # (engine, notice) -> components
    for rows, batch in (
        (plain, kernels.SegmentBatch.of([notices[i].entry.record.segment for i in plain])),
        (split, kernels.BoxBatch([b.lows for b in boxes], [b.highs for b in boxes])),  # type: ignore[union-attr]
    ):
        demands = [(batch, slot, e._frontier) for slot, e in enumerate(engines)]
        for slot, components in enumerate(kernels.gathered_live_components(table, demands)):
            for k, low, high in components:
                found.setdefault((slot, rows[k]), []).append((low, high))
    for slot, engine in enumerate(engines):
        for i, notice in enumerate(notices):
            if notice.subtree_id is None:
                engine.cost.count_segment_tests()
                for low, high in found.get((slot, i), ()):
                    engine._push(low, high, record=notice.entry.record)
            elif notice.root_changed or notice.subtree_depth <= engine.rebuild_depth:
                engine._rebuild()
            else:
                # The sibling that kept the old page id may have been
                # expanded already; the new subtree covers its moved
                # entries and the reported set suppresses re-deliveries.
                engine.cost.count_distance_computations()
                for low, high in found.get((slot, i), ()):
                    engine._push(low, high, page_id=notice.subtree_id)


def sweep_windows(
    requests: Sequence[Tuple[PDQEngine, float, float]],
    table: Optional[kernels.TrajectoryTable],
) -> List[List[int]]:
    """Evaluate, page-major, every page ``engine.window(t_start, t_end)``
    will expand, for each ``(engine, t_start, t_end)``.

    The engines share one index.  An engine's seeds are its queued
    node items due in the window; an internal page's live children whose
    component starts by ``t_end`` (and that the engine has not expanded)
    are the next round.  A round loads each of its pages once, in
    page-id order, and evaluates every (engine, page) pair of it in one
    kernel call for the leaves and one for the internal pages.  The
    components wait in each engine's stash, checked against the page's
    rows (their identity and write count) and the engine's frontier,
    for its own ``window`` — which
    pops, charges and pushes exactly as without a sweep.  Nothing here
    touches a queue.

    ``table`` stacks the engines' trajectories' kernel tables, in order
    (``None`` for no requests).  Returns, per request, the sorted pages
    loaded for it — the pages its window will expand.  A page whose load
    fails is left out: each engine's own expansion reads it under its
    fault policy.  An index without a buffer pool is not swept: its
    pages would be read twice.
    """
    engines = [engine for engine, _, _ in requests]
    tree = engines[0].index.tree if engines else None
    if tree is None or tree.disk.buffer_pool is None:
        return [[] for _ in engines]
    frontiers, reached, todo = [], [], {}  # todo: page -> slots
    for slot, (engine, t_start, t_end) in enumerate(requests):
        engine._stash = {}
        frontiers.append(max(engine._frontier, t_start))
        reached.append(engine._due_pages(t_start, t_end))
        for page_id in reached[-1]:
            todo.setdefault(page_id, []).append(slot)
    while todo:
        leaves: list = []  # (slot, page id, arrays) of this round, by page kind
        internal: list = []
        for page_id in sorted(todo):
            try:
                arrays = tree.load_node(page_id).entries
            except (TransientIOError, CorruptPageError):
                for slot in todo[page_id]:
                    reached[slot].discard(page_id)
                continue
            pairs = leaves if arrays.is_leaf else internal
            pairs.extend((slot, page_id, arrays) for slot in todo[page_id])
        todo = {}
        for pairs in filter(None, (leaves, internal)):  # a kernel call per kind
            found = kernels.gathered_live_components(table, [
                (a.segment_batch() if a.is_leaf else a.box_batch(), slot, frontiers[slot])
                for slot, _, a in pairs
            ])
            for (slot, page_id, arrays), components in zip(pairs, found):
                engine, mine, t_end = engines[slot], reached[slot], requests[slot][2]
                engine._stash[page_id] = (
                    arrays, arrays.writes, frontiers[slot], components
                )
                for k, low, _ in [] if arrays.is_leaf else components:
                    child = arrays.child_id(k)
                    if (
                        low <= t_end
                        and child not in mine
                        and child not in engine._expanded
                    ):
                        mine.add(child)
                        todo.setdefault(child, []).append(slot)
    return [sorted(pages) for pages in reached]
