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

Update management (Sect. 4.1, Fig. 4): the engine registers as an
insertion listener on the underlying tree.  A non-splitting insert pushes
the new segment straight into the queue; a splitting insert pushes the
lowest common ancestor of the freshly created nodes (a single node,
thanks to forced same-path splits).  Duplicate deliveries are eliminated
at pop time via expanded-node and reported-answer sets — equivalent to
the paper's "compare with the previously popped item" trick but robust
to any number of concurrent duplicates.  When the notified ancestor sits
within ``rebuild_depth`` of the root (the paper: "if the lowest common
ancestor ... is close to the root node, it is better to empty the
priority queue ... and rebuild"), the queue is rebuilt from the root
instead.

:func:`sweep_windows` evaluates, page-major, the pages many engines'
next windows will expand; each engine's ``window`` then pops, expands
and pushes exactly as it does alone, so answers and costs are its own.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import CorruptPageError, QueryError, TransientIOError
from repro.core.results import AnswerItem, SnapshotResult
from repro.core.trajectory import QueryTrajectory
from repro.geometry import kernels
from repro.geometry.interval import Interval
from repro.geometry.timeset import TimeSet
from repro.index.nsi import NativeSpaceIndex
from repro.index.rtree import InsertionNotice
from repro.motion.segment import MotionSegment
from repro.storage.metrics import QueryCost

__all__ = ["PDQEngine", "sweep_windows"]


@dataclass(frozen=True)
class _Pending:
    """A queue item: a node or a segment, with one visibility component."""

    interval: Interval
    page_id: int = -1  # >= 0 for nodes
    record: Optional[MotionSegment] = None  # set for segments

    @property
    def is_node(self) -> bool:
        return self.page_id >= 0


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
    insertion listener is detached.
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
            self.index.tree.add_listener(self._on_insert)
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
            self.index.tree.remove_listener(self._on_insert)

    def __enter__(self) -> "PDQEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queue plumbing ----------------------------------------------------------

    def _push(self, item: _Pending) -> None:
        heapq.heappush(
            self._heap, (item.interval.low, next(self._tie), item)
        )

    def _seed_root(self) -> None:
        """Enqueue the root over the whole query span.

        The root's own overlap interval is not computed (its box is not
        known before the first read); using the full span is correct and
        costs nothing because the root is explored immediately anyway.
        """
        self._push(
            _Pending(self.trajectory.time_span, page_id=self.index.tree.root_id)
        )

    def _push_components(self, timeset: TimeSet, *, page_id: int = -1,
                         record: Optional[MotionSegment] = None) -> None:
        """Enqueue one item per connected visibility component.

        Components already entirely behind the query frontier are
        dropped (they can never be requested again)."""
        for component in timeset:
            if component.high >= self._frontier:
                self._push(
                    _Pending(component, page_id=page_id, record=record)
                )

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
        for k, component in components:
            if node.is_leaf:
                self._push(_Pending(component, record=rows.record(k)))
            else:
                self._push(_Pending(component, page_id=rows.child_id(k)))

    # -- frontier inspection (shared-scan support) --------------------------------

    def frontier_pages(self, t_end: float) -> List[int]:
        """Page ids of queued nodes this engine will expand by ``t_end``
        — the batch demand of an engine no sweep evaluates (an auto
        session's).  The heap is only inspected, never mutated; pages
        already expanded (duplicates from update notifications) are
        excluded.  Sorted and de-duplicated.
        """
        return sorted(self._due_pages(self._frontier, t_end))

    def _due_pages(self, t_start: float, t_end: float) -> Set[int]:
        """Pages ``window(t_start, t_end)`` pops and expands from the queue
        as it stands, by a heap walk that leaves a subtree whose top is
        due after ``t_end`` (heap order: nothing below is due earlier)."""
        heap, due, stack = self._heap, set(), [0]
        while stack:
            i = stack.pop()
            if i >= len(heap) or heap[i][0] > t_end:
                continue
            item = heap[i][2]
            if (
                item.page_id >= 0
                and item.page_id not in self._expanded
                and item.interval.high >= t_start
            ):
                due.add(item.page_id)
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
        if self._closed:
            raise QueryError("engine is closed")
        if t_end < t_start:
            raise QueryError("t_end must be >= t_start")
        self._frontier = max(self._frontier, t_start)
        while self._heap:
            start, _, item = self._heap[0]
            if start > t_end:
                return None
            heapq.heappop(self._heap)
            if item.interval.high < t_start:
                continue  # expired: the window has moved past this item
            if item.is_node:
                if item.page_id in self._expanded:
                    continue  # duplicate from an update notification
                self._expanded.add(item.page_id)
                try:
                    self._expand(item.page_id)
                except (TransientIOError, CorruptPageError):
                    # The load failed after the disk's own retries; the
                    # node was not expanded (nothing was enqueued yet).
                    self._expanded.discard(item.page_id)
                    if self.fault_budget is None:
                        raise
                    tries = self._fault_attempts.get(item.page_id, 0)
                    if tries < self.fault_budget:
                        # Re-enqueue over its remaining visibility so a
                        # later pop gets a fresh round of disk retries.
                        self._fault_attempts[item.page_id] = tries + 1
                        self._push(
                            _Pending(item.interval, page_id=item.page_id)
                        )
                    else:
                        self.skipped_subtrees.append(item.page_id)
            else:
                answer_key = (item.record.key, item.interval)
                if answer_key in self._reported:
                    continue  # duplicate from an update notification
                self._reported.add(answer_key)
                self.cost.count_results()
                return AnswerItem(item.record, item.interval)
        return None

    def window(self, t_start: float, t_end: float) -> List[AnswerItem]:
        """All objects appearing during ``[t_start, t_end]`` (what a
        sweep stashed for it and it did not take is dropped)."""
        items: List[AnswerItem] = []
        while True:
            item = self.get_next(t_start, t_end)
            if item is None:
                self._stash.clear()
                return items
            items.append(item)

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

    def _on_insert(self, notice: InsertionNotice) -> None:
        """React to a concurrent insertion into the index."""
        if self._closed:
            return
        self._stash.clear()  # the tree changed under what a sweep read
        if notice.subtree_id is None:
            # No split: consider the inserted segment directly.
            self.cost.count_segment_tests()
            timeset = self.trajectory.segment_overlap(notice.entry.record.segment)
            self._push_components(timeset, record=notice.entry.record)
            return
        if notice.root_changed or (
            self.index.tree.depth_of(notice.subtree_id) <= self.rebuild_depth
        ):
            self._rebuild()
            return
        assert notice.subtree_box is not None
        self.cost.count_distance_computations()
        timeset = self.trajectory.box_overlap(notice.subtree_box)
        self._push_components(timeset, page_id=notice.subtree_id)
        # The sibling that kept the old page id may already have been
        # expanded with entries that have since moved; those entries are
        # covered by the new subtree, and re-deliveries are suppressed by
        # the reported-answer set.

    def _rebuild(self) -> None:
        """Empty and re-seed the queue from the root (paper's heuristic).

        Already-delivered answers stay suppressed via the reported set;
        nodes will be re-read (counted as fresh disk accesses), which is
        the cost the heuristic accepts in exchange for a clean queue.
        """
        self._heap.clear()
        self._expanded.clear()
        self._seed_root()


def sweep_windows(
    requests: Sequence[Tuple[PDQEngine, float, float]],
    table: Optional[kernels.TrajectoryTable],
) -> Tuple[List[List[int]], int]:
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
    loaded for it — the pages its window will expand — and the count of
    failed page loads (each engine's own expansion reads those under its
    fault policy).  An index without a buffer pool is not swept: its
    pages would be read twice.
    """
    engines = [engine for engine, _, _ in requests]
    tree = engines[0].index.tree if engines else None
    if tree is None or tree.disk.buffer_pool is None:
        return [[] for _ in engines], 0
    frontiers, reached, todo, failed = [], [], {}, 0  # todo: page -> slots
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
                failed += 1
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
                for k, component in [] if arrays.is_leaf else components:
                    child = arrays.child_id(k)
                    if (
                        component.low <= t_end
                        and child not in mine
                        and child not in engine._expanded
                    ):
                        mine.add(child)
                        todo.setdefault(child, []).append(slot)
    return [sorted(pages) for pages in reached], failed
