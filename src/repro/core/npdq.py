"""Non-Predictive Dynamic Queries (Sect. 4.2).

The trajectory is unknown, so each snapshot is evaluated when it
arrives — but against the memory of the *previous* snapshot ``P``:

* a node ``R`` is **discardable** for the current snapshot ``Q`` iff
  ``(Q ∩ R) ⊆ P`` (Lemma 1): everything of ``R`` that matters to ``Q``
  was already inspected by ``P``;
* a motion segment is suppressed iff ``P`` delivered it, because the
  client still holds it.

**Soundness subtlety** (found by this library's fuzz tests): Lemma 1
reasons about *bounding boxes*, so it is only sound if delivery does
too.  With the exact leaf-level segment test of Sect. 3.2 alone, a
segment whose box overlaps ``P`` but whose trajectory first enters the
window during ``Q`` would be silently lost — ``Q`` discards its node
("``P`` covered it") while ``P``'s exact test rejected it.  The engine
therefore suppresses on box coverage and hands such box-only admissions
to the client as ``prefetched`` answers; ``items`` remain exactly the
snapshot's true answers.

Plain time axes make discardability vacuous (consecutive snapshots never
overlap temporally), so the engine runs over the
:class:`~repro.index.DualTimeIndex` — the paper's chosen fix (Fig. 5(b)).

Update management: an insertion stamps every entry along its insertion
path with the index's operation clock.  While searching, a bounding box
whose timestamp is newer than the previous query's clock reading must
not be discarded against ``P`` (``P`` never saw its new content); the
normal overlap test is used instead.  Likewise a leaf entry inserted
after ``P`` ran is never suppressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.results import AnswerItem, SnapshotResult
from repro.core.snapshot import SnapshotQuery
from repro.core.trajectory import QueryTrajectory
from repro.errors import CorruptPageError, QueryError, TransientIOError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.index.pagearrays import page_arrays
from repro.storage.metrics import QueryCost

__all__ = ["NPDQEngine"]


@dataclass(frozen=True)
class _PreviousQuery:
    """What the engine remembers about the last snapshot."""

    dual_box: Box
    native_box: Box
    clock: int
    time: Interval


class NPDQEngine:
    """Incremental evaluator for a non-predictive dynamic query.

    Parameters
    ----------
    index:
        The :class:`~repro.index.DualTimeIndex` holding the segments.
    exact:
        Apply exact leaf-level segment tests (on by default).
    fault_budget:
        ``None`` (default) propagates storage faults.  An integer
        enables graceful degradation: a failing node load is re-enqueued
        up to this many extra times, then skipped.  Because the engine's
        memory of the previous snapshot then over-claims coverage, every
        snapshot from the first skip until :meth:`reset` is flagged
        ``degraded``.
    """

    def __init__(
        self,
        index: DualTimeIndex,
        exact: bool = True,
        fault_budget: Optional[int] = None,
    ):
        self.index = index
        self.exact = exact
        self.fault_budget = fault_budget
        self.skipped_subtrees: List[int] = []
        self.cost = QueryCost()
        self.last_loaded_pages: List[int] = []
        self._prev: Optional[_PreviousQuery] = None
        self._degraded = False

    # -- state -------------------------------------------------------------

    def reset(self) -> None:
        """Forget the previous snapshot (e.g. after a teleport).

        Also clears the sticky ``degraded`` flag: with no history to
        over-trust, the next snapshot is evaluated from scratch.
        """
        self._prev = None
        self._degraded = False

    @property
    def degraded(self) -> bool:
        """True once a subtree skip has tainted the engine's history."""
        return self._degraded

    @property
    def has_history(self) -> bool:
        """True once at least one snapshot has been evaluated."""
        return self._prev is not None

    # -- prediction ----------------------------------------------------------

    def predict_pages(
        self,
        query: SnapshotQuery,
        cost: Optional[QueryCost] = None,
        failed: Optional[List[int]] = None,
    ) -> List[int]:
        """Page ids :meth:`snapshot` would load for ``query``, read-only.

        Replays the snapshot descent — overlap against the dual-time
        query box, Lemma-1 coverage pruning against the remembered
        previous query — without evaluating leaf entries or advancing
        the engine's memory, so calling it changes no answer and no
        per-query cost (reads are charged to the caller-supplied
        ``cost``, if any, never to :attr:`cost`).

        Because :meth:`~repro.index.DualTimeIndex.frontier_walk` is
        monotone in the query box, predicting with any *superset* of
        the query actually evaluated later yields a superset of the
        pages actually loaded — provided the tree and the engine's
        previous-query memory are unchanged in between, which is the
        serving layer's tick discipline (updates apply strictly between
        ticks, prediction and evaluation happen within one).

        Storage faults never propagate: a failing page is included in
        the result (and in ``failed``) but its subtree stays
        unenumerated, so a faulty walk can only under-predict — which
        costs the evaluation demand fetches, never answers.
        """
        if query.dims != self.index.dims:
            raise QueryError(
                f"query has {query.dims} dims, index has {self.index.dims}"
            )
        dual = self.index.query_box(query.time, query.window)
        prev = self._prev
        if prev is None:
            return self.index.frontier_walk(dual, cost=cost, failed=failed)
        return self.index.frontier_walk(
            dual,
            prev_box=prev.dual_box,
            prev_clock=prev.clock,
            cost=cost,
            failed=failed,
        )

    # -- evaluation ----------------------------------------------------------

    def snapshot(self, query: SnapshotQuery) -> SnapshotResult:
        """Evaluate one snapshot, returning only *new* answers.

        The first snapshot (or the first after :meth:`reset`) is a plain
        range search; subsequent ones skip discardable subtrees and
        suppress answers the previous snapshot already delivered.
        Snapshots must advance in time (``P.t̄ ⪯ Q.t̄``).

        Every loaded page goes through :func:`kernels.live_rows` — the
        discard rule the prediction walk also descends through — and only
        its live rows are looked at again: children are pushed in entry
        order, and a leaf's segment tests run over row subsets, so the
        cost counters are sums over masks (one distance computation per
        entry of a loaded page, one segment test per row that reached the
        exact-``P`` test, one per row that reached the exact-``Q`` test).
        """
        if query.dims != self.index.dims:
            raise QueryError(
                f"query has {query.dims} dims, index has {self.index.dims}"
            )
        prev = self._prev
        if prev is not None and not prev.time.precedes(query.time):
            raise QueryError(
                "snapshots of a dynamic query must be temporally ordered"
            )
        tree = self.index.tree
        dual = self.index.query_box(query.time, query.window)
        native = query.to_native_box()
        # Open-ended variant used to compute disappearance times: how long
        # the object stays inside the *current* window from now on.
        open_native = Box(
            [Interval(query.time.low, math.inf)] + list(query.window)
        )
        rule = (
            kernels.DiscardRule(dual)
            if prev is None
            else kernels.DiscardRule(dual, prev.dual_box, prev.clock)
        )
        before = self.cost.snapshot()
        items: List[AnswerItem] = []
        prefetched: List[AnswerItem] = []
        self.last_loaded_pages = []
        snapshot_skips = 0
        attempts: dict = {}
        stack = [tree.root_id]
        while stack:
            page_id = stack.pop()
            try:
                node = tree.load_node(page_id, self.cost)
            except (TransientIOError, CorruptPageError):
                if self.fault_budget is None:
                    raise
                tries = attempts.get(page_id, 0)
                if tries < self.fault_budget:
                    attempts[page_id] = tries + 1
                    stack.insert(0, page_id)  # retry after the rest
                else:
                    self.skipped_subtrees.append(page_id)
                    snapshot_skips += 1
                    self._degraded = True
                continue
            self.last_loaded_pages.append(page_id)
            entries = node.entries
            self.cost.count_distance_computations(len(entries))
            arrays = page_arrays(node)
            live = kernels.live_rows(arrays.box_batch(), arrays.stamps(), rule)
            if not node.is_leaf:
                stack.extend(entries[k].child_id for k in live)  # type: ignore[union-attr]
                continue
            if not live:
                continue  # the usual leaf: its segment column is never built
            segb = arrays.segment_batch()
            if prev is not None:
                # Suppression mirrors Lemma 1's box semantics: if P's
                # boxes covered an entry, P's run delivered it (possibly
                # as a prefetch) and the client has it — those rows are
                # already dead.  An exact-P hit is an equivalent witness,
                # asked only of rows old enough for P to have seen them.
                old = [k for k in live if entries[k].timestamp <= prev.clock]
                self.cost.count_segment_tests(len(old))
                seen = kernels.segment_box_overlap_batch(
                    segb.take(old), prev.native_box
                )
                delivered = {k for k, s in zip(old, seen) if not s.is_empty}
                live = [k for k in live if k not in delivered]
                if not live:
                    continue
            segb = segb.take(live)
            vis_vals = kernels.segment_box_overlap_batch(segb, open_native)
            if self.exact:
                self.cost.count_segment_tests(len(live))
                ovl_vals = kernels.segment_box_overlap_batch(segb, native)
            for j, k in enumerate(live):
                record = entries[k].record  # type: ignore[union-attr]
                visibility = vis_vals[j]
                if visibility.is_empty:
                    # A box-only admission never enters the window: give
                    # it a retention-hint interval instead.
                    visibility = Interval(query.time.low, record.time.high)
                if self.exact and ovl_vals[j].is_empty:
                    # Box-only admission: not an answer of Q, but future
                    # snapshots may assume the client got it (see the
                    # module docstring).
                    prefetched.append(AnswerItem(record, visibility))
                    continue
                self.cost.count_results()
                items.append(AnswerItem(record, visibility))
        self._prev = _PreviousQuery(dual, native, tree.clock, query.time)
        return SnapshotResult(
            query_time=query.time,
            items=items,
            cost=self.cost.snapshot() - before,
            prefetched=prefetched,
            degraded=self._degraded,
            skipped_subtrees=snapshot_skips,
        )

    def run(
        self, trajectory: QueryTrajectory, period: float
    ) -> List[SnapshotResult]:
        """Evaluate a whole frame series (the trajectory is *not* given
        to the algorithm in advance — it is consumed one snapshot at a
        time, exactly as an unpredictable observer would produce it)."""
        return [self.snapshot(q) for q in trajectory.frame_queries(period)]
