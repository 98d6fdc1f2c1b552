"""Literal-value builders shared across test modules."""

from __future__ import annotations

import json
import math

from repro.core.npdq import NPDQEngine, _PreviousQuery
from repro.core.results import AnswerItem, SnapshotResult
from repro.errors import CorruptPageError, TransientIOError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment, segment_box_overlap_interval
from repro.motion.segment import MotionSegment


def make_segment(
    oid: int = 0,
    seq: int = 0,
    t0: float = 0.0,
    t1: float = 1.0,
    origin=(0.0, 0.0),
    velocity=(1.0, 0.0),
) -> MotionSegment:
    """Handy literal motion-segment builder."""
    return MotionSegment(
        oid, seq, SpaceTimeSegment(Interval(t0, t1), tuple(origin), tuple(velocity))
    )


def window(x0: float, y0: float, x1: float, y1: float) -> Box:
    """2-d spatial box literal."""
    return Box.from_bounds((x0, y0), (x1, y1))


class JsonPageCodec:
    """Page codec for storage tests: any JSON value as its bytes."""

    def encode(self, payload) -> bytes:
        return json.dumps(payload).encode()

    def decode(self, data: bytes):
        return json.loads(data)


# -- the dual-tree discard rule and the NPDQ traversals, one entry at a time --
#
# The scalar code the engines ran before ``kernels.live_rows`` replaced
# it, kept as the reference the mask-first traversals are tested against.


def scalar_live_rows(entries, query, prev=None, clock=-1):
    """Indices of ``entries`` that survive ``(Q ∩ R) ⊆ P ∧ stamp ≤ clock``."""
    live = []
    for k, e in enumerate(entries):
        shared = e.box.intersect(query)
        if shared.is_empty:
            continue
        if prev is not None and e.timestamp <= clock and prev.contains_box(shared):
            continue
        live.append(k)
    return live


def scalar_frontier_walk(
    index, query_box, prev_box=None, prev_clock=-1, cost=None, failed=None
):
    """``DualTimeIndex.frontier_walk`` with the per-entry scalar rule."""
    pages = []
    stack = [index.tree.root_id]
    while stack:
        page_id = stack.pop()
        pages.append(page_id)
        try:
            node = index.tree.load_node(page_id, cost)
        except (TransientIOError, CorruptPageError):
            if failed is not None:
                failed.append(page_id)
            continue
        if node.is_leaf:
            continue
        for _ in node.entries:
            if cost is not None:
                cost.count_distance_computations()
        for k in scalar_live_rows(node.entries, query_box, prev_box, prev_clock):
            stack.append(node.entries[k].child_id)
    return pages


class ScalarNPDQEngine(NPDQEngine):
    """``NPDQEngine`` with ``snapshot`` as it was before the mask-first
    page routine: one pass over every entry of every loaded page, scalar
    geometry, a cost counter bumped per entry outcome."""

    def predict_pages(self, query, cost=None, failed=None):
        dual = self.index.query_box(query.time, query.window)
        prev = self._prev
        if prev is None:
            return scalar_frontier_walk(self.index, dual, cost=cost, failed=failed)
        return scalar_frontier_walk(
            self.index, dual, prev.dual_box, prev.clock, cost, failed
        )

    def snapshot(self, query):
        prev = self._prev
        tree = self.index.tree
        dual = self.index.query_box(query.time, query.window)
        native = query.to_native_box()
        open_native = Box(
            [Interval(query.time.low, math.inf)] + list(query.window)
        )
        before = self.cost.snapshot()
        items = []
        prefetched = []
        self.last_loaded_pages = []
        snapshot_skips = 0
        attempts = {}
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
            if node.is_leaf:
                for e in node.entries:
                    self.cost.count_distance_computations()
                    shared = e.box.intersect(dual)
                    if shared.is_empty:
                        continue
                    segment = e.record.segment
                    if prev is not None and e.timestamp <= prev.clock:
                        if prev.dual_box.contains_box(shared):
                            continue
                        self.cost.count_segment_tests()
                        if not segment_box_overlap_interval(
                            segment, prev.native_box
                        ).is_empty:
                            continue
                    visibility = segment_box_overlap_interval(segment, open_native)
                    if not self.exact and visibility.is_empty:
                        visibility = Interval(query.time.low, e.record.time.high)
                    if self.exact:
                        self.cost.count_segment_tests()
                        if segment_box_overlap_interval(segment, native).is_empty:
                            if visibility.is_empty:
                                visibility = Interval(
                                    query.time.low, e.record.time.high
                                )
                            prefetched.append(AnswerItem(e.record, visibility))
                            continue
                    self.cost.count_results()
                    items.append(AnswerItem(e.record, visibility))
            else:
                for _ in node.entries:
                    self.cost.count_distance_computations()
                live = (
                    scalar_live_rows(node.entries, dual)
                    if prev is None
                    else scalar_live_rows(
                        node.entries, dual, prev.dual_box, prev.clock
                    )
                )
                for k in live:  # the others are discardable (Lemma 1)
                    stack.append(node.entries[k].child_id)
        self._prev = _PreviousQuery(dual, native, tree.clock, query.time)
        return SnapshotResult(
            query_time=query.time,
            items=items,
            cost=self.cost.snapshot() - before,
            prefetched=prefetched,
            degraded=self._degraded,
            skipped_subtrees=snapshot_skips,
        )
