"""Dual-time-axis indexing for non-predictive dynamic queries (Sect. 4.2).

Consecutive snapshots of a dynamic query never overlap on the plain time
axis (``P`` ends where ``Q`` begins), so the discardability condition
``(Q ∩ R) ⊆ P`` is useless over native space.  The paper's chosen fix is
to "separate the starting time and the ending time of motions into
independent axes": a motion segment valid over ``[t_s, t_e]`` becomes a
*point* ``(t_s, t_e)`` above the 45° line in dual-time space, and a
snapshot query over times ``[q_l, q_h]`` becomes the half-open region
``t_s ≤ q_h ∧ t_e ≥ q_l`` — a box with infinite extents.  Consecutive
query regions in this space overlap massively, which is precisely what
lets ``P`` cover most of ``Q``.

:class:`DualTimeIndex` is an R-tree over ``<t_s, t_e, x_1, .., x_d>``
with exact leaf segments, used by the NPDQ engine.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

from repro.errors import CorruptPageError, TransientIOError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.bulk import str_bulk_load
from repro.index.facade import SegmentIndex
from repro.motion.segment import MotionSegment
from repro.storage.constants import DEFAULT_FILL_FACTOR
from repro.storage.metrics import QueryCost

__all__ = ["DualTimeIndex"]

_INF = math.inf


class DualTimeIndex(SegmentIndex):
    """An R-tree over ``<t_s, t_e, x_1, .., x_d>`` storing motion segments.

    Parameters are those of :class:`~repro.index.facade.SegmentIndex`;
    the tree has ``d + 2`` axes.  The internal fanout is slightly
    smaller than NSI's because internal entries carry one extra axis;
    leaf entries are unchanged (end-point representation), so the leaf
    fanout matches NSI.
    """

    _time_axes = 2

    def _leaf_box(self, record: MotionSegment) -> Box:
        t = record.time
        return Box(
            [Interval.point(t.low), Interval.point(t.high)]
            + [record.segment.spatial_extent(i) for i in range(self.dims)]
        )

    @staticmethod
    def _leaf_bounds(segments: kernels.SegmentBatch):
        times = [segments.t_lo, segments.t_hi]
        lows, highs = SegmentIndex._leaf_bounds(segments)
        return times + lows[1:], times + highs[1:]

    def query_box(self, time: Interval, window: Box) -> Box:
        """Dual-time box of a snapshot query over ``time`` and ``window``.

        A segment ``[t_s, t_e]`` temporally overlaps ``[q_l, q_h]`` iff
        ``t_s ≤ q_h`` and ``t_e ≥ q_l``; in dual-time space that is the
        box ``<[-inf, q_h], [q_l, +inf], window>``.
        """
        self._native_box(time, window)  # refuses a malformed query
        return Box(
            [Interval(-_INF, time.high), Interval(time.low, _INF)] + list(window)
        )

    def _node_test(self, time: Interval, window: Box) -> Box:
        return self.query_box(time, window)

    def bulk_load(
        self,
        records: Iterable[MotionSegment],
        time_slabs: Optional[int] = None,
    ) -> None:
        """STR-pack many records into an empty index.

        Uses *time-major* tiling by default: start-time-narrow,
        spatially compact leaves are what makes NPDQ's discardability
        test effective, and are the shape a chronologically
        insertion-built tree develops anyway.  ``time_slabs=None`` picks
        one slab per median segment lifetime (empirically the sweet spot
        for both the naive evaluator and NPDQ: thinner slabs sacrifice
        spatial tightness, thicker ones let start times straddle the
        query).  Pass ``time_slabs=1`` for a purely spatial tiling or an
        explicit count to control the trade-off.
        """
        records = list(records)
        rows = self._leaf_rows(records)
        if time_slabs is None and records:
            leaf_cap = max(2, int(self.tree.max_leaf * DEFAULT_FILL_FACTOR))
            n_leaves = max(1, len(records) // leaf_cap)
            lifetimes = sorted(r.time.length for r in records)
            median_lifetime = lifetimes[len(lifetimes) // 2]
            ts_lo = min(r.time.low for r in records)
            ts_hi = max(r.time.low for r in records)
            if median_lifetime > 0:
                time_slabs = round((ts_hi - ts_lo) / median_lifetime)
            else:
                time_slabs = n_leaves
            time_slabs = max(1, min(time_slabs, n_leaves))
        str_bulk_load(
            self.tree,
            rows,
            time_slabs=time_slabs,
            tile_axes=tuple(range(2, self.dims + 2)),
        )

    def frontier_walk(
        self,
        query_box: Box,
        prev_box: Optional[Box] = None,
        prev_clock: int = -1,
        cost: Optional[QueryCost] = None,
        failed: Optional[List[int]] = None,
    ) -> List[int]:
        """Enumerate the pages a coverage-pruned descent would touch.

        Descends the tree for ``query_box`` applying the NPDQ
        discardability test against a remembered previous query
        (``prev_box`` in dual-time space, read at operation-clock
        ``prev_clock``): a child is skipped iff its timestamp is no newer
        than ``prev_clock`` *and* ``prev_box`` covers its share of the
        query (Lemma 1).  Returns every page id visited, in descent
        order — the page set :meth:`~repro.core.NPDQEngine.snapshot`
        would load for the same query against the same previous state,
        because both descend through the one implementation of the
        rule, :func:`repro.geometry.kernels.live_rows`, a page at a time.

        **Monotonicity** (the shared-scan superset lemma): enlarging
        ``query_box`` can only grow the result.  A bigger box passes the
        overlap test wherever the smaller one did, and makes the
        coverage test *harder* to satisfy (``prev ⊇ Q' ∩ R`` implies
        ``prev ⊇ Q ∩ R`` when ``Q ⊆ Q'``), so every page the smaller
        query descends into, the bigger one does too.

        The walk never raises on storage faults: a page that fails to
        load is still reported (it *would* be touched) and appended to
        ``failed``, but its subtree cannot be enumerated — the engine's
        own retry/degradation machinery deals with it during evaluation.

        Only :meth:`~repro.core.NPDQEngine.predict_pages` calls it; it
        stays because ``bench/trace.py`` patches it by name.
        """
        rule = kernels.DiscardRule(query_box, prev_box, prev_clock)
        pages: List[int] = []
        stack = [self.tree.root_id]
        while stack:
            page_id = stack.pop()
            pages.append(page_id)
            try:
                node = self.tree.load_node(page_id, cost)
            except (TransientIOError, CorruptPageError):
                if failed is not None:
                    failed.append(page_id)
                continue
            if node.is_leaf:
                continue
            rows = node.entries
            if cost is not None:
                cost.count_distance_computations(len(rows))
            stack.extend(
                rows.child_id(k)
                for k in kernels.live_rows(rows.box_batch(), rows.stamps(), rule)
            )
        return pages
