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
from typing import Iterable, List, Optional, Tuple

from repro.errors import CorruptPageError, QueryError, TransientIOError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import segment_box_overlap_interval
from repro.index.bulk import str_bulk_load
from repro.index.entry import LeafEntry
from repro.index.pagearrays import page_arrays
from repro.index.rtree import RTree
from repro.motion.segment import MotionSegment
from repro.motion.uncertainty import inflate_box
from repro.storage.constants import PAGE_SIZE, internal_fanout, leaf_fanout
from repro.storage.disk import DiskManager
from repro.storage.metrics import QueryCost

__all__ = ["DualTimeIndex"]

_INF = math.inf


class DualTimeIndex:
    """An R-tree over ``<t_s, t_e, x_1, .., x_d>`` storing motion segments.

    Parameters
    ----------
    dims:
        Spatial dimensionality ``d`` (the tree has ``d + 2`` axes).
    disk, page_size, uncertainty, split, fill_factor, same_path_splits:
        As for :class:`~repro.index.NativeSpaceIndex`.  Note the internal
        fanout is slightly smaller than NSI's because internal entries
        carry one extra axis; leaf entries are unchanged (end-point
        representation), so the leaf fanout matches NSI.
    """

    def __init__(
        self,
        dims: int = 2,
        disk: Optional[DiskManager] = None,
        page_size: int = PAGE_SIZE,
        uncertainty: float = 0.0,
        split: str = "quadratic",
        fill_factor: float = 0.5,
        same_path_splits: bool = True,
        restore_meta: Optional[dict] = None,
    ):
        if dims < 1:
            raise QueryError("need at least one spatial dimension")
        if uncertainty < 0:
            raise QueryError("uncertainty must be non-negative")
        self.dims = dims
        self.uncertainty = uncertainty
        self.tree = RTree(
            axes=dims + 2,
            max_internal=internal_fanout(dims + 2, page_size),
            max_leaf=leaf_fanout(dims, page_size),
            disk=disk,
            fill_factor=fill_factor,
            split=split,
            same_path_splits=same_path_splits,
            restore=restore_meta,
        )

    # -- mappings -----------------------------------------------------------

    def _leaf_entry(self, record: MotionSegment) -> LeafEntry:
        if record.dims != self.dims:
            raise QueryError(
                f"segment has {record.dims} spatial dims, index has {self.dims}"
            )
        t = record.time
        box = Box(
            [Interval.point(t.low), Interval.point(t.high)]
            + [record.segment.spatial_extent(i) for i in range(self.dims)]
        )
        if self.uncertainty:
            box = inflate_box(box, self.uncertainty, spatial_dims_from=2)
        return LeafEntry(box, record)

    def query_box(self, time: Interval, window: Box) -> Box:
        """Dual-time box of a snapshot query over ``time`` and ``window``.

        A segment ``[t_s, t_e]`` temporally overlaps ``[q_l, q_h]`` iff
        ``t_s ≤ q_h`` and ``t_e ≥ q_l``; in dual-time space that is the
        box ``<[-inf, q_h], [q_l, +inf], window>``.
        """
        if window.dims != self.dims:
            raise QueryError(
                f"window has {window.dims} dims, index has {self.dims}"
            )
        if time.is_empty:
            raise QueryError("snapshot query has empty time interval")
        return Box(
            [Interval(-_INF, time.high), Interval(time.low, _INF)] + list(window)
        )

    def native_query_box(self, time: Interval, window: Box) -> Box:
        """The same snapshot query as a native-space box (for exact tests)."""
        return Box([time] + list(window))

    # -- building -------------------------------------------------------------

    def insert(self, record: MotionSegment):
        """Insert one motion update (stamps node/entry timestamps)."""
        return self.tree.insert(self._leaf_entry(record))

    def bulk_load(
        self,
        records: Iterable[MotionSegment],
        target_fill: float = 0.5,
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
        entries = [self._leaf_entry(r) for r in records]
        if time_slabs is None and entries:
            leaf_cap = max(2, int(self.tree.max_leaf * target_fill))
            n_leaves = max(1, len(entries) // leaf_cap)
            lifetimes = sorted(e.record.time.length for e in entries)
            median_lifetime = lifetimes[len(lifetimes) // 2]
            ts_lo = min(e.record.time.low for e in entries)
            ts_hi = max(e.record.time.low for e in entries)
            if median_lifetime > 0:
                time_slabs = round((ts_hi - ts_lo) / median_lifetime)
            else:
                time_slabs = n_leaves
            time_slabs = max(1, min(time_slabs, n_leaves))
        str_bulk_load(
            self.tree,
            entries,
            target_fill=target_fill,
            time_slabs=time_slabs,
            tile_axes=tuple(range(2, self.dims + 2)),
        )

    # -- queries ------------------------------------------------------------------

    def snapshot_search(
        self,
        time: Interval,
        window: Box,
        cost: Optional[QueryCost] = None,
        exact: bool = True,
        fault_budget: int = 0,
        skipped: Optional[List[int]] = None,
    ) -> List[Tuple[MotionSegment, Interval]]:
        """Plain (non-incremental) snapshot evaluation on the dual index.

        ``fault_budget`` / ``skipped`` forward to
        :meth:`~repro.index.RTree.search` for graceful degradation.
        """
        qbox = self.query_box(time, window)
        native = self.native_query_box(time, window)
        results: List[Tuple[MotionSegment, Interval]] = []

        if exact:

            def leaf_test(entry: LeafEntry) -> bool:
                overlap = segment_box_overlap_interval(entry.record.segment, native)
                if overlap.is_empty:
                    return False
                results.append((entry.record, overlap))
                return True

            for _ in self.tree.search(
                qbox, cost, leaf_test, fault_budget=fault_budget, skipped=skipped
            ):
                pass
        else:
            for entry in self.tree.search(
                qbox, cost, fault_budget=fault_budget, skipped=skipped
            ):
                results.append((entry.record, entry.record.time.intersect(time)))
        return results

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
            entries = node.entries
            if cost is not None:
                cost.count_distance_computations(len(entries))
            arrays = page_arrays(node)
            stack.extend(
                entries[k].child_id
                for k in kernels.live_rows(
                    arrays.box_batch(), arrays.stamps(), rule
                )
            )
        return pages

    def __len__(self) -> int:
        return len(self.tree)
