"""One facade over the three mappings of motion segments into an R-tree.

NSI (Sect. 3.2), the dual-time axes (Sect. 4.2) and PSI (Sect. 2) index
the same motion segments and answer the same snapshot query; they differ
in three things only, which is all a flavour supplies:

* its axis count, ``_time_axes + _axes_per_dim * dims``;
* the box a segment is filed under, :meth:`SegmentIndex._leaf_box`, and
  the same boxes as columns over many segments,
  :meth:`SegmentIndex._leaf_bounds`;
* which node boxes a query may prune, :meth:`SegmentIndex._node_test`
  (by default the overlap test against the native query box, which the
  search evaluates on a page's box column).

Construction, insertion, bulk loading and the snapshot search are written
once here.  Bulk loading hands STR the records' columns — segment rows,
box rows from :meth:`SegmentIndex._leaf_bounds`, the records themselves
as the record column — and builds no entry object.  The search is one
:meth:`~repro.index.RTree.search` traversal pruned by the flavour's
test, with the exact segment test of [13] at the leaves.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple, Union

from repro.errors import DimensionalityError, QueryError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import segment_box_overlap_interval
from repro.index.bulk import str_bulk_load
from repro.index.entry import LeafEntry
from repro.index.pagearrays import PageRows
from repro.index.rtree import RTree
from repro.motion.segment import MotionSegment, SegmentTable
from repro.motion.uncertainty import inflate_box
from repro.storage.constants import PAGE_SIZE, internal_fanout, leaf_fanout
from repro.storage.disk import DiskManager
from repro.storage.metrics import QueryCost

__all__ = ["SegmentIndex"]

Records = Union[SegmentTable, Iterable[MotionSegment]]  # what bulk_load takes


class SegmentIndex:
    """An R-tree of motion segments under one flavour's mapping.

    Parameters
    ----------
    dims:
        Spatial dimensionality ``d``.
    disk:
        Optional page store (a counting object-mode one by default).
    page_size:
        Page size used to derive fanouts (4096 reproduces the paper's
        145/127 at d = 2 for NSI).
    uncertainty:
        Non-negative location-error bound ε; indexed boxes are inflated
        by it along the spatial axes so imprecise objects are never
        missed (Sect. 3.1).
    split:
        Forwarded to :class:`~repro.index.RTree`.
    restore_meta:
        Durable-store recovery metadata (root/size/clock); reattach to
        the pages already on ``disk`` instead of starting empty.
    """

    _time_axes = 1
    _axes_per_dim = 1

    def __init__(
        self,
        dims: int = 2,
        disk: Optional[DiskManager] = None,
        page_size: int = PAGE_SIZE,
        uncertainty: float = 0.0,
        split: str = "quadratic",
        restore_meta: Optional[dict] = None,
    ):
        if dims < 1:
            raise QueryError("need at least one spatial dimension")
        if uncertainty < 0:
            raise QueryError("uncertainty must be non-negative")
        self.dims = dims
        self.page_size = page_size
        self.uncertainty = uncertainty
        axes = self._time_axes + self._axes_per_dim * dims
        self.tree = RTree(
            axes=axes,
            max_internal=internal_fanout(axes, page_size),
            max_leaf=leaf_fanout(dims, page_size),
            disk=disk,
            split=split,
            restore=restore_meta,
        )

    # -- building -----------------------------------------------------------

    def _leaf_box(self, record: MotionSegment) -> Box:
        """The box ``record`` is filed under (native space by default)."""
        return record.bounding_box()

    @staticmethod
    def _leaf_bounds(segments: kernels.SegmentBatch) -> Tuple[List, List]:
        """Per axis, the low and the high column of :meth:`_leaf_box` over
        ``segments`` — the same floats (a page codec files a decoded leaf
        row under them too)."""
        return segments.box_bounds()

    def _check_dims(self, record: MotionSegment) -> None:
        if record.dims != self.dims:
            raise QueryError(
                f"segment has {record.dims} spatial dims, index has {self.dims}"
            )

    def _leaf_entry(self, record: MotionSegment) -> LeafEntry:
        self._check_dims(record)
        box = self._leaf_box(record)
        if self.uncertainty:
            box = inflate_box(box, self.uncertainty, spatial_dims_from=self._time_axes)
        return LeafEntry(box, record)

    def _leaf_rows(self, records: Records) -> PageRows:
        """The leaf rows :meth:`_leaf_entry` would give ``records``, as
        columns; the table's record column is theirs."""
        if not isinstance(records, SegmentTable):
            records = list(records)
            try:
                records = SegmentTable.of(records)
            except DimensionalityError:  # mixed: name the first stranger
                for record in records:
                    self._check_dims(record)
                raise
        table, segments = records, records.segments
        if len(table) and segments.dims != self.dims:
            raise QueryError(f"segment has {segments.dims} spatial dims, index has {self.dims}")
        lows, highs = self._leaf_bounds(segments)
        pad = None
        if self.uncertainty:  # inflate_box's amounts: none on the time axes
            spatial = len(lows) - self._time_axes
            pad = [0.0] * self._time_axes + [self.uncertainty] * spatial
        return PageRows(
            kernels.BoxBatch.from_columns(lows, highs, pad),
            kernels.stamp_column([0] * len(table)),
            table.ids,
            segments,
            table.records,
        )

    def insert(self, record: MotionSegment):
        """Insert one motion update (stamps timestamps, notifies listeners)."""
        return self.tree.insert(self._leaf_entry(record))

    def insert_batch(self, records: Iterable[MotionSegment]):
        """Insert motion updates in order as one write batch
        (:meth:`~repro.index.RTree.insert_batch`)."""
        return self.tree.insert_batch([self._leaf_entry(r) for r in records])

    def bulk_load(self, records: Records) -> None:
        """STR-pack many records (or a table of them) into an empty index."""
        str_bulk_load(self.tree, self._leaf_rows(records))

    # -- queries ------------------------------------------------------------

    def _native_box(self, time: Interval, window: Box) -> Box:
        """A snapshot query as the native-space box ``<time, window>``.

        Every flavour refuses the same malformed queries: a window of
        the wrong dimensionality and an empty time interval.
        """
        if window.dims != self.dims:
            raise QueryError(
                f"window has {window.dims} dims, index has {self.dims}"
            )
        if time.is_empty:
            raise QueryError("snapshot query has empty time interval")
        return Box([time] + list(window))

    def _node_test(
        self, time: Interval, window: Box
    ) -> Union[Box, Callable[[Box], bool]]:
        """May a subtree (or leaf entry) with this box hold an answer?  A
        box means: iff it overlaps that box."""
        return self._native_box(time, window)

    def snapshot_search(
        self,
        time: Interval,
        window: Box,
        cost: Optional[QueryCost] = None,
        exact: bool = True,
        fault_budget: int = 0,
        skipped: Optional[List[int]] = None,
    ) -> List[Tuple[MotionSegment, Interval]]:
        """All segments inside ``window`` at some instant of ``time``.

        Returns ``(record, overlap_interval)`` pairs; with ``exact=False``
        the flavour's pruning test alone is used (overlap intervals then
        fall back to the record's temporal intersection with ``time``) —
        the ablation knob for the Sect. 3.2 leaf optimization.
        ``fault_budget`` / ``skipped`` forward to
        :meth:`~repro.index.RTree.search` for graceful degradation under
        injected faults.
        """
        native = self._native_box(time, window)
        results: List[Tuple[MotionSegment, Interval]] = []

        def exact_test(entry: LeafEntry) -> bool:
            overlap = segment_box_overlap_interval(entry.record.segment, native)
            if overlap.is_empty:
                return False
            results.append((entry.record, overlap))
            return True

        for entry in self.tree.search(
            self._node_test(time, window),
            cost,
            exact_test if exact else None,
            fault_budget=fault_budget,
            skipped=skipped,
        ):
            if not exact:
                results.append((entry.record, entry.record.time.intersect(time)))
        return results

    def __len__(self) -> int:
        return len(self.tree)
