"""Cached float64 columns of one node page, for the batch geometry kernels.

An R-tree :class:`~repro.index.node.Node` is an object graph — a list of
entry objects, each holding a :class:`~repro.geometry.box.Box` of
:class:`~repro.geometry.interval.Interval` objects.  The batch kernels
in :mod:`repro.geometry.kernels` want the same page as a handful of
flat arrays.  :class:`PageArrays` holds exactly the columns the engines
read — the entry bounding boxes, the entry timestamps (the dual tree's
discard rule reads them) and on a leaf the motion segments — each built
on first use, so a page only ever pays for the view its queries ask for.

``page_arrays(node)`` caches the view on the node (invalidated by every
mutating method alongside the MBR cache), so repeated queries against a
hot page pay the object-graph walk once.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import IndexStructureError
from repro.geometry import kernels
from repro.index.node import Node

__all__ = ["PageArrays", "page_arrays"]


class PageArrays:
    """The kernel batches of one node page, built lazily.

    Box bounds are per-entry rows over all indexed axes (native space:
    ``1 + d``; dual time: ``2 + d``); leaf pages additionally offer the
    exact motion segments (validity interval, origin, velocity).
    """

    __slots__ = ("is_leaf", "_entries", "_box_batch", "_seg_batch", "_stamps")

    def __init__(self, node: Node):
        self.is_leaf = node.is_leaf
        # The entry list, not the node: node -> view -> node would be a
        # cycle only the garbage collector frees when a page is evicted.
        self._entries = node.entries
        self._box_batch: Optional[kernels.BoxBatch] = None
        self._seg_batch: Optional[kernels.SegmentBatch] = None
        self._stamps = None

    def box_batch(self) -> kernels.BoxBatch:
        """Entry bounding boxes as a :class:`kernels.BoxBatch`."""
        if self._box_batch is None:
            boxes = [e.box for e in self._entries]
            self._box_batch = kernels.BoxBatch(
                [b.lows for b in boxes], [b.highs for b in boxes]
            )
        return self._box_batch

    def stamps(self):
        """Entry timestamps as the int64 column of :func:`kernels.live_rows`."""
        if self._stamps is None:
            self._stamps = kernels.stamp_column(
                [e.timestamp for e in self._entries]
            )
        return self._stamps

    def segment_batch(self) -> kernels.SegmentBatch:
        """Leaf motion segments as a :class:`kernels.SegmentBatch`."""
        if self._seg_batch is None:
            if not self.is_leaf:
                raise IndexStructureError(
                    "internal pages carry no motion segments"
                )
            segments = [e.record.segment for e in self._entries]
            self._seg_batch = kernels.SegmentBatch(
                [s.time.low for s in segments],
                [s.time.high for s in segments],
                [s.origin for s in segments],
                [s.velocity for s in segments],
            )
        return self._seg_batch


def page_arrays(node: Node) -> PageArrays:
    """The node's kernel view, cached until the node mutates."""
    arrays: Optional[PageArrays] = node._arrays
    if arrays is None:
        arrays = PageArrays(node)
        node._arrays = arrays
    return arrays
