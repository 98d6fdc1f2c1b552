"""The float64 columns of one node page, for the batch geometry kernels.

The kernels in :mod:`repro.geometry.kernels` want a page as a handful of
flat arrays: the entry bounding boxes, the entry timestamps (the dual
tree's discard rule reads them) and on a leaf the motion segments.  A node has them in one of two ways.

* An **object-mode** node (``codec=None``: every in-memory index) is an
  object graph — a list of entry objects, each holding a
  :class:`~repro.geometry.box.Box` of
  :class:`~repro.geometry.interval.Interval` objects — and that list is
  its state.  :class:`PageArrays` is a *cache* beside it: each column is
  built from the entries on first use, and ``page_arrays(node)`` keeps
  the view on the node until the node mutates (every mutating method
  drops it alongside the MBR cache).
* A **page-backed** node (one a codec decoded) has no entry list.  The
  codec unpacks the page's bytes straight into the columns, and
  :class:`PageRows` — the same view, handed to the same kernels — *is*
  the node's storage: ``node.entries`` is this object, ``len()`` is the
  row count, ``entries[k]`` builds the entry object of row ``k`` on
  demand, and the node's mutators write rows.

Rows of a page-backed node hold what the entry list of the same node
would: a row nobody touched since the decode is the page's float32
image (a leaf box is the decoded segment's box, padded as the codec
documents; every stamp is the page's one stamp), a row written by
``append`` / ``set_box`` holds the exact float64 values and the stamp it
was given — until the next write of the page rounds them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.errors import DimensionalityError, IndexStructureError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.index.entry import Entry, InternalEntry, LeafEntry
from repro.index.node import Node
from repro.motion.segment import MotionSegment

__all__ = ["PageArrays", "PageRows", "page_arrays"]


class PageArrays:
    """The kernel batches of one object-mode node page, built lazily.

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

    def child_id(self, row: int) -> int:
        """Page id internal entry ``row`` points at."""
        return self._entries[row].child_id

    def record(self, row: int) -> MotionSegment:
        """The motion segment of leaf entry ``row``."""
        return self._entries[row].record


class PageRows(PageArrays):
    """The columns of a page-backed node: its storage and its ``entries``.

    Built by the page codecs from a page's unpacked records.  As a
    :class:`PageArrays` it hands the kernels those very columns (nothing
    is rebuilt); as ``node.entries`` it is a sequence whose items are
    entry objects built per row on demand and kept until the row is
    written again.  ``append`` / ``set_box`` / ``del rows[k]`` are the
    row forms of the :class:`~repro.index.node.Node` mutators.
    """

    __slots__ = ("_ids", "_built")

    def __init__(
        self,
        boxes: kernels.BoxBatch,
        stamps,
        ids,
        segments: Optional[kernels.SegmentBatch] = None,
    ):
        self.is_leaf = segments is not None
        self._entries = None  # there is no list; the accessors below read rows
        self._box_batch = boxes
        self._seg_batch = segments
        self._stamps = stamps
        self._ids = ids
        self._built: Dict[int, Entry] = {}

    # -- the entries sequence ------------------------------------------------

    def __len__(self) -> int:
        return len(self._stamps)

    def __iter__(self) -> Iterator[Entry]:
        built = self._built
        missing = [row for row in range(len(self)) if row not in built]
        if missing:
            self._build(missing)
        return (built[row] for row in range(len(self)))

    def __getitem__(self, row: Union[int, slice]):
        if isinstance(row, slice):
            return list(self)[row]
        if row < 0:
            row += len(self)
        entry = self._built.get(row)
        if entry is None:
            if not 0 <= row < len(self):
                raise IndexError("page row out of range")
            self._build([row])
            entry = self._built[row]
        return entry

    def _build(self, rows: List[int]) -> None:
        """Make and keep the entry objects of ``rows`` from their columns."""
        lows, highs = self._box_batch.bounds(rows)
        stamps = self._stamps[rows].tolist()
        ids = self._ids[rows].tolist()
        motions: List = [None] * len(rows)
        if self.is_leaf:
            dims = self._seg_batch.dims
            motions = self._seg_batch.values(rows)
        for row, low, high, stamp, key, motion in zip(
            rows, lows, highs, stamps, ids, motions
        ):
            box = Box.from_bounds(low, high)
            if self.is_leaf:
                segment = SpaceTimeSegment(
                    Interval(motion[0], motion[1]),
                    tuple(motion[2 : 2 + dims]),
                    tuple(motion[2 + dims :]),
                )
                entry: Entry = LeafEntry(
                    box, MotionSegment(key[0], key[1], segment), timestamp=stamp
                )
            else:
                entry = InternalEntry(box, key[0], timestamp=stamp)
            self._built[row] = entry

    def ids(self):
        """Row ids as an int64 column: ``(child page,)`` per internal row,
        ``(object, sequence number)`` per leaf row."""
        return self._ids

    def child_id(self, row: int) -> int:
        return int(self._ids[row][0])

    def record(self, row: int) -> MotionSegment:
        entry = self._built.get(row)
        return (self[row] if entry is None else entry).record

    def keys(self) -> List[tuple]:
        """Per row, what the node's mutators look entries up by: the
        child page id, or on a leaf the segment key."""
        ids = self._ids.tolist()
        return [tuple(i) for i in ids] if self.is_leaf else [i[0] for i in ids]

    def mbr(self) -> Box:
        """Minimum bounding box of the rows (``Node.mbr``'s rule)."""
        return Box.from_bounds(*self._box_batch.cover())

    def fingerprint(self) -> int:
        """A hash of the page's state, for the page-write sanitizer."""
        segments = self._seg_batch
        return kernels.columns_digest(
            self._box_batch.records(),
            self._stamps,
            self._ids,
            None if segments is None else segments.records(),
        )

    # -- row mutation ----------------------------------------------------------

    def append(self, entry: Entry) -> None:
        """Add ``entry`` as the last row: its exact box, ids and stamp."""
        box = entry.box
        boxes = self._box_batch
        if box.dims != boxes.width:
            raise DimensionalityError(
                f"entry box has {box.dims} axes, page rows {boxes.width}"
            )
        if self.is_leaf:
            record = entry.record
            segment = record.segment
            if segment.dims != self._seg_batch.dims:
                raise DimensionalityError(
                    f"segment has {segment.dims} dims, "
                    f"page rows {self._seg_batch.dims}"
                )
            self._seg_batch.append(
                segment.time.low, segment.time.high,
                segment.origin, segment.velocity,
            )
            key: tuple = record.key
        else:
            key = (entry.child_id,)
        boxes.append(box.lows, box.highs)
        self._ids = kernels.append_row(self._ids, key)
        self._stamps = kernels.append_row(self._stamps, entry.timestamp)
        self._built[len(self) - 1] = entry

    def set_box(self, row: int, box: Box, stamp: int) -> None:
        """Overwrite row ``row``'s box and stamp (its id stays)."""
        if box.dims != self._box_batch.width:
            raise DimensionalityError(
                f"box has {box.dims} axes, page rows {self._box_batch.width}"
            )
        self._box_batch.set_row(row, box.lows, box.highs)
        self._stamps[row] = stamp
        self._built.pop(row, None)

    def __delitem__(self, row: int) -> None:
        self._box_batch.delete(row)
        if self.is_leaf:
            self._seg_batch.delete(row)
        self._ids = kernels.delete_row(self._ids, row)
        self._stamps = kernels.delete_row(self._stamps, row)
        self._built = {
            (k if k < row else k - 1): e
            for k, e in self._built.items()
            if k != row
        }


def page_arrays(node: Node) -> PageArrays:
    """The node's kernel view: its storage if it is page-backed, else the
    cache built from its entry list (kept until the node mutates)."""
    arrays: Optional[PageArrays] = node._arrays
    if arrays is None:
        arrays = PageArrays(node)
        node._arrays = arrays
    return arrays
