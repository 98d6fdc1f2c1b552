"""The float64 columns of one node page: a node's one representation.

Sect. 5 sizes a node as one page of fixed-width records, and a node here
*is* those records as columns (:class:`PageRows`): the entry bounding
boxes, the int64 entry stamps (the dual tree's discard rule reads them)
and ids, and on a leaf the motion segments plus the record column.  The
batch kernels of :mod:`repro.geometry.kernels` read the columns as they
are; ``node.entries`` is this same object, a sequence whose items are
entry objects built per row on demand; and the node's mutators write
rows.  Every node has this form, whoever made it — the index in memory
(``Node()``, bulk load, a split's ``replace_entries``) or a page codec
decoding a page.

The **record column** holds each leaf row's
:class:`~repro.motion.segment.MotionSegment`.  In memory it holds the
very objects the tree was loaded or inserted with, so an engine that
reads ``record(row)`` builds nothing; on a decoded page it starts empty
and a record is built from the row's columns on first demand and kept.

A row holds the exact float64 values and stamp it was given.  A decoded
row is the page's float32 image (a leaf box is the decoded segment's
box, padded as the codec documents; every stamp is the page's one
stamp) until it is written again.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import DimensionalityError, IndexStructureError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.index.entry import Entry, InternalEntry, LeafEntry
from repro.motion.segment import MotionSegment, SegmentTable

__all__ = ["PageArrays", "PageRows"]


class PageRows:
    """The columns of one node page: its storage and its ``entries``.

    As ``node.entries`` it is a sequence whose items are entry objects
    built per row on demand and kept until the row is written again.
    ``append`` / ``set_box`` / ``del rows[k]`` are the row writes behind
    the :class:`~repro.index.node.Node` mutators; ``writes`` counts them,
    so a reader holding results computed from these rows can tell
    whether they still describe them.
    """

    __slots__ = (
        "is_leaf", "_box_batch", "_seg_batch", "_stamps", "_ids", "_records",
        "_built", "writes",
    )

    def __init__(
        self,
        boxes: kernels.BoxBatch,
        stamps,
        ids,
        segments: Optional[kernels.SegmentBatch] = None,
        records: Optional[List[Optional[MotionSegment]]] = None,
    ):
        self.is_leaf = segments is not None
        self._box_batch = boxes
        self._seg_batch = segments
        self._stamps = stamps
        self._ids = ids
        self._records = None
        if self.is_leaf:
            self._records = [None] * len(stamps) if records is None else records
        self._built: Dict[int, Entry] = {}
        self.writes = 0

    @classmethod
    def of(cls, is_leaf: bool, entries: Sequence[Entry]) -> "PageRows":
        """The rows of ``entries`` (of the page's kind), in order."""
        entries = list(entries)
        boxes = [e.box for e in entries]
        if any(b.dims != boxes[0].dims for b in boxes):
            raise DimensionalityError("entries mix box dimensionalities")
        batch = kernels.BoxBatch([b.lows for b in boxes], [b.highs for b in boxes])
        stamps = kernels.stamp_column([e.timestamp for e in entries])
        if not is_leaf:
            return cls(batch, stamps, kernels.id_column([(e.child_id,) for e in entries], 1))
        table = SegmentTable.of(e.record for e in entries)  # type: ignore[union-attr]
        return cls(batch, stamps, table.ids, table.segments, table.records)

    # -- the kernel columns ----------------------------------------------------

    def box_batch(self) -> kernels.BoxBatch:
        """Entry bounding boxes as a :class:`kernels.BoxBatch`."""
        return self._box_batch

    def stamps(self):
        """Entry stamps as the int64 column of :func:`kernels.level_live_rows`."""
        return self._stamps

    def segment_batch(self) -> kernels.SegmentBatch:
        """Leaf motion segments as a :class:`kernels.SegmentBatch`."""
        if not self.is_leaf:
            raise IndexStructureError("internal pages carry no motion segments")
        return self._seg_batch

    def ids(self):
        """Row ids as an int64 column: ``(child page,)`` per internal row,
        ``(object, sequence number)`` per leaf row."""
        return self._ids

    def child_id(self, row: int) -> int:
        """Page id internal row ``row`` points at."""
        return self._ids.item(row, 0)

    def record(self, row: int) -> MotionSegment:
        """The motion segment of leaf row ``row`` (its record column)."""
        record = self._records[row]
        return self._make_records([row])[0] if record is None else record

    def _make_records(self, rows: List[int]) -> List[MotionSegment]:
        """Build, keep and return the records of ``rows`` from their columns."""
        made = []
        for row, motion, (oid, seq) in zip(
            rows, self._seg_batch.values(rows), self._ids[rows].tolist()
        ):
            record = self._records[row] = MotionSegment.from_row(oid, seq, motion)
            made.append(record)
        return made

    def keys(self) -> List:
        """Per row, what the node's mutators look entries up by: the
        child page id, or on a leaf the segment key."""
        ids = self._ids.tolist()
        return [tuple(i) for i in ids] if self.is_leaf else [i[0] for i in ids]

    def mbr(self) -> Box:
        """Minimum bounding box of the rows (``BoxBatch.cover``'s rule)."""
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

    def take(self, rows: Sequence[int]) -> "PageRows":
        """A new page of ``rows`` of this one, in that order."""
        leaf = self.is_leaf
        return PageRows(
            self._box_batch.take(rows),
            self._stamps[rows],
            self._ids[rows],
            kernels.SegmentBatch.gather([(self._seg_batch, rows)]) if leaf else None,
            [self._records[k] for k in rows] if leaf else None,
        )

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
        row = self._row(row)
        entry = self._built.get(row)
        if entry is None:
            self._build([row])
            entry = self._built[row]
        return entry

    def _row(self, row: int) -> int:
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("page row out of range")
        return row

    def _build(self, rows: List[int]) -> None:
        """Make and keep the entry objects of ``rows`` from their columns."""
        lows, highs = self._box_batch.bounds(rows)
        stamps = self._stamps[rows].tolist()
        if self.is_leaf:
            missing = [row for row in rows if self._records[row] is None]
            if missing:
                self._make_records(missing)
            for row, low, high, stamp in zip(rows, lows, highs, stamps):
                self._built[row] = LeafEntry(
                    Box.from_bounds(low, high), self._records[row], timestamp=stamp
                )
            return
        for row, low, high, stamp, (child,) in zip(
            rows, lows, highs, stamps, self._ids[rows].tolist()
        ):
            self._built[row] = InternalEntry(
                Box.from_bounds(low, high), child, timestamp=stamp
            )

    # -- row writes ------------------------------------------------------------

    def append(self, entry: Entry) -> None:
        """Add ``entry`` as the last row: its exact box, ids and stamp (a
        page with no rows yet takes the entry's widths)."""
        width = self._box_batch.width
        if width and entry.box.dims != width:
            raise DimensionalityError(
                f"entry box has {entry.box.dims} axes, page rows {width}"
            )
        if self.is_leaf:
            record = entry.record  # type: ignore[union-attr]
            segment = record.segment
            self._seg_batch.append(
                segment.time.low, segment.time.high, segment.origin, segment.velocity
            )
            self._records.append(record)
            key: tuple = record.key
        else:
            key = (entry.child_id,)  # type: ignore[union-attr]
        self._box_batch.append(entry.box.lows, entry.box.highs)
        self._ids = kernels.append_row(self._ids, key)
        self._stamps = kernels.append_row(self._stamps, entry.timestamp)
        self._built[len(self) - 1] = entry
        self.writes += 1

    def set_box(self, row: int, box: Box, stamp: int) -> None:
        """Overwrite row ``row``'s box and stamp (its id stays)."""
        if box.dims != self._box_batch.width:
            raise DimensionalityError(
                f"box has {box.dims} axes, page rows {self._box_batch.width}"
            )
        self._box_batch.set_row(row, box.lows, box.highs)
        self._stamps[row] = stamp
        self._built.pop(row, None)
        self.writes += 1

    def __delitem__(self, row: int) -> None:
        row = self._row(row)
        self._box_batch.delete(row)
        if self.is_leaf:
            self._seg_batch.delete(row)
            del self._records[row]
        self._ids = kernels.delete_row(self._ids, row)
        self._stamps = kernels.delete_row(self._stamps, row)
        self._built = {
            (k if k < row else k - 1): e
            for k, e in self._built.items()
            if k != row
        }
        self.writes += 1


def PageArrays(node) -> PageRows:  # noqa: N802 - the name bench/layers.py times
    """The node's kernel view, which is its own columns.

    Kept because ``bench/layers.py`` times it by this name (as
    ``kernels.available()`` is kept for its gate).
    """
    return node.entries
