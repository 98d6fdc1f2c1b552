"""The record type indexed by the spatio-temporal index.

A :class:`MotionSegment` couples a :class:`~repro.geometry.SpaceTimeSegment`
with the identity of the object that produced it and a per-object sequence
number.  The index contains multiple, temporally non-overlapping segments
per object — one per motion update (Sect. 3.2: "the index will contain
multiple (non-overlapping) BBs per object, one per each of its motion
updates").  A :class:`SegmentTable` is many of them as columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment

__all__ = ["MotionSegment", "SegmentTable"]


@dataclass(frozen=True)
class MotionSegment:
    """A stored motion update of one object.

    Parameters
    ----------
    object_id:
        Identifier of the mobile object.
    seq:
        0-based index of this update within the object's update stream;
        ``(object_id, seq)`` uniquely identifies the segment.
    segment:
        The constant-velocity space-time geometry.
    """

    object_id: int
    seq: int
    segment: SpaceTimeSegment

    @property
    def key(self) -> Tuple[int, int]:
        """Unique identity ``(object_id, seq)``."""
        return (self.object_id, self.seq)

    @property
    def time(self) -> Interval:
        """Validity interval of the update."""
        return self.segment.time

    @property
    def dims(self) -> int:
        """Spatial dimensionality."""
        return self.segment.dims

    def bounding_box(self) -> Box:
        """Native-space bounding box ``<t, x_1, .., x_d>``."""
        return self.segment.bounding_box()

    @classmethod
    def from_row(cls, object_id: int, seq: int, values) -> "MotionSegment":
        """The record of one segment row ``(t0, t1, *origin, *velocity)``."""
        d = (len(values) - 2) // 2
        time, origin, velocity = Interval(values[0], values[1]), values[2 : 2 + d], values[2 + d :]
        return cls(object_id, seq, SpaceTimeSegment(time, tuple(origin), tuple(velocity)))

    def position_at(self, t: float) -> Tuple[float, ...]:
        """Object position at time ``t`` according to this update."""
        return self.segment.position_at(t)

    def __repr__(self) -> str:
        t = self.segment.time
        return (
            f"MotionSegment(obj={self.object_id}, seq={self.seq}, "
            f"t=[{t.low:.3g},{t.high:.3g}])"
        )


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """Motion segments as columns: ``ids``, the int64 ``(n, 2)`` column of
    ``(object_id, seq)``; ``segments``, their ``SegmentBatch``; ``records``,
    each row's :class:`MotionSegment`, or ``None`` in a table that arrived
    as columns."""

    ids: Any
    segments: kernels.SegmentBatch
    records: Optional[List[MotionSegment]] = None

    @classmethod
    def of(cls, records: Iterable[MotionSegment]) -> "SegmentTable":
        """The table of ``records``, which become its record column (a
        list as it is)."""
        if not isinstance(records, list):
            records = list(records)
        return cls(
            kernels.key_column(records),
            kernels.SegmentBatch.of([r.segment for r in records]),
            records,
        )

    def __len__(self) -> int:
        return self.segments.n

    def with_records(self) -> "SegmentTable":
        """This table with its record column built from its rows."""
        keys, values = self.ids.tolist(), self.segments.records().tolist()
        records = [MotionSegment.from_row(o, s, v) for (o, s), v in zip(keys, values)]
        return SegmentTable(self.ids, self.segments, records)

    def bounding_box(self) -> Box:
        """The cover of the rows' native-space bounding boxes, as folding
        ``Box.cover`` over them gives it; the table must have rows.

        A row is never an empty box, so the fold's rule for one (skip
        it) never applies: ``SpaceTimeSegment`` refuses an empty validity
        interval (``t_lo > t_hi``), and each spatial extent is the two
        endpoints ordered (``Interval.ordered``), which no float pair —
        NaN included — makes ``low > high``.  Per axis the first least
        low and first greatest high are taken (``argmin``/``argmax``, as
        :meth:`kernels.BoxBatch.cover` keeps the first of equal bounds).
        """
        lows, highs = self.segments.box_bounds()
        return Box.from_bounds(
            [c[c.argmin()].item() for c in lows], [c[c.argmax()].item() for c in highs]
        )
