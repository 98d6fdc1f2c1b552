"""Query trajectories: sequences of key snapshots (Sect. 4.1, Fig. 1).

A predictive dynamic query is specified by key snapshot queries
``K^1, .., K^n`` — spatial windows pinned at increasing times — between
which the window interpolates linearly, sweeping one
:class:`~repro.geometry.MovingWindow` trapezoid per consecutive pair.
:class:`QueryTrajectory` owns that sequence and implements the paper's
two geometric services:

* ``T_{Q,R} = ∪_j T^j`` — the :class:`~repro.geometry.TimeSet` during
  which a bounding box overlaps the dynamic query (Eq. 3), and
* its leaf-level analogue for exact motion segments.

Only trajectory segments whose time range can overlap the operand are
examined ("identifying the subsequence of key snapshots that temporally
overlap with the bounding box").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import TrajectoryError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.geometry.timeset import TimeSet
from repro.geometry import kernels
from repro.geometry.trapezoid import (
    MovingWindow,
    moving_window_box_overlap,
    moving_window_segment_overlap,
)
from repro.core.snapshot import SnapshotQuery

__all__ = ["KeySnapshot", "QueryTrajectory"]


@dataclass(frozen=True)
class KeySnapshot:
    """One key snapshot ``K^j``: a spatial window at an instant (Eq. 2)."""

    time: float
    window: Box

    def __post_init__(self) -> None:
        if self.window.is_empty:
            raise TrajectoryError("key snapshot window is empty")


class QueryTrajectory:
    """The observer's predicted path as key snapshots.

    Parameters
    ----------
    key_snapshots:
        At least two snapshots with strictly increasing times and equal
        window dimensionality.
    """

    __slots__ = ("_keys", "_times", "_segments", "_params")

    def __init__(self, key_snapshots: Sequence[KeySnapshot]):
        keys = tuple(key_snapshots)
        if len(keys) < 2:
            raise TrajectoryError("a trajectory needs at least two key snapshots")
        times = [k.time for k in keys]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise TrajectoryError("key snapshot times must strictly increase")
        dims = keys[0].window.dims
        if any(k.window.dims != dims for k in keys):
            raise TrajectoryError("key snapshot windows must share dimensionality")
        self._keys = keys
        self._times = times
        self._segments = tuple(
            MovingWindow(Interval(a.time, b.time), a.window, b.window)
            for a, b in zip(keys, keys[1:])
        )
        # Per-segment kernels.WindowParams, built on the first page.
        self._params: Optional[Tuple["kernels.WindowParams", ...]] = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def linear(
        cls,
        start_time: float,
        end_time: float,
        start_center: Sequence[float],
        velocity: Sequence[float],
        half_extents: Sequence[float],
        key_count: int = 2,
    ) -> "QueryTrajectory":
        """A constant-velocity observer with a fixed-size window.

        Parameters
        ----------
        start_time, end_time:
            Temporal span of the dynamic query.
        start_center:
            Window centre at ``start_time``.
        velocity:
            Observer velocity.
        half_extents:
            Half-size of the window per dimension (e.g. ``(4, 4)`` for
            the paper's 8x8 small range).
        key_count:
            Number of key snapshots to emit (>= 2); more keys make no
            difference for linear motion but exercise multi-segment code
            paths.
        """
        if end_time <= start_time:
            raise TrajectoryError("end_time must exceed start_time")
        if key_count < 2:
            raise TrajectoryError("need at least two key snapshots")
        keys = []
        for i in range(key_count):
            t = start_time + (end_time - start_time) * i / (key_count - 1)
            center = [
                c + v * (t - start_time) for c, v in zip(start_center, velocity)
            ]
            keys.append(
                KeySnapshot(
                    t,
                    Box.from_bounds(
                        [c - h for c, h in zip(center, half_extents)],
                        [c + h for c, h in zip(center, half_extents)],
                    ),
                )
            )
        return cls(keys)

    @classmethod
    def through_waypoints(
        cls,
        times: Sequence[float],
        centers: Sequence[Sequence[float]],
        half_extents: Sequence[float],
    ) -> "QueryTrajectory":
        """A tour-mode trajectory visiting window centres at given times."""
        if len(times) != len(centers):
            raise TrajectoryError("times and centers lengths differ")
        keys = [
            KeySnapshot(
                t,
                Box.from_bounds(
                    [c - h for c, h in zip(center, half_extents)],
                    [c + h for c, h in zip(center, half_extents)],
                ),
            )
            for t, center in zip(times, centers)
        ]
        return cls(keys)

    # -- accessors -----------------------------------------------------------

    @property
    def key_snapshots(self) -> Tuple[KeySnapshot, ...]:
        """The key snapshot sequence ``K^1, .., K^n``."""
        return self._keys

    @property
    def segments(self) -> Tuple[MovingWindow, ...]:
        """The trapezoid trajectory segments ``S^1, .., S^{n-1}``."""
        return self._segments

    @property
    def dims(self) -> int:
        """Spatial dimensionality."""
        return self._keys[0].window.dims

    @property
    def time_span(self) -> Interval:
        """``[K^1.t, K^n.t]``."""
        return Interval(self._times[0], self._times[-1])

    def window_at(self, t: float) -> Box:
        """The interpolated window at time ``t`` (clamped to the span)."""
        t = self.time_span.clamp(t)
        idx = min(
            bisect.bisect_right(self._times, t) - 1, len(self._segments) - 1
        )
        idx = max(idx, 0)
        return self._segments[idx].window_at(t)

    def inflated(self, delta: float) -> "QueryTrajectory":
        """The SPDQ trajectory: every window grown by ``delta``."""
        return QueryTrajectory(
            [
                KeySnapshot(k.time, k.window.inflate([delta] * self.dims))
                for k in self._keys
            ]
        )

    # -- the paper's overlap-time computations ---------------------------------

    def _segment_range(self, time: Interval) -> range:
        """Indices of trajectory segments whose span overlaps ``time``."""
        if time.is_empty:
            return range(0)
        lo = bisect.bisect_right(self._times, time.low) - 1
        lo = max(lo, 0)
        hi = bisect.bisect_left(self._times, time.high)
        hi = min(hi, len(self._segments))
        return range(lo, hi)

    def box_overlap(self, box: Box) -> TimeSet:
        """``T_{Q,R}``: when does a native-space box overlap the query?

        ``box`` has axes ``<t, x_1, .., x_d>``.
        """
        intervals = [
            moving_window_box_overlap(self._segments[j], box)
            for j in self._segment_range(box.extent(0))
        ]
        return TimeSet(intervals)

    def segment_overlap(self, segment: SpaceTimeSegment) -> TimeSet:
        """When is a moving object inside the query window?"""
        intervals = [
            moving_window_segment_overlap(self._segments[j], segment)
            for j in self._segment_range(segment.time)
        ]
        return TimeSet(intervals)

    # -- page-at-a-time batch evaluation (repro.geometry.kernels) ----------

    def live_components(
        self, batch: "kernels.SegmentBatch | kernels.BoxBatch", frontier: float
    ) -> List[Tuple[int, Interval]]:
        """``(k, component)`` for every visibility component of the
        page's entry ``k`` that ends at or after ``frontier``, in entry
        order then start order: :meth:`segment_overlap` (a leaf page's
        segment batch) or :meth:`box_overlap` (a box batch) of every
        entry in one pass, bit-identical, minus what a queue whose
        frontier is ``frontier`` would drop unseen."""
        if self._params is None:
            self._params = tuple(
                kernels.window_params(s) for s in self._segments
            )
        return kernels.trajectory_live_components(
            batch, self._times, self._params, frontier
        )

    # -- deriving the frame-level snapshot series ---------------------------------

    def frame_times(self, period: float) -> List[float]:
        """Frame boundaries every ``period`` over the span (inclusive ends)."""
        if period <= 0:
            raise TrajectoryError("frame period must be positive")
        span = self.time_span
        times = []
        t = span.low
        while t < span.high:
            times.append(t)
            t += period
        times.append(span.high)
        return times

    def frame_query(self, start: float, end: float) -> SnapshotQuery:
        """The snapshot query of the frame ``[start, end]``.

        It covers the frame temporally and a rectangular cover of the
        window's sweep during it spatially — the endpoint windows
        (clamped to the span) plus any key-snapshot window falling
        strictly inside the frame (the sweep is linear between key
        snapshots, so covering those extremes covers the whole swept
        trapezoid).
        """
        window = self.window_at(start).cover(self.window_at(end))
        for j in self._segment_range(Interval(start, end)):
            key = self._keys[j + 1]
            if start < key.time < end:
                window = window.cover(key.window)
        return SnapshotQuery(Interval(start, end), window)

    def frame_queries(self, period: float) -> Iterator[SnapshotQuery]:
        """The snapshot query series the application would pose: one
        :meth:`frame_query` per frame period.  This is the series
        Definition 4 composes into the dynamic query, and the series the
        naive approach evaluates one by one.
        """
        times = self.frame_times(period)
        for a, b in zip(times, times[1:]):
            yield self.frame_query(a, b)

    def __len__(self) -> int:
        return len(self._keys)
