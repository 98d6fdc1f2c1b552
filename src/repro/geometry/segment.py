"""Linear space-time segments and the exact leaf-level intersection test.

A motion update (Sect. 3.1, Eq. 1) yields a *motion segment*: the object
moves linearly from ``origin`` at time ``time.low`` with constant velocity
until ``time.high``.  Geometrically this is a line segment in
(d+1)-dimensional space-time.

The optimization of [13, 14, 15] adopted by the paper (Sect. 3.2) stores
segment *end points* at R-tree leaves and tests the actual segment against
the query box instead of the segment's bounding box, avoiding false
admissions.  :func:`segment_box_overlap_interval` is that test — it returns
not just a boolean but the exact time interval during which the moving
point lies inside the (static) query box, which is what PDQ needs to tag
answers with visibility intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import DimensionalityError, GeometryError
from repro.geometry.box import Box
from repro.geometry.interval import EMPTY_INTERVAL, Interval

__all__ = ["SpaceTimeSegment", "segment_box_overlap_interval"]


@dataclass(frozen=True)
class SpaceTimeSegment:
    """A constant-velocity trajectory piece.

    Parameters
    ----------
    time:
        Validity interval ``[t_l, t_h]`` of the motion update.
    origin:
        Location at ``time.low``.
    velocity:
        Constant velocity vector (same dimensionality as ``origin``).
    """

    time: Interval
    origin: Tuple[float, ...]
    velocity: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.origin) != len(self.velocity):
            raise DimensionalityError(
                f"origin has {len(self.origin)} dims, velocity {len(self.velocity)}"
            )
        if self.time.is_empty:
            raise GeometryError("segment validity interval is empty")

    # -- geometry -----------------------------------------------------------

    @property
    def dims(self) -> int:
        """Spatial dimensionality ``d``."""
        return len(self.origin)

    def position_at(self, t: float) -> Tuple[float, ...]:
        """Eq. 1: ``x(t) = origin + velocity * (t - t_l)``.

        ``t`` is clamped to the validity interval is *not* done here; the
        caller decides whether extrapolation is meaningful.
        """
        dt = t - self.time.low
        return tuple(o + v * dt for o, v in zip(self.origin, self.velocity))

    @property
    def endpoint(self) -> Tuple[float, ...]:
        """Location at ``time.high``."""
        return self.position_at(self.time.high)

    def spatial_extent(self, dim: int) -> Interval:
        """Extent of the segment along spatial dimension ``dim``."""
        a = self.origin[dim]
        b = self.endpoint[dim]
        return Interval.ordered(a, b)

    def bounding_box(self) -> Box:
        """Native-space bounding box ``<t, x_1, .., x_d>`` (Sect. 3.2)."""
        return Box([self.time] + [self.spatial_extent(i) for i in range(self.dims)])

    def spatial_bounding_box(self) -> Box:
        """Bounding box over the spatial dimensions only."""
        return Box(self.spatial_extent(i) for i in range(self.dims))

    def clipped(self, window: Interval) -> "SpaceTimeSegment":
        """The sub-segment valid during ``time ∩ window``.

        Raises
        ------
        GeometryError
            If the clip window does not overlap the validity interval.
        """
        t = self.time.intersect(window)
        if t.is_empty:
            raise GeometryError("clip window does not overlap segment validity")
        return SpaceTimeSegment(t, self.position_at(t.low), self.velocity)


def segment_box_overlap_interval(segment: SpaceTimeSegment, query: Box) -> Interval:
    """Exact time interval during which a segment lies inside a query box.

    ``query`` is a native-space box ``<t, x_1, .., x_d>``: temporal extent
    first, then one spatial extent per dimension.  The result is the set of
    times ``t`` in ``segment.time ∩ query.t`` at which the moving point is
    inside the spatial window — the exact leaf-level test of Sect. 3.2.
    Because motion is linear and the window static, the set is a single
    (possibly empty) interval.

    Parameters
    ----------
    segment:
        The motion segment.
    query:
        A ``(1 + d)``-dimensional box, time extent at index 0.

    Returns
    -------
    Interval
        Possibly empty.
    """
    if query.dims != segment.dims + 1:
        raise DimensionalityError(
            f"query has {query.dims} dims, expected {segment.dims + 1}"
        )
    result = segment.time.intersect(query.extent(0))
    if result.is_empty:
        return EMPTY_INTERVAL
    t0 = segment.time.low
    for i in range(segment.dims):
        window = query.extent(i + 1)
        x0 = segment.origin[i]
        v = segment.velocity[i]
        # A velocity whose displacement over the whole validity interval
        # underflows float addition is indistinguishable from rest; the
        # algebraic branch would divide by it and disagree with every
        # position actually computed.
        if v == 0.0 or x0 + v * segment.time.length == x0:
            if not window.contains(x0):
                return EMPTY_INTERVAL
            continue
        # window.low <= x0 + v (t - t0) <= window.high
        ta = t0 + (window.low - x0) / v
        tb = t0 + (window.high - x0) / v
        result = result.intersect(Interval.ordered(ta, tb))
        if result.is_empty:
            return EMPTY_INTERVAL
    return result
