"""Location uncertainty (Sect. 3.1, last paragraphs).

When object positions are imprecise, the paper indexes a *larger* bounding
rectangle so that the true motion is always contained: "allowing for
imprecision entails retrieving objects that in reality do not fall within
the query region.  However, no objects will be missed."

:class:`UncertainMotionSegment` wraps a motion segment with a radius bound
``epsilon`` (e.g. the threshold of the dead-reckoning update policy) and
exposes the inflated bounding box for indexing plus a *conservative*
overlap test: uncertain segments are admitted whenever any position within
``epsilon`` of the reported trajectory could satisfy the query.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MotionError
from repro.geometry.box import Box
from repro.geometry.interval import EMPTY_INTERVAL, Interval
from repro.geometry.segment import segment_box_overlap_interval
from repro.motion.segment import MotionSegment

__all__ = ["inflate_box", "UncertainMotionSegment"]


def inflate_box(box: Box, epsilon: float, spatial_dims_from: int = 1) -> Box:
    """Grow a native-space box by ``epsilon`` along every spatial dimension.

    Parameters
    ----------
    box:
        The box to inflate.
    epsilon:
        Non-negative uncertainty radius.
    spatial_dims_from:
        Index of the first spatial dimension (1 skips the temporal axis of
        a native-space box; 2 would skip both axes of a dual-time box).
    """
    if epsilon < 0:
        raise MotionError("uncertainty radius must be non-negative")
    amounts = [
        0.0 if i < spatial_dims_from else epsilon for i in range(box.dims)
    ]
    return box.inflate(amounts)


@dataclass(frozen=True)
class UncertainMotionSegment:
    """A motion segment whose true position is within ``epsilon`` of the
    reported trajectory at every instant of its validity interval."""

    record: MotionSegment
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise MotionError("uncertainty radius must be non-negative")

    @property
    def object_id(self) -> int:
        """Identifier of the mobile object."""
        return self.record.object_id

    @property
    def time(self) -> Interval:
        """Validity interval."""
        return self.record.time

    def indexed_bounding_box(self) -> Box:
        """The inflated native-space box stored in the index."""
        return inflate_box(self.record.bounding_box(), self.epsilon)

    def possibly_overlap_interval(self, query: Box) -> Interval:
        """Times at which the object *may* be inside ``query``.

        Conservative: tests the reported segment against the query window
        inflated by ``epsilon``.  A superset of the true overlap interval,
        so no query result can be missed (the paper's containment
        argument).
        """
        if self.epsilon == 0.0:
            return segment_box_overlap_interval(self.record.segment, query)
        grown = inflate_box(query, self.epsilon)
        return segment_box_overlap_interval(self.record.segment, grown)

    def definitely_overlap_interval(self, query: Box) -> Interval:
        """Times at which the object is *certainly* inside ``query``.

        Tests the reported segment against the query window *shrunk* by
        ``epsilon``; empty if the window is smaller than the uncertainty.
        """
        amounts = [0.0] + [-self.epsilon] * (query.dims - 1)
        shrunk = query.inflate(amounts) if self.epsilon else query
        if shrunk.is_empty:
            return EMPTY_INTERVAL
        return segment_box_overlap_interval(self.record.segment, shrunk)
