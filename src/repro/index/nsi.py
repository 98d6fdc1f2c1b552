"""Native Space Indexing (NSI) of motion segments (Sect. 3.2).

Each motion segment is indexed under its bounding box over the axes
``<t, x_1, .., x_d>`` — indexing happens in the original space where
motion occurs, which [14, 15] showed outperforms parametric-space
indexing.  Leaves store exact segments, and searches run the exact
segment-vs-query test so that segments whose *bounding box* overlaps the
query but whose *trajectory* does not are filtered out (the [13]
optimization).

This is the index flavour used by snapshot queries and by PDQ.  It is
:class:`~repro.index.facade.SegmentIndex` with its defaults: one time
axis, the segment's bounding box as leaf box, and the native query box
as pruning test.
"""

from __future__ import annotations

from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.facade import SegmentIndex

__all__ = ["NativeSpaceIndex"]


class NativeSpaceIndex(SegmentIndex):
    """An R-tree over ``<t, x_1, .., x_d>`` storing motion segments.

    Parameters are those of :class:`~repro.index.facade.SegmentIndex`;
    the tree has ``d + 1`` axes.
    """

    def query_box(self, time: Interval, window: Box) -> Box:
        """The native-space box ``<time, window>`` of a snapshot query."""
        return self._native_box(time, window)
