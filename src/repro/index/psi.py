"""Parametric Space Indexing (PSI) — the paper's rejected alternative.

Sect. 2 (citing [14, 15]): indexing can happen either in the *native*
space where motion occurs (NSI) or in a *parametric* space defined by
the motion parameters (PSI); "a comparative study between the two
indicates that NSI outperforms PSI, because of the loss of locality
associated with PSI.  In the present, we use NSI exclusively."

We implement PSI anyway so the claim is testable.  Each motion segment
``x(t) = a + v·t`` (with ``a`` the position extrapolated to the global
time origin) becomes a *point* over the axes

    ``<t_s, t_e, a_1, .., a_d, v_1, .., v_d>``

A native-space range query (window ``W`` during ``[q_l, q_h]``) has no
rectangular image in parameter space — the matching region is bounded by
the lines ``a = W_edge − v·t`` — so the search prunes nodes with a
conservative linear relaxation: a subtree with parameter extents
``a ∈ [A_l, A_h]``, ``v ∈ [V_l, V_h]`` overlapping the query's time
range ``[t_a, t_b]`` may contain matches only if

    ``A_l ≤ W_h − min(v·t)``  and  ``A_h ≥ W_l − max(v·t)``

with the extrema of ``v·t`` taken over the corner products.  Leaves run
the exact segment test.  The relaxation is safe (never prunes a match)
but loose — which, together with parameter-space locality loss, is
precisely why PSI reads more pages than NSI on identical workloads.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.facade import SegmentIndex
from repro.motion.segment import MotionSegment
from repro.storage.constants import PAGE_SIZE
from repro.storage.disk import DiskManager

__all__ = ["ParametricSpaceIndex"]


def _corner_products(v: Interval, t: Interval) -> Tuple[float, float]:
    """Min and max of ``v*t`` over the rectangle ``v x t``."""
    products = (
        v.low * t.low,
        v.low * t.high,
        v.high * t.low,
        v.high * t.high,
    )
    return min(products), max(products)


class ParametricSpaceIndex(SegmentIndex):
    """An R-tree over motion parameters (the PSI of [14, 15]).

    Parameters are those of :class:`~repro.index.facade.SegmentIndex`
    without ``uncertainty`` and ``restore_meta``.  The tree has
    ``2 + 2d`` axes; internal entries therefore carry more floats, so
    the internal fanout is smaller than NSI's (78 vs 145 at d = 2 on
    4 KB pages) — one ingredient of PSI's disadvantage, on top of the
    locality loss.
    """

    _time_axes = 2
    _axes_per_dim = 2

    def __init__(
        self,
        dims: int = 2,
        disk: Optional[DiskManager] = None,
        page_size: int = PAGE_SIZE,
        split: str = "quadratic",
    ):
        super().__init__(dims, disk, page_size, split=split)

    def _leaf_box(self, record: MotionSegment) -> Box:
        seg = record.segment
        t0 = seg.time.low
        # Parameters at the global time origin: a = x0 - v * t0.
        extents: List[Interval] = [
            Interval.point(seg.time.low),
            Interval.point(seg.time.high),
        ]
        extents.extend(
            Interval.point(x - v * t0) for x, v in zip(seg.origin, seg.velocity)
        )
        extents.extend(Interval.point(v) for v in seg.velocity)
        return Box(extents)

    def _node_may_match(
        self, box: Box, time: Interval, window: Box
    ) -> bool:
        """Conservative pruning test in parameter space."""
        # Temporal feasibility (dual-time style).
        if box.extent(0).low > time.high or box.extent(1).high < time.low:
            return False
        t_range = Interval(
            max(time.low, box.extent(0).low), time.high
        )
        if t_range.is_empty:
            return False
        for i in range(self.dims):
            a = box.extent(2 + i)
            v = box.extent(2 + self.dims + i)
            w = window.extent(i)
            vt_min, vt_max = _corner_products(v, t_range)
            # a + v*t can reach [a.low + vt_min, a.high + vt_max]; it must
            # intersect [w.low, w.high].
            if a.low + vt_min > w.high or a.high + vt_max < w.low:
                return False
        return True

    def _node_test(self, time: Interval, window: Box) -> Callable[[Box], bool]:
        return lambda box: self._node_may_match(box, time, window)
