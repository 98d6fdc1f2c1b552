"""Time-parameterized bounding boxes — the TPR-tree's core geometry.

Future-work item (iii) of the paper: "adapting dynamic queries to a
specialized index for mobile objects such as TPR-tree [19]" (Šaltenis,
Jensen, Leutenegger & Lopez, SIGMOD 2000).  The TPR-tree bounds *moving*
points with rectangles whose edges themselves move: at reference time
``ref`` the box is ``[low_i, high_i]`` per dimension, and at ``t >= ref``
it is conservatively

    ``[low_i + vlow_i (t - ref),  high_i + vhigh_i (t - ref)]``

with ``vlow`` the minimum and ``vhigh`` the maximum member velocity.

Because every edge is linear in time, all of the paper's overlap-time
machinery transfers: the time interval during which a moving query
window intersects a time-parameterized box is still the intersection of
half-line solutions of linear inequalities — which is what lets the PDQ
algorithm run unchanged over a TPR-tree (see :mod:`repro.index.tpr`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import DimensionalityError, GeometryError
from repro.geometry.box import Box
from repro.geometry.interval import EMPTY_INTERVAL, Interval
from repro.geometry.trapezoid import MovingWindow, solve_linear_ge

__all__ = ["TPBox"]


@dataclass(frozen=True)
class TPBox:
    """A conservatively growing, time-parameterized box.

    Parameters
    ----------
    ref:
        Reference time at which ``lows``/``highs`` hold.
    lows, highs:
        Box corners at ``ref``.
    vlows, vhighs:
        Edge velocities (``vlows[i] <= vhighs[i]`` so the box never
        shrinks — the TPR-tree's conservative bound).
    """

    ref: float
    lows: Tuple[float, ...]
    highs: Tuple[float, ...]
    vlows: Tuple[float, ...]
    vhighs: Tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.lows)
        if not (len(self.highs) == len(self.vlows) == len(self.vhighs) == n):
            raise DimensionalityError("TPBox component lengths differ")
        if n < 1:
            raise GeometryError("TPBox needs at least one dimension")
        for lo, hi in zip(self.lows, self.highs):
            if lo > hi:
                raise GeometryError("TPBox is empty at its reference time")
        for vl, vh in zip(self.vlows, self.vhighs):
            if vl > vh:
                raise GeometryError("TPBox edge velocities must not cross")

    # -- constructors -----------------------------------------------------

    @classmethod
    def for_point(
        cls, ref: float, position: Sequence[float], velocity: Sequence[float]
    ) -> "TPBox":
        """The degenerate box of a single moving point."""
        pos = tuple(position)
        vel = tuple(velocity)
        return cls(ref, pos, pos, vel, vel)

    # -- evaluation ----------------------------------------------------------

    @property
    def dims(self) -> int:
        """Spatial dimensionality."""
        return len(self.lows)

    def box_at(self, t: float) -> Box:
        """The materialised box at time ``t`` (``t >= ref`` expected)."""
        dt = t - self.ref
        return Box.from_bounds(
            [lo + vl * dt for lo, vl in zip(self.lows, self.vlows)],
            [hi + vh * dt for hi, vh in zip(self.highs, self.vhighs)],
        )

    def rebased(self, ref: float) -> "TPBox":
        """The same moving box expressed at a later reference time."""
        if ref == self.ref:
            return self
        snapshot = self.box_at(ref)
        return TPBox(ref, snapshot.lows, snapshot.highs, self.vlows, self.vhighs)

    # -- covering -----------------------------------------------------------------

    def cover(self, other: "TPBox") -> "TPBox":
        """Smallest time-parameterized box containing both for ``t >= ref``.

        Both operands are rebased to the later reference time; corners
        and edge velocities are combined with min/max.
        """
        if other.dims != self.dims:
            raise DimensionalityError("TPBox dimensionalities differ")
        ref = max(self.ref, other.ref)
        a, b = self.rebased(ref), other.rebased(ref)
        return TPBox(
            ref,
            tuple(min(x, y) for x, y in zip(a.lows, b.lows)),
            tuple(max(x, y) for x, y in zip(a.highs, b.highs)),
            tuple(min(x, y) for x, y in zip(a.vlows, b.vlows)),
            tuple(max(x, y) for x, y in zip(a.vhighs, b.vhighs)),
        )

    def integrated_volume(self, horizon: float) -> float:
        """``∫ volume(box_at(ref + u)) du`` for ``u`` in ``[0, horizon]``.

        The TPR-tree's insertion metric (area integral over the index's
        lookahead horizon), computed by Simpson's rule — exact for the
        product of linear extents in up to 2 dimensions and a close
        approximation above.
        """
        if horizon < 0:
            raise GeometryError("horizon must be non-negative")
        if horizon == 0:
            return self.box_at(self.ref).volume()

        def vol(u: float) -> float:
            return self.box_at(self.ref + u).volume()

        return (horizon / 6.0) * (
            vol(0.0) + 4.0 * vol(horizon / 2.0) + vol(horizon)
        )

    # -- overlap computations ----------------------------------------------------

    def overlap_interval_with_box(
        self, window: Box, time: Interval
    ) -> Interval:
        """When does this moving box intersect a *static* window?

        Restricted to ``time ∩ [ref, inf)`` — TPR boxes only bound the
        present and future.
        """
        if window.dims != self.dims:
            raise DimensionalityError("window dimensionality differs")
        result = time.intersect(Interval(self.ref, math.inf))
        if result.is_empty:
            return EMPTY_INTERVAL
        for i in range(self.dims):
            w = window.extent(i)
            # high edge:  highs + vhigh (t - ref) >= w.low
            result = result.intersect(
                solve_linear_ge(
                    self.vhighs[i],
                    self.highs[i] - self.vhighs[i] * self.ref - w.low,
                )
            )
            if result.is_empty:
                return EMPTY_INTERVAL
            # low edge:   lows + vlow (t - ref) <= w.high
            result = result.intersect(
                solve_linear_ge(
                    -self.vlows[i],
                    w.high - self.lows[i] + self.vlows[i] * self.ref,
                )
            )
            if result.is_empty:
                return EMPTY_INTERVAL
        return result

    def overlap_interval_with_moving_window(
        self, window: MovingWindow
    ) -> Interval:
        """When does this moving box intersect a *moving* query window?

        Both sets of edges are linear in ``t``, so each of the paper's
        Fig. 3 border conditions is again a linear inequality — PDQ's
        geometry carries over to the TPR-tree unchanged.
        """
        if window.dims != self.dims:
            raise DimensionalityError("window dimensionality differs")
        result = window.time.intersect(Interval(self.ref, math.inf))
        if result.is_empty:
            return EMPTY_INTERVAL
        wt0 = window.time.low
        for i in range(self.dims):
            mu, u0 = window._border(i, upper=True)
            ml, l0 = window._border(i, upper=False)
            # window upper border >= box low edge
            result = result.intersect(
                solve_linear_ge(
                    mu - self.vlows[i],
                    (u0 - mu * wt0) - (self.lows[i] - self.vlows[i] * self.ref),
                )
            )
            if result.is_empty:
                return EMPTY_INTERVAL
            # box high edge >= window lower border
            result = result.intersect(
                solve_linear_ge(
                    self.vhighs[i] - ml,
                    (self.highs[i] - self.vhighs[i] * self.ref)
                    - (l0 - ml * wt0),
                )
            )
            if result.is_empty:
                return EMPTY_INTERVAL
        return result
