"""The moving query window and its overlap-time computation (Fig. 3, Eq. 3).

Between two consecutive key snapshots ``K^j`` (at time ``a``) and
``K^{j+1}`` (at time ``b``), the dynamic query sweeps a *trapezoid* per
spatial dimension: the lower and upper borders of the window interpolate
linearly from their extents at ``a`` to their extents at ``b``.  This is
exactly Fig. 1(a)/Fig. 3 of the paper.  :class:`MovingWindow` models one
such trajectory segment ``S^j``.

The paper computes, per dimension ``i``, the time intervals ``T_i^{j,u}``
(upper border above the box's lower edge) and ``T_i^{j,l}`` (lower border
below the box's upper edge) by a four-case analysis on border slopes.  We
implement the same computation uniformly as linear-inequality solving:
each border condition is of the form ``m·t + c ≥ 0`` whose solution set is
a half-line, and Eq. 3 intersects them all with the segment's time range
and the box's temporal extent.  Property tests cross-validate this against
brute-force time sampling.

Because every constraint's solution is an interval in ``t``, the overlap
of one trajectory segment with a box (or with a linear motion segment) is
a single, possibly empty, interval; unions across trajectory segments are
assembled by the PDQ engine into a :class:`~repro.geometry.TimeSet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import DimensionalityError, GeometryError
from repro.geometry.box import Box
from repro.geometry.interval import EMPTY_INTERVAL, Interval
from repro.geometry.segment import SpaceTimeSegment

__all__ = [
    "solve_linear_ge",
    "MovingWindow",
    "moving_window_box_overlap",
    "moving_window_segment_overlap",
]

_FULL = Interval(-math.inf, math.inf)


def solve_linear_ge(slope: float, intercept: float) -> Interval:
    """Solve ``slope * t + intercept >= 0`` for ``t`` over the reals.

    Returns
    -------
    Interval
        ``[-intercept/slope, +inf]`` for positive slope,
        ``[-inf, -intercept/slope]`` for negative slope, and either the
        full line or the empty interval for zero slope.
    """
    if slope > 0.0:
        return Interval(-intercept / slope, math.inf)
    if slope < 0.0:
        return Interval(-math.inf, -intercept / slope)
    return _FULL if intercept >= 0.0 else EMPTY_INTERVAL


@dataclass(frozen=True)
class MovingWindow:
    """A query window interpolating linearly between two key snapshots.

    Parameters
    ----------
    time:
        ``[K^j.t, K^{j+1}.t]`` — the temporal span of the trajectory
        segment.  Must be non-empty; a zero-length span models a static
        window at an instant.
    start_window, end_window:
        Spatial windows (d-dimensional boxes) at ``time.low`` and
        ``time.high``.  The windows may differ in position *and* size
        (the paper: "the query also becomes narrower, or broader").
    """

    time: Interval
    start_window: Box
    end_window: Box

    def __post_init__(self) -> None:
        if self.time.is_empty:
            raise GeometryError("moving window has empty time span")
        if self.start_window.dims != self.end_window.dims:
            raise DimensionalityError(
                f"window dims differ: {self.start_window.dims} vs "
                f"{self.end_window.dims}"
            )
        if self.start_window.is_empty or self.end_window.is_empty:
            raise GeometryError("moving window endpoints must be non-empty boxes")

    # -- basic geometry -----------------------------------------------------

    @property
    def dims(self) -> int:
        """Spatial dimensionality of the window."""
        return self.start_window.dims

    def _border(self, dim: int, upper: bool) -> "tuple[float, float]":
        """Slope and value-at-time.low of a border as a linear function.

        Returns ``(slope, value0)`` such that the border position at time
        ``t`` is ``value0 + slope * (t - time.low)``.  A zero-length time
        span yields slope 0 (the window is only probed at that instant),
        and so does a span so short that the slope overflows.
        """
        s = self.start_window.extent(dim)
        e = self.end_window.extent(dim)
        v0 = s.high if upper else s.low
        v1 = e.high if upper else e.low
        span = self.time.length
        slope = 0.0 if span == 0.0 else (v1 - v0) / span
        if slope != 0.0 and (
            v0 + slope * span == v0 or not math.isfinite(slope)
        ):
            # Sub-ulp drift over the whole span: the border is constant
            # in float arithmetic; keep the algebra consistent with it.
            # A subnormal span overflows the division instead: an
            # infinite slope would turn ``value0 - slope * time.low``
            # into NaN, and the span is an instant in all but name.
            slope = 0.0
        return slope, v0

    def window_at(self, t: float) -> Box:
        """The interpolated spatial window at time ``t`` (t is not clamped)."""
        span = self.time.length
        frac = 0.0 if span == 0.0 else (t - self.time.low) / span
        extents = []
        for i in range(self.dims):
            s = self.start_window.extent(i)
            e = self.end_window.extent(i)
            extents.append(
                Interval(
                    s.low + frac * (e.low - s.low),
                    s.high + frac * (e.high - s.high),
                )
            )
        return Box(extents)

    def query_box_at(self, t: float) -> Box:
        """The native-space snapshot box ``<[t,t], window_at(t)>``."""
        return Box([Interval.point(t)] + list(self.window_at(t)))

    def inflated(self, delta: float) -> "MovingWindow":
        """SPDQ helper: the window grown by ``delta`` on every side.

        Models the observer's position uncertainty bound δ (Sect. 4,
        Semi-Predictive Dynamic Queries).
        """
        if delta < 0:
            raise GeometryError("SPDQ inflation must be non-negative")
        amounts = [delta] * self.dims
        return MovingWindow(
            self.time,
            self.start_window.inflate(amounts),
            self.end_window.inflate(amounts),
        )

    def bounding_box(self) -> Box:
        """Native-space box covering the whole swept trapezoid."""
        return Box(
            [self.time]
            + [
                self.start_window.extent(i).cover(self.end_window.extent(i))
                for i in range(self.dims)
            ]
        )


def moving_window_box_overlap(window: MovingWindow, box: Box) -> Interval:
    """Eq. 3: the time interval during which ``box`` overlaps the window.

    ``box`` is a native-space box ``<t, x_1, .., x_d>``.  For each spatial
    dimension the two border conditions —

    * upper border ≥ box lower edge  (``T_i^{j,u}``)
    * lower border ≤ box upper edge  (``T_i^{j,l}``)

    — are linear inequalities in ``t``; their solutions are intersected
    with ``[K^j.t, K^{j+1}.t]`` and the box's temporal extent ``R.t̄``.

    Returns
    -------
    Interval
        Possibly empty; a sub-interval of ``window.time``.
    """
    if box.dims != window.dims + 1:
        raise DimensionalityError(
            f"box has {box.dims} dims, expected {window.dims + 1}"
        )
    result = window.time.intersect(box.extent(0))
    if result.is_empty:
        return EMPTY_INTERVAL
    t0 = window.time.low
    for i in range(window.dims):
        r = box.extent(i + 1)
        if r.is_empty:
            return EMPTY_INTERVAL
        # Upper border u(t) = u0 + mu (t - t0) must satisfy u(t) >= r.low.
        mu, u0 = window._border(i, upper=True)
        sol = solve_linear_ge(mu, (u0 - mu * t0) - r.low)
        result = result.intersect(sol)
        if result.is_empty:
            return EMPTY_INTERVAL
        # Lower border l(t) = l0 + ml (t - t0) must satisfy l(t) <= r.high.
        ml, l0 = window._border(i, upper=False)
        sol = solve_linear_ge(-ml, r.high - (l0 - ml * t0))
        result = result.intersect(sol)
        if result.is_empty:
            return EMPTY_INTERVAL
    return result


def moving_window_segment_overlap(
    window: MovingWindow, segment: SpaceTimeSegment
) -> Interval:
    """Time interval during which a *moving point* is inside the window.

    The leaf-level analogue of :func:`moving_window_box_overlap`
    (Sect. 4.1: "for the leaf node where motions are stored ... we can
    compute ``T_i^{j,u}`` and ``T_i^{j,l}`` by checking the four cases").
    The object position ``p_i(t)`` and both borders are linear in ``t``,
    so each containment condition is again a linear inequality.

    Returns
    -------
    Interval
        Sub-interval of ``window.time ∩ segment.time``; possibly empty.
    """
    if segment.dims != window.dims:
        raise DimensionalityError(
            f"segment has {segment.dims} dims, window {window.dims}"
        )
    result = window.time.intersect(segment.time)
    if result.is_empty:
        return EMPTY_INTERVAL
    wt0 = window.time.low
    st0 = segment.time.low
    for i in range(window.dims):
        v = segment.velocity[i]
        x0 = segment.origin[i]
        # p(t) = x0 + v (t - st0) = (x0 - v*st0) + v t
        pc = x0 - v * st0
        mu, u0 = window._border(i, upper=True)
        uc = u0 - mu * wt0
        # u(t) - p(t) >= 0
        result = result.intersect(solve_linear_ge(mu - v, uc - pc))
        if result.is_empty:
            return EMPTY_INTERVAL
        ml, l0 = window._border(i, upper=False)
        lc = l0 - ml * wt0
        # p(t) - l(t) >= 0
        result = result.intersect(solve_linear_ge(v - ml, pc - lc))
        if result.is_empty:
            return EMPTY_INTERVAL
    return result
