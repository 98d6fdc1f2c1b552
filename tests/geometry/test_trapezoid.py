"""Tests for the moving-window overlap computation (Fig. 3 / Eq. 3)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DimensionalityError, GeometryError
from repro.geometry.box import Box
from repro.geometry.interval import EMPTY_INTERVAL, Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.geometry.trapezoid import (
    MovingWindow,
    moving_window_box_overlap,
    moving_window_segment_overlap,
    solve_linear_ge,
)

coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
size = st.floats(min_value=0.5, max_value=20, allow_nan=False)


def win(cx, cy, half):
    return Box.from_bounds((cx - half, cy - half), (cx + half, cy + half))


moving_windows = st.builds(
    lambda t0, dt, cx, cy, h1, dx, dy, h2: MovingWindow(
        Interval(t0, t0 + dt),
        win(cx, cy, h1),
        win(cx + dx, cy + dy, h2),
    ),
    st.floats(min_value=0, max_value=20, allow_nan=False),
    st.floats(min_value=0.1, max_value=10, allow_nan=False),
    coord, coord, size, coord, coord, size,
)
boxes3 = st.builds(
    lambda t0, dt, x0, dx, y0, dy: Box(
        [Interval(t0, t0 + dt), Interval(x0, x0 + dx), Interval(y0, y0 + dy)]
    ),
    st.floats(min_value=0, max_value=25, allow_nan=False),
    st.floats(min_value=0, max_value=10, allow_nan=False),
    coord,
    st.floats(min_value=0, max_value=20, allow_nan=False),
    coord,
    st.floats(min_value=0, max_value=20, allow_nan=False),
)
segments2 = st.builds(
    lambda t0, dt, ox, oy, vx, vy: SpaceTimeSegment(
        Interval(t0, t0 + dt), (ox, oy), (vx, vy)
    ),
    st.floats(min_value=0, max_value=25, allow_nan=False),
    st.floats(min_value=0.05, max_value=8, allow_nan=False),
    coord, coord,
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
)


class TestSolveLinear:
    def test_positive_slope(self):
        # 2t - 4 >= 0  ->  t >= 2
        assert solve_linear_ge(2.0, -4.0) == Interval(2.0, math.inf)

    def test_negative_slope(self):
        # -2t + 4 >= 0  ->  t <= 2
        assert solve_linear_ge(-2.0, 4.0) == Interval(-math.inf, 2.0)

    def test_zero_slope_true(self):
        assert solve_linear_ge(0.0, 1.0) == Interval(-math.inf, math.inf)

    def test_zero_slope_false(self):
        assert solve_linear_ge(0.0, -1.0).is_empty

    def test_zero_slope_boundary(self):
        assert not solve_linear_ge(0.0, 0.0).is_empty


class TestMovingWindow:
    def test_window_at_endpoints(self):
        mw = MovingWindow(Interval(0.0, 2.0), win(0, 0, 1), win(4, 0, 1))
        assert mw.window_at(0.0) == win(0, 0, 1)
        assert mw.window_at(2.0) == win(4, 0, 1)

    def test_window_at_midpoint(self):
        mw = MovingWindow(Interval(0.0, 2.0), win(0, 0, 1), win(4, 0, 1))
        assert mw.window_at(1.0) == win(2, 0, 1)

    def test_growing_window(self):
        mw = MovingWindow(Interval(0.0, 2.0), win(0, 0, 1), win(0, 0, 3))
        mid = mw.window_at(1.0)
        assert mid == win(0, 0, 2)

    def test_query_box_at(self):
        mw = MovingWindow(Interval(0.0, 2.0), win(0, 0, 1), win(4, 0, 1))
        qb = mw.query_box_at(1.0)
        assert qb.extent(0) == Interval.point(1.0)
        assert qb.dims == 3

    def test_zero_span_window(self):
        mw = MovingWindow(Interval(1.0, 1.0), win(0, 0, 1), win(0, 0, 1))
        assert mw.window_at(1.0) == win(0, 0, 1)

    def test_inflated(self):
        mw = MovingWindow(Interval(0.0, 1.0), win(0, 0, 1), win(4, 0, 1))
        grown = mw.inflated(0.5)
        assert grown.start_window == win(0, 0, 1.5)
        assert grown.end_window == win(4, 0, 1.5)

    def test_inflated_negative_raises(self):
        mw = MovingWindow(Interval(0.0, 1.0), win(0, 0, 1), win(4, 0, 1))
        with pytest.raises(GeometryError):
            mw.inflated(-0.1)

    def test_bounding_box_covers_both_ends(self):
        mw = MovingWindow(Interval(0.0, 1.0), win(0, 0, 1), win(4, 0, 1))
        bb = mw.bounding_box()
        assert bb.extent(1) == Interval(-1.0, 5.0)

    def test_dims_mismatch_raises(self):
        with pytest.raises(DimensionalityError):
            MovingWindow(
                Interval(0.0, 1.0),
                win(0, 0, 1),
                Box.from_bounds((0.0,), (1.0,)),
            )

    def test_empty_time_raises(self):
        with pytest.raises(GeometryError):
            MovingWindow(Interval(1.0, 0.0), win(0, 0, 1), win(0, 0, 1))


class TestBoxOverlap:
    def test_static_window_reduces_to_box_intersection(self):
        mw = MovingWindow(Interval(0.0, 10.0), win(0, 0, 2), win(0, 0, 2))
        inside = Box([Interval(2.0, 3.0), Interval(-1.0, 1.0), Interval(-1.0, 1.0)])
        assert moving_window_box_overlap(mw, inside) == Interval(2.0, 3.0)

    def test_window_sweeps_into_box(self):
        # Window [t-1, t+1] around center moving x = 2t; box at x [6, 8].
        mw = MovingWindow(Interval(0.0, 5.0), win(0, 0, 1), win(10, 0, 1))
        box = Box([Interval(0.0, 5.0), Interval(6.0, 8.0), Interval(-1.0, 1.0)])
        r = moving_window_box_overlap(mw, box)
        # Leading edge 2t+1 reaches 6 at t=2.5; trailing 2t-1 passes 8 at 4.5.
        assert r.low == pytest.approx(2.5)
        assert r.high == pytest.approx(4.5)

    def test_no_overlap_spatially(self):
        mw = MovingWindow(Interval(0.0, 1.0), win(0, 0, 1), win(1, 0, 1))
        box = Box([Interval(0.0, 1.0), Interval(50.0, 60.0), Interval(0.0, 1.0)])
        assert moving_window_box_overlap(mw, box).is_empty

    def test_no_overlap_temporally(self):
        mw = MovingWindow(Interval(0.0, 1.0), win(0, 0, 1), win(1, 0, 1))
        box = Box([Interval(5.0, 6.0), Interval(0.0, 1.0), Interval(0.0, 1.0)])
        assert moving_window_box_overlap(mw, box).is_empty

    def test_dim_mismatch_raises(self):
        mw = MovingWindow(Interval(0.0, 1.0), win(0, 0, 1), win(1, 0, 1))
        with pytest.raises(DimensionalityError):
            moving_window_box_overlap(mw, Box([Interval(0, 1), Interval(0, 1)]))

    def test_empty_box_extent(self):
        mw = MovingWindow(Interval(0.0, 1.0), win(0, 0, 1), win(1, 0, 1))
        box = Box([Interval(0.0, 1.0), EMPTY_INTERVAL, Interval(0.0, 1.0)])
        assert moving_window_box_overlap(mw, box).is_empty

    def test_subnormal_time_span_stays_inside_the_window(self):
        # A span this short overflows the border slope to inf; the
        # result used to be Interval(-inf, nan).
        mw = MovingWindow(
            Interval(0.0, 5e-324),
            Box.from_bounds([0.0], [1.0]),
            Box.from_bounds([10.0], [11.0]),
        )
        box = Box([Interval(-1.0, 1.0), Interval(0.0, 5.0)])
        overlap = moving_window_box_overlap(mw, box)
        assert not math.isnan(overlap.low) and not math.isnan(overlap.high)
        assert mw.time.intersect(box.extent(0)).contains_interval(overlap)

    @settings(max_examples=300)
    @given(moving_windows, boxes3)
    def test_matches_dense_sampling(self, mw, box):
        """Overlap interval == brute-force sampling of window positions."""
        analytic = moving_window_box_overlap(mw, box)
        span = mw.time.intersect(box.extent(0))
        spatial = Box([box.extent(1), box.extent(2)])
        steps = 64
        hits = []
        if not span.is_empty:
            for k in range(steps + 1):
                t = span.low + (span.high - span.low) * k / steps
                if mw.window_at(t).overlaps(spatial):
                    hits.append(t)
        if analytic.is_empty:
            # Grazing contact may be missed by sampling slack.
            for t in hits:
                w = mw.window_at(t)
                gap_x = max(
                    box.extent(1).low - w.extent(0).high,
                    w.extent(0).low - box.extent(1).high,
                )
                gap_y = max(
                    box.extent(2).low - w.extent(1).high,
                    w.extent(1).low - box.extent(2).high,
                )
                assert max(gap_x, gap_y) > -1e-6
        else:
            for t in hits:
                assert analytic.low - 1e-6 <= t <= analytic.high + 1e-6

    @settings(max_examples=200)
    @given(moving_windows, boxes3)
    def test_overlap_midpoint_really_overlaps(self, mw, box):
        analytic = moving_window_box_overlap(mw, box)
        if analytic.is_empty:
            return
        t = analytic.midpoint
        w = mw.window_at(t).inflate((1e-6, 1e-6))
        assert w.overlaps(Box([box.extent(1), box.extent(2)]))


class TestSegmentOverlap:
    def test_object_caught_by_moving_window(self):
        # Object fixed at x=5; window sweeps from 0 to 10 over 5 t.u.
        mw = MovingWindow(Interval(0.0, 5.0), win(0, 0, 1), win(10, 0, 1))
        s = SpaceTimeSegment(Interval(0.0, 5.0), (5.0, 0.0), (0.0, 0.0))
        r = moving_window_segment_overlap(mw, s)
        # Center 2t reaches 5-1=4 at t=2, passes 5+1=6 at t=3.
        assert r.low == pytest.approx(2.0)
        assert r.high == pytest.approx(3.0)

    def test_object_moving_with_window_always_visible(self):
        mw = MovingWindow(Interval(0.0, 5.0), win(0, 0, 1), win(10, 0, 1))
        s = SpaceTimeSegment(Interval(0.0, 5.0), (0.0, 0.0), (2.0, 0.0))
        assert moving_window_segment_overlap(mw, s) == Interval(0.0, 5.0)

    def test_object_fleeing_window_never_visible(self):
        mw = MovingWindow(Interval(0.0, 5.0), win(0, 0, 1), win(10, 0, 1))
        s = SpaceTimeSegment(Interval(0.0, 5.0), (-5.0, 0.0), (-2.0, 0.0))
        assert moving_window_segment_overlap(mw, s).is_empty

    def test_dim_mismatch_raises(self):
        mw = MovingWindow(Interval(0.0, 1.0), win(0, 0, 1), win(1, 0, 1))
        s = SpaceTimeSegment(Interval(0.0, 1.0), (0.0,), (0.0,))
        with pytest.raises(DimensionalityError):
            moving_window_segment_overlap(mw, s)

    @settings(max_examples=300)
    @given(moving_windows, segments2)
    def test_matches_dense_sampling(self, mw, s):
        analytic = moving_window_segment_overlap(mw, s)
        span = mw.time.intersect(s.time)
        steps = 64
        hits = []
        if not span.is_empty:
            for k in range(steps + 1):
                t = span.low + (span.high - span.low) * k / steps
                if mw.window_at(t).contains_point(s.position_at(t)):
                    hits.append(t)
        if analytic.is_empty:
            for t in hits:
                w = mw.window_at(t)
                pos = s.position_at(t)
                slack = 1e-6 * (1 + abs(pos[0]) + abs(pos[1]))
                assert w.inflate((slack, slack)).contains_point(pos)
        else:
            for t in hits:
                assert analytic.low - 1e-6 <= t <= analytic.high + 1e-6

    @settings(max_examples=200)
    @given(moving_windows, segments2)
    def test_overlap_midpoint_really_inside(self, mw, s):
        analytic = moving_window_segment_overlap(mw, s)
        if analytic.is_empty:
            return
        t = analytic.midpoint
        pos = s.position_at(t)
        slack = 1e-6 * (1 + abs(pos[0]) + abs(pos[1]))
        assert mw.window_at(t).inflate((slack, slack)).contains_point(pos)
