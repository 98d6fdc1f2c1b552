"""Tests for query trajectories and their overlap-time services."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.trajectory import KeySnapshot, QueryTrajectory
from repro.errors import TrajectoryError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment

from _helpers import window


def simple_traj(speed=2.0, half=2.0, t0=0.0, t1=10.0, start=(0.0, 0.0)):
    return QueryTrajectory.linear(t0, t1, start, (speed, 0.0), (half, half))


class TestConstruction:
    def test_needs_two_keys(self):
        with pytest.raises(TrajectoryError):
            QueryTrajectory([KeySnapshot(0.0, window(0, 0, 1, 1))])

    def test_times_strictly_increasing(self):
        with pytest.raises(TrajectoryError):
            QueryTrajectory(
                [
                    KeySnapshot(0.0, window(0, 0, 1, 1)),
                    KeySnapshot(0.0, window(0, 0, 1, 1)),
                ]
            )

    def test_dims_must_match(self):
        with pytest.raises(TrajectoryError):
            QueryTrajectory(
                [
                    KeySnapshot(0.0, window(0, 0, 1, 1)),
                    KeySnapshot(1.0, Box.from_bounds((0.0,), (1.0,))),
                ]
            )

    def test_empty_key_window_rejected(self):
        with pytest.raises(TrajectoryError):
            KeySnapshot(0.0, window(1, 1, 0, 0))

    def test_linear_builder(self):
        traj = simple_traj()
        assert len(traj) == 2
        assert traj.time_span == Interval(0.0, 10.0)
        assert len(traj.segments) == 1

    def test_linear_builder_key_count(self):
        traj = QueryTrajectory.linear(
            0.0, 10.0, (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), key_count=6
        )
        assert len(traj) == 6
        assert len(traj.segments) == 5

    def test_linear_invalid_args(self):
        with pytest.raises(TrajectoryError):
            QueryTrajectory.linear(5.0, 5.0, (0, 0), (1, 0), (1, 1))
        with pytest.raises(TrajectoryError):
            QueryTrajectory.linear(0.0, 5.0, (0, 0), (1, 0), (1, 1), key_count=1)

    def test_through_waypoints(self):
        traj = QueryTrajectory.through_waypoints(
            [0.0, 1.0, 2.0], [(0, 0), (5, 0), (5, 5)], (1.0, 1.0)
        )
        assert len(traj) == 3
        assert traj.window_at(1.0).center == (5.0, 0.0)

    def test_through_waypoints_mismatch(self):
        with pytest.raises(TrajectoryError):
            QueryTrajectory.through_waypoints([0.0, 1.0], [(0, 0)], (1, 1))


class TestWindowAt:
    def test_interpolates(self):
        traj = simple_traj(speed=2.0)
        assert traj.window_at(5.0).center == (10.0, 0.0)

    def test_clamps_outside_span(self):
        traj = simple_traj(speed=2.0)
        assert traj.window_at(-5.0) == traj.window_at(0.0)
        assert traj.window_at(50.0) == traj.window_at(10.0)

    def test_multi_segment(self):
        traj = QueryTrajectory.through_waypoints(
            [0.0, 1.0, 2.0], [(0, 0), (10, 0), (10, 10)], (1.0, 1.0)
        )
        assert traj.window_at(0.5).center == (5.0, 0.0)
        assert traj.window_at(1.5).center == (10.0, 5.0)

    def test_inflated(self):
        traj = simple_traj(half=2.0).inflated(1.0)
        w = traj.window_at(0.0)
        assert w == window(-3, -3, 3, 3)


class TestOverlap:
    def test_box_overlap_single_component(self):
        traj = simple_traj(speed=2.0, half=2.0)  # leading edge 2t+2
        box = Box([Interval(0.0, 10.0), Interval(10.0, 12.0), Interval(-1.0, 1.0)])
        ts = traj.box_overlap(box)
        assert len(ts) == 1
        assert ts.start == pytest.approx(4.0)  # 2t+2 = 10
        assert ts.end == pytest.approx(7.0)  # 2t-2 = 12

    def test_box_overlap_outside_time(self):
        traj = simple_traj()
        box = Box([Interval(20.0, 30.0), Interval(0.0, 1.0), Interval(0.0, 1.0)])
        assert traj.box_overlap(box).is_empty

    def test_segment_overlap_multiple_components(self):
        """An observer that sweeps right then back catches a static
        object twice: the overlap TimeSet has two components."""
        traj = QueryTrajectory.through_waypoints(
            [0.0, 5.0, 10.0], [(0, 0), (20, 0), (0, 0)], (2.0, 2.0)
        )
        obj = SpaceTimeSegment(Interval(0.0, 10.0), (10.0, 0.0), (0.0, 0.0))
        ts = traj.segment_overlap(obj)
        assert len(ts) == 2

    def test_segment_overlap_only_relevant_trajectory_segments(self):
        traj = QueryTrajectory.through_waypoints(
            [0.0, 5.0, 10.0], [(0, 0), (20, 0), (40, 0)], (2.0, 2.0)
        )
        obj = SpaceTimeSegment(Interval(6.0, 7.0), (24.0, 0.0), (0.0, 0.0))
        ts = traj.segment_overlap(obj)
        assert not ts.is_empty
        assert ts.span.low >= 6.0 and ts.span.high <= 7.0

    def test_an_instant_on_a_key_time_meets_the_window(self):
        """A zero-width segment sitting exactly on a key time is inside
        the window there: it meets the segment starting at that key (the
        last one at the final key), never none; past the span, never."""
        traj = QueryTrajectory.linear(
            0.0, 4.0, (0.0, 0.0), (1.0, 0.0), (4.0, 4.0), key_count=5
        )
        for t in (0.0, 1.0, 2.0, 4.0, 2.5):
            obj = SpaceTimeSegment(Interval(t, t), (t, 0.0), (0.0, 0.0))
            assert traj.segment_overlap(obj).components == (Interval(t, t),)
            box = Box([Interval(t, t), Interval(t, t), Interval(0.0, 0.0)])
            assert traj.box_overlap(box).components == (Interval(t, t),)
        after = SpaceTimeSegment(Interval(4.5, 4.5), (4.0, 0.0), (0.0, 0.0))
        assert traj.segment_overlap(after).is_empty

    def test_an_extent_touching_the_span_at_an_endpoint_meets_it(self):
        """An extent ending exactly on the first key time, or starting
        exactly on the last, meets the window at that one instant; one
        that stops short of the span meets nothing."""
        traj = QueryTrajectory.linear(
            0.0, 4.0, (0.0, 0.0), (1.0, 0.0), (4.0, 4.0), key_count=5
        )
        for lo, hi, x, t in ((-1.0, 0.0, 0.0, 0.0), (4.0, 5.0, 4.0, 4.0)):
            obj = SpaceTimeSegment(Interval(lo, hi), (x, 0.0), (0.0, 0.0))
            assert traj.segment_overlap(obj).components == (Interval(t, t),)
            box = Box([Interval(lo, hi), Interval(x, x), Interval(0.0, 0.0)])
            assert traj.box_overlap(box).components == (Interval(t, t),)
        for lo, hi in ((-1.0, -0.5), (4.5, 5.0)):
            obj = SpaceTimeSegment(Interval(lo, hi), (0.0, 0.0), (0.0, 0.0))
            assert traj.segment_overlap(obj).is_empty

    @settings(max_examples=100)
    @given(
        st.floats(min_value=0.1, max_value=5, allow_nan=False),
        st.floats(min_value=-20, max_value=40, allow_nan=False),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    def test_overlap_agrees_with_sampling(self, half, x0, vx):
        traj = simple_traj(speed=2.0, half=half)
        seg = SpaceTimeSegment(Interval(0.0, 10.0), (x0, 0.0), (vx, 0.0))
        ts = traj.segment_overlap(seg)
        for k in range(101):
            t = 10.0 * k / 100
            inside = traj.window_at(t).contains_point(seg.position_at(t))
            if ts.contains(t):
                # Claimed visible: must be inside (allow boundary slack).
                w = traj.window_at(t).inflate((1e-6, 1e-6))
                assert w.contains_point(seg.position_at(t))
            elif inside:
                # Sampled inside but not claimed: must be boundary-close.
                pos = seg.position_at(t)
                w = traj.window_at(t)
                margin = min(
                    pos[0] - w.extent(0).low,
                    w.extent(0).high - pos[0],
                    pos[1] - w.extent(1).low,
                    w.extent(1).high - pos[1],
                )
                assert margin < 1e-6


class TestFrames:
    def test_frame_times_cover_span(self):
        traj = simple_traj(t0=0.0, t1=1.0)
        times = traj.frame_times(0.3)
        assert times[0] == 0.0
        assert times[-1] == 1.0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_frame_times_invalid_period(self):
        with pytest.raises(TrajectoryError):
            simple_traj().frame_times(0.0)

    def test_frame_queries_are_ordered(self):
        traj = simple_traj(t0=0.0, t1=2.0)
        queries = list(traj.frame_queries(0.5))
        for a, b in zip(queries, queries[1:]):
            assert a.precedes(b)

    def test_frame_query_window_covers_motion(self):
        traj = simple_traj(speed=4.0, t0=0.0, t1=1.0)
        q = next(iter(traj.frame_queries(0.5)))
        assert q.window.contains_box(traj.window_at(0.0))
        assert q.window.contains_box(traj.window_at(0.5))

    @pytest.mark.parametrize("bend", [0.75, 0.5])
    def test_frame_queries_loop_over_frame_query(self, bend):
        # A zig-zag whose turning point falls strictly inside a frame
        # (0.75, period 0.5) or exactly on a frame boundary (0.5): the
        # series is one frame_query per period, and only a key time
        # strictly inside a frame adds its window to the frame's cover.
        traj = QueryTrajectory.through_waypoints(
            [0.0, bend, 2.0], [(0.0, 0.0), (8.0, 3.0), (0.0, 6.0)], (1.0, 1.0)
        )
        times = traj.frame_times(0.5)
        frames = list(traj.frame_queries(0.5))
        assert frames == [
            traj.frame_query(a, b) for a, b in zip(times, times[1:])
        ]
        key = traj.key_snapshots[1]
        bent = []
        for q in frames:
            ends = traj.window_at(q.time.low).cover(traj.window_at(q.time.high))
            inside = q.time.low < key.time < q.time.high
            assert q.window == (ends.cover(key.window) if inside else ends)
            bent.append(inside and q.window != ends)
        assert any(bent) == (bend not in times)

    def test_frame_count(self):
        traj = simple_traj(t0=0.0, t1=5.0)
        assert len(list(traj.frame_queries(0.1))) == len(traj.frame_times(0.1)) - 1
