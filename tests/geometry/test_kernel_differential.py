"""Differential suite: batch kernels vs the scalar geometry reference.

The kernels in :mod:`repro.geometry.kernels` claim bit-identical answers
— not approximately equal, *equal* — to the scalar functions they batch.
Every property here builds one random page of inputs, runs both paths,
and compares the resulting :class:`Interval` objects (whose ``__eq__``
is exact float equality, with all empty intervals equal).

Degenerate shapes are drawn deliberately: zero velocities, zero-width
intervals and boxes, endpoints touching exactly, empty pages and
single-entry pages.  Coordinates are drawn from a small grid of exactly
representable values plus a continuous float strategy, so touching
boundaries actually touch.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trajectory import KeySnapshot, QueryTrajectory
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import (
    SpaceTimeSegment,
    segment_box_overlap_interval,
)
from repro.geometry.trapezoid import (
    MovingWindow,
    moving_window_box_overlap,
    moving_window_segment_overlap,
)

# Exactly-representable grid values make "touching" cases genuinely
# touch; the continuous component exercises arbitrary doubles.
_GRID = st.sampled_from(
    [-8.0, -2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 4.0, 8.0]
)
_COORD = _GRID | st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
_VELOCITY = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0]) | st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw, allow_empty=False):
    a = draw(_COORD)
    b = draw(_COORD)
    if not allow_empty and b < a:
        a, b = b, a
    # zero-width intervals arise whenever a == b (the grid makes that
    # likely); explicitly draw some too
    if draw(st.booleans()) and not allow_empty:
        b = a
    return Interval(a, b)


@st.composite
def boxes(draw, dims):
    return Box(tuple(draw(intervals()) for _ in range(dims)))


@st.composite
def moving_windows(draw, dims):
    time = draw(intervals())
    return MovingWindow(time, draw(boxes(dims)), draw(boxes(dims)))


@st.composite
def segments(draw, dims):
    time = draw(intervals())
    origin = tuple(draw(_COORD) for _ in range(dims))
    velocity = tuple(draw(_VELOCITY) for _ in range(dims))
    return SpaceTimeSegment(time, origin, velocity)


# Gaps between key-snapshot times: grid values so entry time bounds can
# land exactly on a key time, never so small that a border slope
# overflows.
_GAP = st.sampled_from([0.5, 1.0, 1.5, 3.0]) | st.floats(
    min_value=1e-3, max_value=10.0, allow_nan=False
)


@st.composite
def bending_trajectories(draw, dims):
    """Three to five key snapshots with unrelated windows: every
    trajectory segment has its own slopes, so the path bends."""
    t = draw(_GRID)
    keys = [KeySnapshot(t, draw(boxes(dims)))]
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        t += draw(_GAP)
        keys.append(KeySnapshot(t, draw(boxes(dims))))
    return QueryTrajectory(keys)


# Page sizes 0 and 1 are the degenerate shapes the kernels special-case.
_PAGE = st.integers(min_value=0, max_value=12)
_DIMS = st.integers(min_value=1, max_value=3)


def _segment_batch(segs):
    return kernels.SegmentBatch(
        [s.time.low for s in segs],
        [s.time.high for s in segs],
        [s.origin for s in segs],
        [s.velocity for s in segs],
    )


class TestMovingWindowKernels:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_box_overlap_matches_scalar(self, data):
        dims = data.draw(_DIMS)
        window = data.draw(moving_windows(dims))
        n = data.draw(_PAGE)
        # native-space page boxes: time extent at axis 0, then space
        page = [data.draw(boxes(dims + 1)) for _ in range(n)]
        batch = kernels.BoxBatch(
            [b.lows for b in page], [b.highs for b in page]
        )
        got = kernels.moving_window_box_overlap_batch(
            kernels.window_params(window), batch
        )
        want = [moving_window_box_overlap(window, b) for b in page]
        assert got == want

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_segment_overlap_matches_scalar(self, data):
        dims = data.draw(_DIMS)
        window = data.draw(moving_windows(dims))
        n = data.draw(_PAGE)
        segs = [data.draw(segments(dims)) for _ in range(n)]
        got = kernels.moving_window_segment_overlap_batch(
            kernels.window_params(window), _segment_batch(segs)
        )
        want = [moving_window_segment_overlap(window, s) for s in segs]
        assert got == want

    def test_subnormal_time_span(self):
        # (v1 - v0) / 5e-324 overflows to inf; the border algebra then
        # produced NaN on both paths — unequal by definition, which made
        # the properties above flake whenever they drew such a span.
        window = MovingWindow(
            Interval(0.0, 5e-324),
            Box.from_bounds([0.0], [1.0]),
            Box.from_bounds([10.0], [11.0]),
        )
        params = kernels.window_params(window)
        box = Box([Interval(-1.0, 1.0), Interval(0.0, 5.0)])
        batch = kernels.BoxBatch([box.lows], [box.highs])
        got = kernels.moving_window_box_overlap_batch(params, batch)
        assert got == [moving_window_box_overlap(window, box)]
        assert got == [Interval(0.0, 5e-324)]
        seg = SpaceTimeSegment(Interval(-1.0, 1.0), (0.5,), (0.25,))
        got = kernels.moving_window_segment_overlap_batch(
            params, _segment_batch([seg])
        )
        assert got == [moving_window_segment_overlap(window, seg)]
        assert got == [Interval(0.0, 5e-324)]


class TestSegmentBoxKernel:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar(self, data):
        dims = data.draw(_DIMS)
        query = data.draw(boxes(dims + 1))
        n = data.draw(_PAGE)
        segs = [data.draw(segments(dims)) for _ in range(n)]
        got = kernels.segment_box_overlap_batch(_segment_batch(segs), query)
        want = [segment_box_overlap_interval(s, query) for s in segs]
        assert got == want

    def test_rest_dimension_containment(self):
        # zero-velocity segment at the exact window boundary: the scalar
        # path decides by containment, not division
        seg = SpaceTimeSegment(Interval(0.0, 4.0), (1.0,), (0.0,))
        query = Box.from_bounds([0.0, 1.0], [4.0, 2.0])
        got = kernels.segment_box_overlap_batch(_segment_batch([seg]), query)
        assert got == [segment_box_overlap_interval(seg, query)]
        assert got[0] == Interval(0.0, 4.0)


class TestBoxQueryMasks:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_masks_match_scalar_intersection(self, data):
        axes = data.draw(st.integers(min_value=1, max_value=4))
        query = data.draw(boxes(axes))
        prev = data.draw(st.none() | boxes(axes))
        n = data.draw(_PAGE)
        page = [data.draw(boxes(axes)) for _ in range(n)]
        batch = kernels.BoxBatch(
            [b.lows for b in page], [b.highs for b in page]
        )
        empty, covered = kernels.box_query_masks(batch, query, prev)
        assert len(empty) == len(covered) == n
        for k, b in enumerate(page):
            shared = b.intersect(query)
            assert empty[k] == shared.is_empty
            if not shared.is_empty:
                want = prev is not None and prev.contains_box(shared)
                assert covered[k] == want


class TestTrajectoryPages:
    """``QueryTrajectory.*_overlap_page``: the per-entry TimeSet assembled
    across trajectory segments is the scalar one, entry by entry."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_segment_overlap_page_matches_scalar(self, data):
        dims = data.draw(_DIMS)
        trajectory = data.draw(bending_trajectories(dims))
        segs = [data.draw(segments(dims)) for _ in range(data.draw(_PAGE))]
        got = trajectory.segment_overlap_page(_segment_batch(segs))
        assert got == [trajectory.segment_overlap(s) for s in segs]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_box_overlap_page_matches_scalar(self, data):
        dims = data.draw(_DIMS)
        trajectory = data.draw(bending_trajectories(dims))
        page = [data.draw(boxes(dims + 1)) for _ in range(data.draw(_PAGE))]
        batch = kernels.BoxBatch(
            [b.lows for b in page], [b.highs for b in page]
        )
        got = trajectory.box_overlap_page(batch)
        assert got == [trajectory.box_overlap(b) for b in page]

    def test_named_boundaries(self):
        # window grows 1 -> 3 over [0, 4], then shrinks back over [4, 6]
        trajectory = QueryTrajectory(
            [
                KeySnapshot(0.0, Box.from_bounds([0.0], [1.0])),
                KeySnapshot(4.0, Box.from_bounds([0.0], [3.0])),
                KeySnapshot(6.0, Box.from_bounds([0.0], [1.0])),
            ]
        )
        assert trajectory.box_overlap_page(kernels.BoxBatch([], [])) == []
        assert (
            trajectory.segment_overlap_page(
                kernels.SegmentBatch([], [], [], [])
            )
            == []
        )
        page = [
            # touches the upper border at exactly t=2, leaves at t=5
            Box.from_bounds([0.0, 2.0], [6.0, 5.0]),
            # zero-width time span inside the first trajectory segment
            Box.from_bounds([3.0, 0.5], [3.0, 0.5]),
            # zero-width time span past the trajectory's end
            Box.from_bounds([7.0, 0.5], [7.0, 0.5]),
        ]
        got = trajectory.box_overlap_page(
            kernels.BoxBatch([b.lows for b in page], [b.highs for b in page])
        )
        assert got == [trajectory.box_overlap(b) for b in page]
        assert got[0].components == (Interval(2.0, 5.0),)
        assert got[1].components == (Interval(3.0, 3.0),)
        assert got[2].is_empty


class TestDegenerateShapes:
    def test_empty_page_every_kernel(self):
        window = MovingWindow(
            Interval(0.0, 1.0),
            Box.from_bounds([0.0], [1.0]),
            Box.from_bounds([0.0], [1.0]),
        )
        params = kernels.window_params(window)
        empty_boxes = kernels.BoxBatch([], [])
        empty_segs = kernels.SegmentBatch([], [], [], [])
        q = Box.from_bounds([0.0, 0.0], [1.0, 1.0])
        assert kernels.moving_window_box_overlap_batch(params, empty_boxes) == []
        assert kernels.moving_window_segment_overlap_batch(params, empty_segs) == []
        assert kernels.segment_box_overlap_batch(empty_segs, q) == []
        assert kernels.box_query_masks(empty_boxes, q) == ([], [])

    def test_touching_boundary_is_instantaneous_overlap(self):
        # window upper border meets the box low edge at exactly t=2
        window = MovingWindow(
            Interval(0.0, 4.0),
            Box.from_bounds([0.0], [1.0]),
            Box.from_bounds([0.0], [3.0]),
        )
        box = Box.from_bounds([0.0, 2.0], [4.0, 5.0])
        batch = kernels.BoxBatch([box.lows], [box.highs])
        got = kernels.moving_window_box_overlap_batch(
            kernels.window_params(window), batch
        )
        want = moving_window_box_overlap(window, box)
        assert got == [want]
        assert want == Interval(2.0, 4.0)

    def test_zero_width_time_span(self):
        window = MovingWindow(
            Interval(3.0, 3.0),
            Box.from_bounds([0.0], [2.0]),
            Box.from_bounds([0.0], [2.0]),
        )
        seg_in = SpaceTimeSegment(Interval(0.0, 9.0), (1.0,), (0.0,))
        seg_out = SpaceTimeSegment(Interval(0.0, 9.0), (5.0,), (0.0,))
        got = kernels.moving_window_segment_overlap_batch(
            kernels.window_params(window), _segment_batch([seg_in, seg_out])
        )
        assert got[0] == Interval(3.0, 3.0)
        assert got[1].is_empty
        assert got == [
            moving_window_segment_overlap(window, s)
            for s in (seg_in, seg_out)
        ]
