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

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trajectory import KeySnapshot, QueryTrajectory
from repro.errors import GeometryError, QueryError
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
from repro.index.codec import DualTimeNodeCodec, NativeNodeCodec
from repro.index.entry import InternalEntry
from repro.motion.segment import MotionSegment

from _helpers import (
    scalar_box_overlap,
    scalar_choose_subtree,
    scalar_frame_query,
    scalar_frame_window,
    scalar_live_rows,
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


@st.composite
def _sweep_segments(draw, dims):
    """Segments as ``segments`` draws them, plus the shapes the NPDQ
    sweep's derived exact test must survive: sub-ulp and huge velocities
    and validity running to infinity."""
    seg = draw(segments(dims))
    velocity = tuple(
        draw(_VELOCITY | st.sampled_from([1e-300, -1e-300, 1e300]))
        for _ in range(dims)
    )
    time = seg.time
    if draw(st.booleans()):
        time = Interval(time.low, math.inf)
    return SpaceTimeSegment(time, seg.origin, velocity)


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

    @given(st.data())
    @settings(deadline=None)
    def test_per_row_boxes_match_the_box_form(self, data):
        # Each row against its own box (the NPDQ sweep's leaf stage), and
        # the exact-Q test derived from the open visibility box: Q is that
        # box cut at Q.t.high, so a row misses Q iff its visibility is
        # empty or starts after Q.t.high.
        dims = data.draw(_DIMS)
        n = data.draw(_PAGE)
        segs = [data.draw(_sweep_segments(dims)) for _ in range(n)]
        queries = [
            data.draw(boxes(dims + 1))
            for _ in range(data.draw(st.integers(min_value=1, max_value=4)))
        ]
        owner = [
            data.draw(st.integers(min_value=0, max_value=len(queries) - 1))
            for _ in range(n)
        ]
        batch = _segment_batch(segs)
        got = kernels.segment_box_overlap_batch(
            batch,
            kernels.BoxBatch(
                [queries[o].lows for o in owner], [queries[o].highs for o in owner]
            ),
        )
        assert got == [
            kernels.segment_box_overlap_batch(_segment_batch([s]), queries[o])[0]
            for s, o in zip(segs, owner)
        ]
        opened = [
            Box([Interval(q.extent(0).low, math.inf)] + list(q.extents[1:]))
            for q in queries
        ]
        visible = kernels.segment_box_overlap_batch(
            batch,
            kernels.BoxBatch(
                [opened[o].lows for o in owner], [opened[o].highs for o in owner]
            ),
        )
        derived = [
            v.is_empty or v.low > queries[o].extent(0).high
            for v, o in zip(visible, owner)
        ]
        explicit = [
            kernels.segment_box_overlap_batch(_segment_batch([s]), queries[o])[0]
            for s, o in zip(segs, owner)
        ]
        assert derived == [e.is_empty for e in explicit]

    def test_derived_exact_test_on_named_rows(self):
        query = Box([Interval(1.0, 2.0), Interval(0.0, 1.0)])
        opened = Box([Interval(1.0, math.inf), Interval(0.0, 1.0)])
        rows = [
            SpaceTimeSegment(Interval(0.0, 3.0), (0.5,), (0.0,)),  # at rest inside
            SpaceTimeSegment(Interval(0.0, 3.0), (0.5,), (1e-300,)),  # sub-ulp move
            SpaceTimeSegment(Interval(0.0, 3.0), (1.5,), (0.0,)),  # at rest outside
            SpaceTimeSegment(Interval(1.5, 1.5), (0.5,), (0.0,)),  # an instant in Q
            SpaceTimeSegment(Interval(2.5, 2.5), (0.5,), (0.0,)),  # an instant after
            SpaceTimeSegment(Interval(0.0, 3.0), (-1.0,), (0.5,)),  # enters at Q.t.high
            SpaceTimeSegment(Interval(0.0, 3.0), (-1.0,), (0.4,)),  # enters after
        ]
        batch = _segment_batch(rows)
        visible = kernels.segment_box_overlap_batch(batch, opened)
        assert visible[5].low == query.extent(0).high
        derived = [v.is_empty or v.low > 2.0 for v in visible]
        explicit = kernels.segment_box_overlap_batch(batch, query)
        assert derived == [e.is_empty for e in explicit]
        assert derived == [False, False, True, False, True, False, True]

    def test_per_row_boxes_must_match_the_rows(self):
        seg = SpaceTimeSegment(Interval(0.0, 1.0), (0.5,), (0.0,))
        two = kernels.BoxBatch([[0.0, 0.0]] * 2, [[1.0, 1.0]] * 2)
        with pytest.raises(GeometryError):
            kernels.segment_box_overlap_batch(_segment_batch([seg]), two)

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


# A real node page holds up to a few dozen entries; 64 covers it.
_TRAJECTORY_PAGE = st.integers(min_value=0, max_value=64)


@st.composite
def dual_boxes(draw, axes):
    """A box some of whose extents run to infinity, as a dual-time query's
    first two do (``t_s <= q_h`` and ``t_e >= q_l``)."""
    extents = []
    for _ in range(axes):
        ext = draw(intervals())
        shape = draw(st.sampled_from(["closed", "left-open", "right-open"]))
        if shape == "left-open":
            ext = Interval(-math.inf, ext.high)
        elif shape == "right-open":
            ext = Interval(ext.low, math.inf)
        extents.append(ext)
    return Box(extents)


class TestLiveRows:
    """``kernels.live_rows`` — the one implementation of the dual tree's
    discard rule — against the scalar rule it replaced, entry by entry."""

    @staticmethod
    def _check(page, stamps, query, prev, clock):
        entries = [
            InternalEntry(box, k, timestamp=stamp)
            for k, (box, stamp) in enumerate(zip(page, stamps))
        ]
        got = kernels.live_rows(
            _box_batch(page),
            kernels.stamp_column(stamps),
            kernels.DiscardRule(query, prev, clock),
        )
        assert got == scalar_live_rows(entries, query, prev, clock)
        return got

    @given(st.data())
    @settings(deadline=None)
    def test_matches_scalar_rule(self, data):
        axes = data.draw(st.integers(min_value=1, max_value=4))
        query = data.draw(dual_boxes(axes))
        # P is usually Q moved by a sliver, so coverage is the common
        # case and the stamp decides; sometimes unrelated, empty or absent
        prev = data.draw(
            st.none()
            | st.just(Box.empty(axes))
            | dual_boxes(axes)
            | st.just(query)
            | st.builds(
                lambda d: Box(
                    Interval(e.low - d, e.high - d) for e in query.extents
                ),
                st.sampled_from([0.0, 0.5, 1.0]),
            )
        )
        clock = data.draw(st.integers(min_value=-1, max_value=6))
        n = data.draw(_TRAJECTORY_PAGE)
        # allow_empty: a structurally empty entry box (low > high) is dead
        page = [
            Box(tuple(data.draw(intervals(allow_empty=True)) for _ in range(axes)))
            for _ in range(n)
        ]
        stamps = [
            data.draw(st.integers(min_value=0, max_value=7)) for _ in range(n)
        ]
        self._check(page, stamps, query, prev, clock)

    def test_touching_bounds_intersect_and_are_covered(self):
        query = Box([Interval(-math.inf, 2.0), Interval(1.0, math.inf)])
        prev = Box([Interval(-math.inf, 1.5), Interval(1.0, math.inf)])
        page = [
            Box([Interval(2.0, 3.0), Interval(0.0, 1.0)]),  # touches Q at a corner
            Box([Interval(0.0, 1.5), Interval(1.0, 4.0)]),  # Q's share ends on P's edge
            Box([Interval(0.0, 1.75), Interval(1.0, 4.0)]),  # pokes out of P
            Box([Interval(2.5, 3.0), Interval(1.0, 4.0)]),  # misses Q
        ]
        assert self._check(page, [0, 0, 0, 0], query, prev, clock=0) == [0, 2]
        # a stamp newer than P's clock reading un-discards a covered row
        assert self._check(page, [0, 1, 0, 0], query, prev, clock=0) == [0, 1, 2]
        assert self._check(page, [0, 0, 0, 0], query, None, clock=0) == [0, 1, 2]

    def test_empty_page_and_empty_prev(self):
        query = Box([Interval(0.0, 1.0)])
        assert self._check([], [], query, query, clock=3) == []
        page = [Box([Interval(0.0, 1.0)]), Box([Interval(3.0, 2.0)])]
        assert self._check(page, [0, 0], query, Box.empty(1), clock=3) == [0]

    @given(st.data())
    @settings(deadline=None)
    def test_level_kernel_matches_each_rule(self, data):
        """One ``level_live_rows`` call over one page, read by the whole
        block in order or by any pick of its clients (repeats and any
        order), gives each reader what its own one-client rule gives."""
        axes = data.draw(st.integers(min_value=1, max_value=4))
        n = data.draw(st.integers(min_value=0, max_value=20))
        page = [
            Box(tuple(data.draw(intervals(allow_empty=True)) for _ in range(axes)))
            for _ in range(n)
        ]
        stamps = kernels.stamp_column(
            [data.draw(st.integers(min_value=0, max_value=7)) for _ in range(n)]
        )
        queries, prevs, clocks = [], [], []
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            queries.append(data.draw(dual_boxes(axes)))
            prevs.append(data.draw(
                st.none() | st.just(Box.empty(axes)) | st.just(queries[-1]) | dual_boxes(axes)
            ))
            clocks.append(data.draw(st.integers(min_value=-1, max_value=6)))
        batch = _box_batch(page)
        each = [
            kernels.live_rows(batch, stamps, kernels.DiscardRule(q, p, c))
            for q, p, c in zip(queries, prevs, clocks)
        ]
        block = kernels.DiscardRule.of(queries, prevs, clocks)
        everyone = list(range(len(queries)))
        assert kernels.level_live_rows([(batch, stamps, everyone)], block) == each
        picked = data.draw(st.lists(st.sampled_from(everyone)))
        assert kernels.level_live_rows([(batch, stamps, picked)], block) == [
            each[r] for r in picked
        ]

    def test_axes_mismatch_is_refused(self):
        rule = kernels.DiscardRule(Box([Interval(0.0, 1.0)]))
        page = [Box([Interval(0.0, 1.0), Interval(0.0, 1.0)])]
        with pytest.raises(GeometryError):
            kernels.live_rows(_box_batch(page), kernels.stamp_column([0]), rule)
        with pytest.raises(GeometryError):
            kernels.DiscardRule(page[0], Box([Interval(0.0, 1.0)]))
        with pytest.raises(GeometryError):
            kernels.DiscardRule.of(
                [Box([Interval(0.0, 1.0)]), page[0]], [None, None], [-1, -1]
            )
        one = [Box([Interval(0.0, 1.0)])]
        with pytest.raises(GeometryError):  # in any page of the level
            kernels.level_live_rows(
                [
                    (_box_batch(one), kernels.stamp_column([0]), [0]),
                    (_box_batch(page), kernels.stamp_column([0]), [0]),
                ],
                rule,
            )


def _crossed(box):
    """``box`` with its last extent crossed (``low > high``): empty."""
    last = box.extents[-1]
    return Box(box.extents[:-1] + (Interval(last.high + 1.0, last.low),))


def _grid_box(draw, axes):
    """A box on the grid, one draw a bound; one in eight is empty (its last
    extent crossed)."""
    extents = [Interval.ordered(draw(_GRID), draw(_GRID)) for _ in range(axes)]
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        extents[-1] = Interval(extents[-1].high + 1.0, extents[-1].low)
    return Box(extents)


@st.composite
def level_pages(draw, axes, clients):
    """One level of dual-tree pages: each its boxes, stamps and readers.

    A page may be empty, and is read by one client, by some (in any
    order) or by all of them; boxes sit on the grid, so they touch.
    """
    pages = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=0, max_value=6))
        page = [_grid_box(draw, axes) for _ in range(n)]
        stamps = [draw(st.integers(min_value=0, max_value=7)) for _ in range(n)]
        everyone = list(range(clients))
        readers = draw(
            st.sampled_from(["one", "some", "all"]).flatmap(
                lambda how: st.lists(st.sampled_from(everyone), min_size=1, max_size=1)
                if how == "one"
                else st.permutations(everyone).map(lambda p: p[: max(1, len(p) // 2)])
                if how == "some"
                else st.just(everyone)
            )
        )
        pages.append((page, stamps, readers))
    return pages


class TestLevelLiveRows:
    """``kernels.level_live_rows`` — one call for every ``(client, page)``
    pair of a dual-tree level — against the scalar rule, pair by pair.

    The kernel asks Lemma 1 axis by axis with the bounds' own comparisons
    (``R.low > Q.high``, ``P.low ≤ R.low ∨ P.low ≤ Q.low`` …), where the
    scalar reference intersects first (``max``/``min`` by branch, the
    form the kernels otherwise mirror with ``np.where``); every case
    below must agree with it."""

    @staticmethod
    def _check(pages, queries, prevs, clocks):
        rule = kernels.DiscardRule.of(queries, prevs, clocks)
        got = kernels.level_live_rows(
            [
                (_box_batch(page), kernels.stamp_column(stamps), readers)
                for page, stamps, readers in pages
            ],
            rule,
        )
        want = []
        for page, stamps, readers in pages:
            entries = [
                InternalEntry(box, k, timestamp=stamp)
                for k, (box, stamp) in enumerate(zip(page, stamps))
            ]
            for c in readers:
                want.append(
                    scalar_live_rows(entries, queries[c], prevs[c], clocks[c])
                )
        assert got == want
        return got

    @given(st.data())
    @settings(deadline=None)
    def test_every_pair_matches_the_scalar_rule(self, data):
        axes = data.draw(st.integers(min_value=1, max_value=4))
        clients = data.draw(st.integers(min_value=1, max_value=4))
        # sometimes a Q with its last extent crossed: an empty query
        queries = [
            data.draw(dual_boxes(axes) | dual_boxes(axes).map(_crossed))
            for _ in range(clients)
        ]
        # no P, an empty P, P = Q, P = Q moved by a sliver, an unrelated P
        prevs = [
            data.draw(
                st.none()
                | st.just(Box.empty(axes))
                | st.just(q)
                | st.sampled_from([0.5, 1.0]).map(
                    lambda d, q=q: Box(
                        Interval(e.low - d, e.high - d) for e in q.extents
                    )
                )
                | dual_boxes(axes)
            )
            for q in queries
        ]
        # stamps are 0..7: the clock falls on either side of them
        clocks = [data.draw(st.integers(min_value=-1, max_value=6)) for _ in queries]
        self._check(data.draw(level_pages(axes, clients)), queries, prevs, clocks)

    def test_named_cases(self):
        """The cases the property must reach, each written down once."""
        inf = math.inf
        q = Box([Interval(-inf, 2.0), Interval(1.0, inf)])  # a dual query
        p = Box([Interval(-inf, 1.5), Interval(1.0, inf)])
        page = [
            Box([Interval(2.0, 3.0), Interval(0.0, 1.0)]),  # touches Q at a corner
            Box([Interval(0.0, 1.5), Interval(1.0, 4.0)]),  # Q's share ends on P's edge
            Box([Interval(0.0, 1.75), Interval(1.0, 4.0)]),  # pokes out of P
            Box([Interval(2.5, 3.0), Interval(1.0, 4.0)]),  # misses Q
            Box([Interval(-inf, inf), Interval(-inf, inf)]),  # unbounded row
        ]
        pages = [
            (page, [0, 1, 0, 0, 0], [0, 1, 2, 3]),  # read by all
            ([], [], [1, 3]),  # empty page, read by some
            (page, [0, 0, 0, 0, 9], [2]),  # read by one
            (page[:2], [5, 5], [3, 0]),  # some, out of order
            (page, [0, 0, 0, 0, 0], [4]),  # an empty Q: nothing is live
        ]
        got = self._check(
            pages,
            [q, q, q, q, _crossed(q)],
            [p, None, Box.empty(2), p, None],  # P, no P, empty P, P
            [0, -1, 3, 6, -1],  # clock after stamp 5 but before 9
        )
        assert got == [
            [0, 1, 2, 4], [0, 1, 2, 4], [0, 1, 2, 4], [0, 2, 4],
            [], [],
            [0, 1, 2, 4],
            [0], [0, 1],
            [],
        ]


_F32_MAX = 3.4028235e38


@st.composite
def stored_boxes(draw, axes):
    """An internal entry's box as a page can hold it: usually plain,
    sometimes empty (``low > high``), unbounded, or clipped to the
    float32 range an unbounded one is stored as."""
    extents = []
    for _ in range(axes):
        shape = draw(
            st.sampled_from(["plain"] * 5 + ["empty", "unbounded", "clipped"])
        )
        if shape == "plain":
            extents.append(draw(intervals()))
        elif shape == "empty":
            extents.append(Interval(1.0, -1.0))
        elif shape == "unbounded":
            extents.append(Interval(-math.inf, math.inf))
        else:
            extents.append(Interval(-_F32_MAX, _F32_MAX))
    return Box(extents)


class TestChooseSubtree:
    """``kernels.choose_subtree`` — the insert path's one ChooseLeaf —
    against the ``(enlargement, volume)`` fold over ``Box`` objects."""

    @given(st.data())
    @settings(deadline=None)
    def test_matches_scalar_fold(self, data):
        axes = data.draw(st.integers(min_value=1, max_value=4))
        n = data.draw(st.integers(min_value=1, max_value=64))
        # grid coordinates make equal enlargements and equal volumes common
        page = [data.draw(stored_boxes(axes)) for _ in range(n)]
        box = data.draw(stored_boxes(axes))
        got = kernels.choose_subtree(_box_batch(page), box.lows, box.highs)
        assert got == scalar_choose_subtree(page, box)

    def test_ties_go_to_the_first_row(self):
        unit = Box.from_bounds([0.0, 0.0], [1.0, 1.0])
        inside = Box.from_bounds([0.25, 0.25], [0.5, 0.5])
        page = [Box.from_bounds([0.0, 0.0], [2.0, 2.0]), unit, unit]
        # no row needs enlarging: the smaller volume wins, its first copy
        assert kernels.choose_subtree(_box_batch(page), inside.lows, inside.highs) == 1
        assert scalar_choose_subtree(page, inside) == 1

    def test_empty_entry_and_empty_box(self):
        empty = Box([Interval(1.0, -1.0), Interval(0.0, 1.0)])
        unit = Box.from_bounds([0.0, 0.0], [1.0, 1.0])
        far = Box.from_bounds([5.0, 5.0], [6.0, 6.0])
        # an empty entry "covers" a box at the cost of the box's own volume
        page = [unit, empty]
        assert kernels.choose_subtree(_box_batch(page), far.lows, far.highs) == 1
        assert scalar_choose_subtree(page, far) == 1
        # an empty box enlarges nothing: least volume, then first
        page = [unit, empty, empty]
        assert kernels.choose_subtree(_box_batch(page), empty.lows, empty.highs) == 1
        assert scalar_choose_subtree(page, empty) == 1

    def test_one_row_and_no_rows(self):
        unit = Box.from_bounds([0.0], [1.0])
        assert kernels.choose_subtree(_box_batch([unit]), unit.lows, unit.highs) == 0
        with pytest.raises(GeometryError):
            kernels.choose_subtree(_box_batch([]), unit.lows, unit.highs)
        with pytest.raises(GeometryError):
            kernels.choose_subtree(_box_batch([unit]), [0.0, 0.0], [1.0, 1.0])


class TestLeafBoxColumns:
    """The boxes a decoded leaf's rows are indexed under — computed as
    columns by the codecs — against ``_leaf_box``, record by record."""

    @given(st.data())
    @settings(deadline=None)
    def test_match_the_per_record_box(self, data):
        dims = data.draw(_DIMS)
        codec_cls = data.draw(st.sampled_from([NativeNodeCodec, DualTimeNodeCodec]))
        codec = codec_cls(dims, data.draw(st.sampled_from([0.0, 0.75])))
        # (an empty leaf goes through the codecs in tests/index/test_codec.py)
        n = data.draw(st.integers(min_value=1, max_value=64))
        segs = [data.draw(segments(dims)) for _ in range(n)]
        batch = kernels.SegmentBatch.from_records(_segment_batch(segs).records())
        got = kernels.BoxBatch.from_columns(
            *codec._leaf_box_columns(batch),
            pad=codec.uncertainty + codec._ROUNDING_EPS,
        )
        want = [codec._leaf_box(MotionSegment(k, 0, s)) for k, s in enumerate(segs)]
        assert got.n == n
        lows, highs = got.bounds(list(range(n)))
        assert lows == [list(b.lows) for b in want]
        assert highs == [list(b.highs) for b in want]


_FRONTIER = _GRID | st.floats(
    min_value=-60.0, max_value=60.0, allow_nan=False, allow_infinity=False
)


def _box_batch(page):
    return kernels.BoxBatch([b.lows for b in page], [b.highs for b in page])


def _scalar_live(overlap, entries, frontier):
    """The oracle: every entry's scalar TimeSet, minus the components a
    queue whose frontier is ``frontier`` drops, as ``(k, low, high)``."""
    return [
        (k, c.low, c.high)
        for k, e in enumerate(entries)
        for c in overlap(e)
        if c.high >= frontier
    ]


class TestTrajectoryPages:
    """``QueryTrajectory.live_components``: the surviving components of a
    whole page are the scalar ones — same floats, same order."""

    @given(st.data())
    @settings(deadline=None)
    def test_segment_overlap_page_matches_scalar(self, data):
        dims = data.draw(_DIMS)
        trajectory = data.draw(bending_trajectories(dims))
        segs = [
            data.draw(segments(dims))
            for _ in range(data.draw(_TRAJECTORY_PAGE))
        ]
        frontier = data.draw(_FRONTIER)
        got = trajectory.live_components(_segment_batch(segs), frontier)
        assert got == _scalar_live(trajectory.segment_overlap, segs, frontier)

    @given(st.data())
    @settings(deadline=None)
    def test_box_overlap_page_matches_scalar(self, data):
        dims = data.draw(_DIMS)
        trajectory = data.draw(bending_trajectories(dims))
        page = [
            data.draw(boxes(dims + 1))
            for _ in range(data.draw(_TRAJECTORY_PAGE))
        ]
        frontier = data.draw(_FRONTIER)
        got = trajectory.live_components(_box_batch(page), frontier)
        assert got == _scalar_live(partial(scalar_box_overlap, trajectory), page, frontier)

    @staticmethod
    def _tent():
        # window grows 1 -> 3 over [0, 4], then shrinks back over [4, 6]
        return QueryTrajectory(
            [
                KeySnapshot(0.0, Box.from_bounds([0.0], [1.0])),
                KeySnapshot(4.0, Box.from_bounds([0.0], [3.0])),
                KeySnapshot(6.0, Box.from_bounds([0.0], [1.0])),
            ]
        )

    def _check_boxes(self, trajectory, page, frontier):
        got = trajectory.live_components(_box_batch(page), frontier)
        assert got == _scalar_live(partial(scalar_box_overlap, trajectory), page, frontier)
        return got

    def test_empty_page(self):
        trajectory = self._tent()
        assert trajectory.live_components(kernels.BoxBatch([], []), 0.0) == []
        assert (
            trajectory.live_components(
                kernels.SegmentBatch([], [], [], []), 0.0
            )
            == []
        )

    def test_named_boundaries(self):
        page = [
            # touches the upper border at exactly t=2, leaves at t=5
            Box.from_bounds([0.0, 2.0], [6.0, 5.0]),
            # zero-width time span inside the first trajectory segment
            Box.from_bounds([3.0, 0.5], [3.0, 0.5]),
            # zero-width time span past the trajectory's end
            Box.from_bounds([7.0, 0.5], [7.0, 0.5]),
        ]
        got = self._check_boxes(self._tent(), page, 0.0)
        assert got == [(0, 2.0, 5.0), (1, 3.0, 3.0)]
        # the frontier drops a component that ends before it, and keeps
        # one that ends exactly on it
        assert self._check_boxes(self._tent(), page, 3.0) == got
        assert self._check_boxes(self._tent(), page, 4.5) == got[:1]
        assert self._check_boxes(self._tent(), page, 5.5) == []

    def test_empty_time_extent(self):
        page = [
            Box([Interval(3.0, 1.0), Interval(0.0, 1.0)]),
            Box.from_bounds([1.0, 0.0], [3.0, 1.0]),
        ]
        got = self._check_boxes(self._tent(), page, 0.0)
        assert got == [(1, 1.0, 3.0)]

    def test_extent_ending_or_starting_on_a_key_time(self):
        page = [
            # ends exactly on the middle key time: first segment only
            Box.from_bounds([1.0, 0.0], [4.0, 1.0]),
            # starts exactly on it: second segment only (closed left)
            Box.from_bounds([4.0, 0.0], [5.0, 1.0]),
            # starts on the first key time, ends on the last
            Box.from_bounds([0.0, 0.0], [6.0, 1.0]),
        ]
        got = self._check_boxes(self._tent(), page, 0.0)
        assert got == [
            (0, 1.0, 4.0),
            (1, 4.0, 5.0),
            (2, 0.0, 6.0),
        ]

    def test_zero_width_extent_on_a_key_time(self):
        # A zero-width extent sitting exactly on a key time meets the
        # segment starting there (the last one at the final key), so the
        # window covering the point finds it on every key, first and last
        # included, in the scalar path and the kernel alike.
        page = [
            Box.from_bounds([0.0, 0.5], [0.0, 0.5]),
            Box.from_bounds([4.0, 0.5], [4.0, 0.5]),
            Box.from_bounds([6.0, 0.5], [6.0, 0.5]),
            Box.from_bounds([4.5, 0.5], [4.5, 0.5]),  # off a key
            Box.from_bounds([6.5, 0.5], [6.5, 0.5]),  # past the span: never
        ]
        trajectory = self._tent()
        got = self._check_boxes(trajectory, page, 0.0)
        assert got == [
            (0, 0.0, 0.0),
            (1, 4.0, 4.0),
            (2, 6.0, 6.0),
            (3, 4.5, 4.5),
        ]
        segs = [
            SpaceTimeSegment(Interval(4.0, 4.0), (0.5,), (0.0,)),
            SpaceTimeSegment(Interval(4.5, 4.5), (0.5,), (0.0,)),
            SpaceTimeSegment(Interval(6.0, 6.0), (0.5,), (0.0,)),
        ]
        got = trajectory.live_components(_segment_batch(segs), 0.0)
        assert got == _scalar_live(trajectory.segment_overlap, segs, 0.0)
        assert [k for k, *_ in got] == [0, 1, 2]

    def test_extent_touching_the_span_at_an_endpoint(self):
        # An extent ending on the first key time or starting on the last
        # meets the window at that instant (the first / last trajectory
        # segment); one stopping short of the span meets nothing.
        page = [
            Box.from_bounds([-1.0, 0.5], [0.0, 0.5]),
            Box.from_bounds([6.0, 0.5], [7.0, 0.5]),
            Box.from_bounds([-1.0, 0.5], [-0.5, 0.5]),  # before the span
            Box.from_bounds([6.5, 0.5], [7.0, 0.5]),  # after it
            Box.from_bounds([-1.0, 0.5], [7.0, 0.5]),  # across all of it
        ]
        trajectory = self._tent()
        got = self._check_boxes(trajectory, page, 0.0)
        assert got == [
            (0, 0.0, 0.0),
            (1, 6.0, 6.0),
            (4, 0.0, 6.0),
        ]
        assert self._check_boxes(trajectory, page, 1.0) == got[1:]
        segs = [
            SpaceTimeSegment(Interval(-1.0, 0.0), (0.5,), (0.0,)),
            SpaceTimeSegment(Interval(6.0, 7.0), (0.5,), (0.0,)),
            SpaceTimeSegment(Interval(-1.0, 0.0), (1.5,), (0.0,)),  # outside
            SpaceTimeSegment(Interval(-2.0, 0.0), (-1.5,), (1.0,)),  # arrives
        ]
        got = trajectory.live_components(_segment_batch(segs), 0.0)
        assert got == _scalar_live(trajectory.segment_overlap, segs, 0.0)
        assert got == [
            (0, 0.0, 0.0),
            (1, 6.0, 6.0),
            (3, 0.0, 0.0),
        ]

    def test_structurally_empty_box(self):
        page = [
            Box([Interval(0.0, 6.0), Interval(1.0, 0.0)]),  # low > high
            Box.from_bounds([0.0, 0.0], [6.0, 1.0]),
        ]
        got = self._check_boxes(self._tent(), page, 0.0)
        assert got == [(1, 0.0, 6.0)]

    def test_subnormal_time_span(self):
        # the window of TestMovingWindowKernels.test_subnormal_time_span
        # as the first segment of a trajectory
        trajectory = QueryTrajectory(
            [
                KeySnapshot(0.0, Box.from_bounds([0.0], [1.0])),
                KeySnapshot(5e-324, Box.from_bounds([10.0], [11.0])),
                KeySnapshot(1.0, Box.from_bounds([10.0], [11.0])),
            ]
        )
        page = [Box([Interval(-1.0, 1.0), Interval(0.0, 5.0)])]
        got = self._check_boxes(trajectory, page, 0.0)
        assert got == [(0, 0.0, 5e-324)]
        segs = [SpaceTimeSegment(Interval(-1.0, 1.0), (0.5,), (0.25,))]
        got = trajectory.live_components(_segment_batch(segs), 0.0)
        assert got == _scalar_live(trajectory.segment_overlap, segs, 0.0)
        assert got == [(0, 0.0, 5e-324)]

    def test_two_trajectory_segments_touching_and_apart(self):
        page = [
            # inside the window throughout: [0, 4] and [4, 6] touch at
            # the key time and coalesce into one component
            Box.from_bounds([0.0, 0.5], [6.0, 0.5]),
            # between the borders only while the window is wider than 2:
            # [2, 4] and [4, 5] coalesce as well
            Box.from_bounds([0.0, 2.0], [6.0, 2.5]),
        ]
        got = self._check_boxes(self._tent(), page, 0.0)
        assert got == [(0, 0.0, 6.0), (1, 2.0, 5.0)]
        # a coalesced component is judged by its own end, not by the
        # end of the piece the first trajectory segment contributed
        assert self._check_boxes(self._tent(), page, 4.5) == got

        # a window that covers x = 2 early and late but not in between
        gap = QueryTrajectory(
            [
                KeySnapshot(0.0, Box.from_bounds([0.0], [3.0])),
                KeySnapshot(2.0, Box.from_bounds([0.0], [1.0])),
                KeySnapshot(4.0, Box.from_bounds([0.0], [3.0])),
            ]
        )
        page = [
            Box.from_bounds([0.0, 2.0], [4.0, 2.0]),
            Box.from_bounds([0.0, 0.5], [1.5, 0.5]),  # one segment only
        ]
        got = self._check_boxes(gap, page, 0.0)
        assert got == [
            (0, 0.0, 1.0),
            (0, 3.0, 4.0),
            (1, 0.0, 1.5),
        ]
        assert self._check_boxes(gap, page, 2.0) == [(0, 3.0, 4.0)]


@st.composite
def keyed_trajectories(draw, dims):
    """Two to four key snapshots with unrelated windows."""
    t = draw(_GRID)
    keys = [KeySnapshot(t, draw(boxes(dims)))]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        t += draw(_GAP)
        keys.append(KeySnapshot(t, draw(boxes(dims))))
    return QueryTrajectory(keys)


@st.composite
def keyed_times(draw, key_times):
    """A time extent whose bounds are often key times, sometimes the
    same one (a zero-width extent on a key time)."""
    bound = st.sampled_from(key_times) | _COORD
    a, b = sorted((draw(bound), draw(bound)))
    if draw(st.booleans()):
        b = a
    return Interval(a, b)


class TestGatheredDemands:
    """``gathered_live_components``: many (page, trajectory, frontier)
    demands in one call get, each, what the demand gets alone."""

    @given(st.data())
    @settings(deadline=None)
    def test_demands_together_equal_each_alone(self, data):
        dims = data.draw(_DIMS)
        trajectories = [
            data.draw(keyed_trajectories(dims))
            for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
        ]
        table = kernels.TrajectoryTable.stack(
            [t.kernel_table() for t in trajectories]
        )
        leaves = data.draw(st.booleans())
        demands, alone = [], []
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            t = data.draw(st.integers(0, len(trajectories) - 1))
            trajectory = trajectories[t]
            key_times = [k.time for k in trajectory.key_snapshots]
            times = [
                data.draw(keyed_times(key_times))
                for _ in range(data.draw(_PAGE))
            ]
            if leaves:
                page = [
                    SpaceTimeSegment(
                        time,
                        tuple(data.draw(_COORD) for _ in range(dims)),
                        tuple(data.draw(_VELOCITY) for _ in range(dims)),
                    )
                    for time in times
                ]
                batch, overlap = _segment_batch(page), trajectory.segment_overlap
            else:
                page = [Box([time, *data.draw(boxes(dims))]) for time in times]
                batch, overlap = _box_batch(page), partial(scalar_box_overlap, trajectory)
            # frontiers inside the span, on its key times, and outside it
            frontier = data.draw(
                st.sampled_from(key_times)
                | st.floats(
                    min_value=key_times[0] - 5.0,
                    max_value=key_times[-1] + 5.0,
                    allow_nan=False,
                )
            )
            demands.append((batch, t, frontier))
            alone.append(trajectory.live_components(batch, frontier))
            assert alone[-1] == _scalar_live(overlap, page, frontier)
        got = kernels.gathered_live_components(table, demands)
        assert got == alone
        for mine, own in zip(got, alone):
            assert [type(k) for k, *_ in mine] == [int] * len(mine)
            for (_, *a), (_, *b) in zip(mine, own):  # same floats, signs too
                assert [(x, math.copysign(1.0, x)) for x in a] == [
                    (x, math.copysign(1.0, x)) for x in b
                ]


def _bits(box: Box):
    """A box's bounds as hex strings: ``-0.0`` and ``0.0`` differ."""
    return [(float(e.low).hex(), float(e.high).hex()) for e in box.extents]


class TestFrameWindows:
    """``frame_windows`` — every row of a stacked table at once — and
    ``frame_query``, its one-row case, against the scalar frame query
    (``window_at`` at both ends, then the key windows strictly inside
    the frame, one ``Box.cover`` at a time): same floats, bit for bit,
    on multi-key trajectories, frames that start or end on a key
    instant, straddle either end of a span or lie past it, and frames of
    zero length."""

    @given(st.data())
    @settings(deadline=None, max_examples=120)
    def test_every_row_is_the_scalar_frame(self, data):
        dims = data.draw(_DIMS)
        trajectories = [
            data.draw(keyed_trajectories(dims))
            for _ in range(data.draw(st.integers(min_value=1, max_value=4)))
        ]
        table = kernels.TrajectoryTable.stack([t.kernel_table() for t in trajectories])
        key_times = sorted({k.time for t in trajectories for k in t.key_snapshots})
        instant = st.sampled_from(key_times) | st.floats(
            min_value=key_times[0] - 5.0, max_value=key_times[-1] + 5.0, allow_nan=False
        )
        start = data.draw(instant)
        start, end = sorted((start, data.draw(instant | st.just(start))))
        lows, highs = kernels.frame_windows(table, start, end)
        for t, trajectory in enumerate(trajectories):
            window = scalar_frame_window(trajectory, start, end)
            want = _bits(window)
            assert _bits(Box.from_bounds(lows[t].tolist(), highs[t].tolist())) == want
            if window.is_empty:  # rounding crossed an interpolated window
                for frame_query in (scalar_frame_query, QueryTrajectory.frame_query):
                    with pytest.raises(QueryError):
                        frame_query(trajectory, start, end)
            else:
                assert _bits(trajectory.frame_query(start, end).window) == want


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
