"""Tests for the TPR-tree and PDQ over it (future-work item (iii))."""

import random

import pytest

from repro.errors import GeometryError, IndexStructureError, QueryError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.trapezoid import MovingWindow
from repro.core.trajectory import QueryTrajectory
from repro.index.tpbox import TPBox
from repro.index.tpr import CurrentMotion, TPRPDQEngine, TPRTree
from repro.motion.linear import LinearMotion


def moving_population(rng, n=300, ref=0.0):
    out = []
    for oid in range(n):
        out.append(
            CurrentMotion(
                oid,
                LinearMotion(
                    ref,
                    (rng.uniform(0, 100), rng.uniform(0, 100)),
                    (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                ),
            )
        )
    return out


class TestTPBox:
    def test_point_box(self):
        b = TPBox.for_point(1.0, (3.0, 4.0), (1.0, -1.0))
        snap = b.box_at(3.0)
        assert snap.lows == (5.0, 2.0)
        assert snap.highs == (5.0, 2.0)

    def test_grows_conservatively(self):
        b = TPBox(0.0, (0.0,), (1.0,), (-1.0,), (2.0,))
        snap = b.box_at(2.0)
        assert snap.lows == (-2.0,)
        assert snap.highs == (5.0,)

    def test_invalid_construction(self):
        with pytest.raises(GeometryError):
            TPBox(0.0, (1.0,), (0.0,), (0.0,), (0.0,))  # empty at ref
        with pytest.raises(GeometryError):
            TPBox(0.0, (0.0,), (1.0,), (2.0,), (1.0,))  # crossing edges

    def test_cover_contains_both_over_time(self):
        a = TPBox.for_point(0.0, (0.0, 0.0), (1.0, 0.0))
        b = TPBox.for_point(0.0, (5.0, 5.0), (-1.0, 0.5))
        c = a.cover(b)
        for t in (0.0, 1.0, 3.0, 7.5):
            ca = c.box_at(t)
            assert ca.contains_box(a.box_at(t))
            assert ca.contains_box(b.box_at(t))

    def test_cover_rebases_to_later_ref(self):
        a = TPBox.for_point(0.0, (0.0,), (1.0,))
        b = TPBox.for_point(2.0, (10.0,), (0.0,))
        c = a.cover(b)
        assert c.ref == 2.0
        assert c.box_at(2.0).contains_point((2.0,))
        assert c.box_at(2.0).contains_point((10.0,))

    def test_integrated_volume_static(self):
        b = TPBox(0.0, (0.0, 0.0), (2.0, 3.0), (0.0, 0.0), (0.0, 0.0))
        assert b.integrated_volume(4.0) == pytest.approx(24.0)

    def test_integrated_volume_growing_exact_2d(self):
        # Extents grow linearly: volume is quadratic; Simpson is exact.
        b = TPBox(0.0, (0.0, 0.0), (1.0, 1.0), (-1.0, -1.0), (1.0, 1.0))
        # volume(u) = (1+2u)^2; integral over [0,2] = ((1+2u)^3/6)|0..2 = 20.67
        assert b.integrated_volume(2.0) == pytest.approx((5**3 - 1) / 6.0)

    def test_overlap_with_static_box(self):
        b = TPBox.for_point(0.0, (0.0, 0.0), (1.0, 0.0))
        window = Box.from_bounds((5.0, -1.0), (6.0, 1.0))
        r = b.overlap_interval_with_box(window, Interval(0.0, 100.0))
        assert r.low == pytest.approx(5.0)
        assert r.high == pytest.approx(6.0)

    def test_overlap_restricted_to_future(self):
        b = TPBox.for_point(10.0, (0.0, 0.0), (0.0, 0.0))
        window = Box.from_bounds((-1.0, -1.0), (1.0, 1.0))
        r = b.overlap_interval_with_box(window, Interval(0.0, 100.0))
        assert r.low == 10.0  # nothing before the reference time

    def test_overlap_with_moving_window_matches_sampling(self, rng):
        for _ in range(50):
            box = TPBox(
                0.0,
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
                (rng.uniform(5, 10), rng.uniform(5, 10)),
                (rng.uniform(-1, 0), rng.uniform(-1, 0)),
                (rng.uniform(0, 1), rng.uniform(0, 1)),
            )
            mw = MovingWindow(
                Interval(0.0, 8.0),
                Box.from_bounds(
                    (rng.uniform(-20, 20), rng.uniform(-20, 20)),
                    (rng.uniform(21, 40), rng.uniform(21, 40)),
                ),
                Box.from_bounds(
                    (rng.uniform(-20, 20), rng.uniform(-20, 20)),
                    (rng.uniform(21, 40), rng.uniform(21, 40)),
                ),
            )
            analytic = box.overlap_interval_with_moving_window(mw)
            for k in range(81):
                t = 8.0 * k / 80
                touching = mw.window_at(t).overlaps(box.box_at(t))
                if analytic.is_empty:
                    if touching:
                        # Must be a grazing contact.
                        inter = mw.window_at(t).intersect(box.box_at(t))
                        assert inter.volume() < 1e-6
                elif analytic.low + 1e-9 < t < analytic.high - 1e-9:
                    assert touching


class TestTPRTree:
    def test_invalid_parameters(self):
        with pytest.raises(IndexStructureError):
            TPRTree(dims=0)
        with pytest.raises(IndexStructureError):
            TPRTree(horizon=0.0)
        with pytest.raises(IndexStructureError):
            TPRTree(max_entries=2)

    def test_insert_and_contains(self, rng):
        tree = TPRTree(dims=2, max_entries=8)
        for rec in moving_population(rng, 100):
            tree.insert(rec)
        assert len(tree) == 100
        assert 42 in tree and 100 not in tree

    def test_duplicate_insert_rejected(self, rng):
        tree = TPRTree(dims=2)
        rec = moving_population(rng, 1)[0]
        tree.insert(rec)
        with pytest.raises(IndexStructureError):
            tree.insert(rec)

    def test_timeslice_matches_brute_force(self, rng):
        tree = TPRTree(dims=2, max_entries=8, horizon=5.0)
        population = moving_population(rng, 300)
        for rec in population:
            tree.insert(rec)
        for _ in range(10):
            t = rng.uniform(0.0, 6.0)
            x0, y0 = rng.uniform(0, 80), rng.uniform(0, 80)
            window = Box.from_bounds((x0, y0), (x0 + 15, y0 + 15))
            got = {r.object_id for r in tree.timeslice_search(t, window)}
            want = {
                r.object_id
                for r in population
                if window.contains_point(r.motion.location(t))
            }
            assert got == want

    def test_update_moves_object(self, rng):
        tree = TPRTree(dims=2, max_entries=8)
        population = moving_population(rng, 50)
        for rec in population:
            tree.insert(rec)
        moved = CurrentMotion(
            7, LinearMotion(2.0, (90.0, 90.0), (0.0, 0.0))
        )
        tree.update(moved)
        assert len(tree) == 50
        window = Box.from_bounds((89.0, 89.0), (91.0, 91.0))
        assert 7 in {r.object_id for r in tree.timeslice_search(3.0, window)}

    def test_delete(self, rng):
        tree = TPRTree(dims=2, max_entries=8)
        population = moving_population(rng, 60)
        for rec in population:
            tree.insert(rec)
        assert tree.delete(5)
        assert not tree.delete(5)
        assert len(tree) == 59
        assert 5 not in {r.object_id for r in tree.all_records()}

    def test_delete_everything(self, rng):
        tree = TPRTree(dims=2, max_entries=8)
        for rec in moving_population(rng, 40):
            tree.insert(rec)
        for oid in range(40):
            assert tree.delete(oid)
        assert len(tree) == 0

    def test_stream_of_updates_stays_searchable(self, rng):
        """The TPR lifecycle: objects keep reporting new motions."""
        tree = TPRTree(dims=2, max_entries=8, horizon=3.0)
        population = {r.object_id: r for r in moving_population(rng, 120)}
        for rec in population.values():
            tree.insert(rec)
        t = 0.0
        for round_no in range(5):
            t += 1.0
            for oid in rng.sample(sorted(population), 30):
                pos = population[oid].motion.location(t)
                new = CurrentMotion(
                    oid,
                    LinearMotion(
                        t, pos, (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                    ),
                )
                tree.update(new)
                population[oid] = new
        window = Box.from_bounds((20.0, 20.0), (70.0, 70.0))
        got = {r.object_id for r in tree.timeslice_search(t + 1.0, window)}
        want = {
            oid
            for oid, r in population.items()
            if window.contains_point(r.motion.location(t + 1.0))
        }
        assert got == want


class TestTPRPDQ:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = random.Random(0xBEEF)
        tree = TPRTree(dims=2, max_entries=8, horizon=6.0)
        population = moving_population(rng, 400)
        for rec in population:
            tree.insert(rec)
        trajectory = QueryTrajectory.linear(
            1.0, 6.0, (30.0, 50.0), (3.0, 0.0), (6.0, 6.0)
        )
        return tree, population, trajectory

    def test_matches_brute_force(self, setup):
        tree, population, trajectory = setup
        engine = TPRPDQEngine(tree, trajectory)
        span = trajectory.time_span
        got = {i.object_id for i in engine.window(span.low, span.high)}
        want = set()
        for rec in population:
            seg = rec.motion.segment(span.high)
            from repro.geometry.trapezoid import moving_window_segment_overlap

            for mw in trajectory.segments:
                if not moving_window_segment_overlap(mw, seg).is_empty:
                    want.add(rec.object_id)
                    break
        assert got == want

    def test_appearance_order(self, setup):
        tree, _, trajectory = setup
        engine = TPRPDQEngine(tree, trajectory)
        span = trajectory.time_span
        items = engine.window(span.low, span.high)
        starts = [i.appears_at for i in items]
        assert starts == sorted(starts)

    def test_each_node_read_once(self, setup):
        tree, _, trajectory = setup
        engine = TPRPDQEngine(tree, trajectory)
        span = trajectory.time_span
        engine.window(span.low, span.high)

        total_nodes = 0
        stack = [tree.root_id]
        while stack:
            node = tree.disk.read(stack.pop())
            total_nodes += 1
            if not node.is_leaf:
                stack.extend(e.child_id for e in node.entries)
        assert engine.cost.total_reads <= total_nodes

    def test_dims_mismatch(self, setup):
        tree, _, _ = setup
        bad = QueryTrajectory.linear(0.0, 1.0, (0.0,), (1.0,), (1.0,))
        with pytest.raises(QueryError):
            TPRPDQEngine(tree, bad)

    def test_incremental_windows(self, setup):
        tree, _, trajectory = setup
        engine = TPRPDQEngine(tree, trajectory)
        span = trajectory.time_span
        mid = span.midpoint
        early = engine.window(span.low, mid)
        late = engine.window(mid, span.high)
        whole = TPRPDQEngine(tree, trajectory).window(span.low, span.high)
        assert len(early) + len(late) == len(whole)
        for item in early:
            assert item.appears_at <= mid + 1e-9

class TestMovingWindowOverlapBoundaries:
    """Closed-endpoint semantics of ``overlap_interval_with_moving_window``.

    These pin the scalar reference's boundary behaviour — grazing
    contact is a zero-width (instantaneous, non-empty) overlap — so the
    batch kernels have an exact spec to differ against.
    """

    @staticmethod
    def static_window(lo, hi, t0, t1):
        box_lo, box_hi = (lo,), (hi,)
        return MovingWindow(
            Interval(t0, t1),
            Box.from_bounds(box_lo, box_hi),
            Box.from_bounds(box_lo, box_hi),
        )

    def test_grazing_contact_is_instantaneous(self):
        # box [0,1] moving right at 1; static window [3,4]: the box high
        # edge reaches 3 exactly at t=2, and the box leaves at t=4+... —
        # shrink the window's time span to end exactly at first contact
        b = TPBox(0.0, (0.0,), (1.0,), (1.0,), (1.0,))
        w = self.static_window(3.0, 4.0, 0.0, 2.0)
        r = b.overlap_interval_with_moving_window(w)
        assert r == Interval(2.0, 2.0)
        assert not r.is_empty

    def test_contact_one_instant_too_late_is_empty(self):
        b = TPBox(0.0, (0.0,), (1.0,), (1.0,), (1.0,))
        import math

        t_end = math.nextafter(2.0, 0.0)
        w = self.static_window(3.0, 4.0, 0.0, t_end)
        assert b.overlap_interval_with_moving_window(w).is_empty

    def test_window_before_box_reference_is_clipped(self):
        # TP boxes only bound the present/future: overlap clips to
        # [ref, inf) even when the window span starts earlier
        b = TPBox(5.0, (0.0,), (1.0,), (0.0,), (0.0,))
        w = self.static_window(0.0, 2.0, 0.0, 10.0)
        assert b.overlap_interval_with_moving_window(w) == Interval(5.0, 10.0)
        before = self.static_window(0.0, 2.0, 0.0, 4.0)
        assert b.overlap_interval_with_moving_window(before).is_empty

    def test_everything_at_rest_full_span_or_nothing(self):
        b = TPBox(0.0, (0.0,), (1.0,), (0.0,), (0.0,))
        inside = self.static_window(0.5, 2.0, 1.0, 7.0)
        assert b.overlap_interval_with_moving_window(inside) == Interval(1.0, 7.0)
        outside = self.static_window(2.0, 3.0, 1.0, 7.0)
        assert b.overlap_interval_with_moving_window(outside).is_empty

    def test_touching_at_rest_is_the_whole_span(self):
        # window low edge equals box high edge: contact for the entire
        # span, not an instant (closed intervals)
        b = TPBox(0.0, (0.0,), (1.0,), (0.0,), (0.0,))
        touching = self.static_window(1.0, 3.0, 0.0, 5.0)
        assert b.overlap_interval_with_moving_window(touching) == Interval(0.0, 5.0)

    def test_shrinking_window_crossing_box(self):
        # window narrows from [0,10] to [4,5] while the box sits at
        # [6,7]: covered early, uncovered when the upper border passes 6
        mw = MovingWindow(
            Interval(0.0, 10.0),
            Box.from_bounds((0.0,), (10.0,)),
            Box.from_bounds((4.0,), (5.0,)),
        )
        b = TPBox(0.0, (6.0,), (7.0,), (0.0,), (0.0,))
        r = b.overlap_interval_with_moving_window(mw)
        # upper border u(t) = 10 - 0.5 t reaches 6 at t = 8
        assert r == Interval(0.0, 8.0)
