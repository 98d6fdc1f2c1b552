"""Tests for distance joins (future-work item (ii))."""

import math

import pytest

from repro.core.joins import (
    pair_within_distance_interval,
    proximity_alerts,
    snapshot_distance_join,
)
from repro.core.pdq import PDQEngine
from repro.core.trajectory import QueryTrajectory
from repro.errors import QueryError
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.index.nsi import NativeSpaceIndex
from repro.storage.metrics import QueryCost

from _helpers import make_segment


def seg(t0, t1, origin, velocity):
    return SpaceTimeSegment(Interval(t0, t1), origin, velocity)


class TestPairPredicate:
    def test_parallel_within(self):
        a = seg(0, 10, (0.0, 0.0), (1.0, 0.0))
        b = seg(0, 10, (0.0, 0.5), (1.0, 0.0))
        assert pair_within_distance_interval(a, b, 1.0) == Interval(0, 10)

    def test_parallel_beyond(self):
        a = seg(0, 10, (0.0, 0.0), (1.0, 0.0))
        b = seg(0, 10, (0.0, 5.0), (1.0, 0.0))
        assert pair_within_distance_interval(a, b, 1.0).is_empty

    def test_crossing_paths(self):
        # Head-on along x at combined speed 2: distance 10 at t=0.
        a = seg(0, 10, (0.0, 0.0), (1.0, 0.0))
        b = seg(0, 10, (10.0, 0.0), (-1.0, 0.0))
        r = pair_within_distance_interval(a, b, 2.0)
        assert r.low == pytest.approx(4.0)
        assert r.high == pytest.approx(6.0)

    def test_clipped_by_validity(self):
        a = seg(0, 4.5, (0.0, 0.0), (1.0, 0.0))
        b = seg(0, 10, (10.0, 0.0), (-1.0, 0.0))
        r = pair_within_distance_interval(a, b, 2.0)
        assert r == Interval(4.0, 4.5)

    def test_window_clip(self):
        a = seg(0, 10, (0.0, 0.0), (1.0, 0.0))
        b = seg(0, 10, (10.0, 0.0), (-1.0, 0.0))
        r = pair_within_distance_interval(a, b, 2.0, window=Interval(5.5, 9.0))
        assert r == Interval(5.5, 6.0)

    def test_dim_mismatch(self):
        with pytest.raises(QueryError):
            pair_within_distance_interval(
                seg(0, 1, (0.0,), (0.0,)), seg(0, 1, (0.0, 0.0), (0.0, 0.0)), 1.0
            )

    def test_negative_delta(self):
        a = seg(0, 1, (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(QueryError):
            pair_within_distance_interval(a, a, -1.0)

    def test_matches_sampling(self, rng):
        for _ in range(50):
            a = seg(
                0, 5,
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
                (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            b = seg(
                0, 5,
                (rng.uniform(-5, 5), rng.uniform(-5, 5)),
                (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            delta = rng.uniform(0.5, 4)
            r = pair_within_distance_interval(a, b, delta)
            for k in range(51):
                t = 5 * k / 50
                d = math.dist(a.position_at(t), b.position_at(t))
                if r.contains(t):
                    assert d <= delta + 1e-6
                elif d <= delta - 1e-6:
                    pytest.fail(f"missed close pair at t={t}")


class TestSnapshotJoin:
    @pytest.fixture(scope="class")
    def indexes(self, tiny_segments):
        half = len(tiny_segments) // 4
        a = NativeSpaceIndex(dims=2)
        a.bulk_load(tiny_segments[:half])
        b = NativeSpaceIndex(dims=2)
        b.bulk_load(tiny_segments[half : 2 * half])
        return a, b, tiny_segments[:half], tiny_segments[half : 2 * half]

    def test_matches_brute_force(self, indexes):
        index_a, index_b, segs_a, segs_b = indexes
        time = Interval(4.0, 4.5)
        delta = 1.5
        got = {
            (ra.key, rb.key)
            for ra, rb, _ in snapshot_distance_join(index_a, index_b, time, delta)
        }
        want = set()
        for sa in segs_a:
            for sb in segs_b:
                if not pair_within_distance_interval(
                    sa.segment, sb.segment, delta, time
                ).is_empty:
                    want.add((sa.key, sb.key))
        assert got == want

    def test_self_join_unordered_distinct(self, indexes):
        index_a, _, segs_a, _ = indexes
        time = Interval(4.0, 4.3)
        pairs = snapshot_distance_join(index_a, index_a, time, 1.0)
        seen = set()
        for ra, rb, _ in pairs:
            assert ra.object_id != rb.object_id
            key = tuple(sorted((ra.key, rb.key)))
            assert key not in seen
            seen.add(key)

    def test_cost_counted_and_bounded(self, indexes):
        index_a, index_b, _, _ = indexes
        cost = QueryCost()
        snapshot_distance_join(index_a, index_b, Interval(4.0, 4.5), 1.5, cost)
        from repro.index.stats import collect_stats

        max_nodes = (
            collect_stats(index_a.tree).total_nodes
            + collect_stats(index_b.tree).total_nodes
        )
        assert 0 < cost.total_reads <= max_nodes  # each node fetched once

    def test_invalid_args(self, indexes):
        index_a, index_b, _, _ = indexes
        with pytest.raises(QueryError):
            snapshot_distance_join(index_a, index_b, Interval(2, 1), 1.0)
        with pytest.raises(QueryError):
            snapshot_distance_join(index_a, index_b, Interval(0, 1), -1.0)


class TestSnapshotJoinStructure:
    """The pair traversal against adversarial tree shapes."""

    @staticmethod
    def build(segments, page_size):
        index = NativeSpaceIndex(dims=2, page_size=page_size)
        index.bulk_load(segments)
        return index

    @staticmethod
    def canon(pairs):
        return sorted(
            tuple(sorted((ra.key, rb.key))) for ra, rb, _ in pairs
        )

    def test_self_join_dedup_survives_node_splits(self, tiny_segments):
        """An object's segments scattered across many leaves by a small
        page size must not resurrect already-reported pairs."""
        segs = tiny_segments[: len(tiny_segments) // 2]
        flat = self.build(segs, page_size=8192)
        deep = self.build(segs, page_size=256)
        assert deep.tree.height > flat.tree.height
        time, delta = Interval(4.0, 4.6), 1.5
        got = self.canon(snapshot_distance_join(deep, deep, time, delta))
        assert len(got) == len(set(got))
        assert got == self.canon(
            snapshot_distance_join(flat, flat, time, delta)
        )

    def test_equal_height_trees(self, tiny_segments):
        half = len(tiny_segments) // 2
        a = self.build(tiny_segments[:half], page_size=512)
        b = self.build(tiny_segments[half:], page_size=512)
        assert a.tree.height == b.tree.height > 1
        time, delta = Interval(4.0, 4.5), 1.5
        got = {
            (ra.key, rb.key)
            for ra, rb, _ in snapshot_distance_join(a, b, time, delta)
        }
        want = {
            (sa.key, sb.key)
            for sa in tiny_segments[:half]
            for sb in tiny_segments[half:]
            if not pair_within_distance_interval(
                sa.segment, sb.segment, delta, time
            ).is_empty
        }
        assert got == want

    @pytest.mark.parametrize("tall_side", ["a", "b"])
    def test_mismatched_heights_descend_taller_side(
        self, tiny_segments, tall_side
    ):
        """A three-level tree against a shallow one, on either side:
        the traversal must descend the taller tree until the levels
        line up instead of pairing a leaf with an internal node."""
        half = len(tiny_segments) // 2
        tall = self.build(tiny_segments[:half], page_size=256)
        short = self.build(tiny_segments[half : half + 40], page_size=8192)
        assert tall.tree.height > short.tree.height
        a, b = (tall, short) if tall_side == "a" else (short, tall)
        segs_a, segs_b = (
            (tiny_segments[:half], tiny_segments[half : half + 40])
            if tall_side == "a"
            else (tiny_segments[half : half + 40], tiny_segments[:half])
        )
        time, delta = Interval(4.0, 4.5), 2.0
        got = {
            (ra.key, rb.key)
            for ra, rb, _ in snapshot_distance_join(a, b, time, delta)
        }
        want = {
            (sa.key, sb.key)
            for sa in segs_a
            for sb in segs_b
            if not pair_within_distance_interval(
                sa.segment, sb.segment, delta, time
            ).is_empty
        }
        assert got == want


from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_quarter = lambda lo, hi: st.integers(lo * 4, hi * 4).map(lambda n: n / 4.0)  # noqa: E731

_segment_st = st.builds(
    lambda oid, seq, t0, dt, ox, oy, vx, vy: make_segment(
        oid, seq, t0, t0 + dt, (ox, oy), (vx, vy)
    ),
    oid=st.integers(0, 15),
    seq=st.integers(0, 3),
    t0=_quarter(0, 4),
    dt=_quarter(1, 5),
    ox=_quarter(-10, 10),
    oy=_quarter(-10, 10),
    vx=_quarter(-2, 2),
    vy=_quarter(-2, 2),
)


class TestSnapshotJoinProperty:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        segs_a=st.lists(
            _segment_st, min_size=1, max_size=12, unique_by=lambda s: s.key
        ),
        segs_b=st.lists(
            _segment_st, min_size=1, max_size=12, unique_by=lambda s: s.key
        ),
        delta_q=st.integers(1, 16),
        self_join=st.booleans(),
    )
    def test_matches_brute_force(self, segs_a, segs_b, delta_q, self_join):
        delta = delta_q / 4.0 + 0.1
        time = Interval(1.0, 4.0)
        index_a = NativeSpaceIndex(dims=2, page_size=256)
        index_a.bulk_load(segs_a)
        if self_join:
            index_b, segs_b = index_a, segs_a
        else:
            index_b = NativeSpaceIndex(dims=2, page_size=256)
            index_b.bulk_load(segs_b)
        found = snapshot_distance_join(index_a, index_b, time, delta)
        if self_join:
            got = {
                tuple(sorted((ra.key, rb.key))) for ra, rb, _ in found
            }
            want = {
                tuple(sorted((sa.key, sb.key)))
                for i, sa in enumerate(segs_a)
                for sb in segs_a[i + 1 :]
                if sa.object_id != sb.object_id
                and not pair_within_distance_interval(
                    sa.segment, sb.segment, delta, time
                ).is_empty
            }
            assert len(got) == len(found)  # dedup held
        else:
            got = {(ra.key, rb.key) for ra, rb, _ in found}
            want = {
                (sa.key, sb.key)
                for sa in segs_a
                for sb in segs_b
                if not pair_within_distance_interval(
                    sa.segment, sb.segment, delta, time
                ).is_empty
            }
        assert got == want


class TestProximityAlerts:
    def test_alerts_from_pdq_answers(self, tiny_native, tiny_segments):
        trajectory = QueryTrajectory.linear(
            3.0, 8.0, (40.0, 40.0), (2.0, 0.0), (6.0, 6.0)
        )
        with PDQEngine(tiny_native, trajectory, track_updates=False) as pdq:
            items = pdq.window(3.0, 8.0)
        alerts = proximity_alerts(items, delta=1.0)
        for a, b, interval in alerts:
            assert a < b
            assert not interval.is_empty
            # Spot-check the midpoint distance.
            t = interval.midpoint
            rec_a = next(i.record for i in items if i.object_id == a)
            rec_b = next(i.record for i in items if i.object_id == b)
            d = math.dist(rec_a.position_at(t), rec_b.position_at(t))
            assert d <= 1.0 + 1e-6

    def test_no_self_alerts(self):
        items = []
        from repro.core.results import AnswerItem

        rec1 = make_segment(1, 0, 0.0, 2.0, (0.0, 0.0), (0.0, 0.0))
        rec1b = make_segment(1, 1, 2.0, 4.0, (0.0, 0.0), (0.0, 0.0))
        items = [
            AnswerItem(rec1, Interval(0.0, 2.0)),
            AnswerItem(rec1b, Interval(2.0, 4.0)),
        ]
        assert proximity_alerts(items, delta=5.0) == []

    def test_negative_delta_rejected(self):
        with pytest.raises(QueryError):
            proximity_alerts([], -1.0)
