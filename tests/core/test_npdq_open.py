"""Tests for the open-ended-temporal NPDQ variant (Sect. 4.2 option i)."""

import pytest

from repro.core.npdq import NPDQEngine
from repro.core.npdq_open import OpenEndedNPDQEngine
from repro.core.snapshot import SnapshotQuery
from repro.errors import QueryError
from repro.geometry.interval import Interval
from repro.geometry.segment import segment_box_overlap_interval
from repro.workload.trajectories import generate_trajectories

from _helpers import window


@pytest.fixture(scope="module")
def trajectory(tiny_config, tiny_queries):
    return generate_trajectories(
        tiny_config, tiny_queries, overlap_percent=80.0, window_side=8.0, count=1
    )[0]


def exact_answers(segments, query):
    qbox = query.to_native_box()
    return {
        s.key
        for s in segments
        if not segment_box_overlap_interval(s.segment, qbox).is_empty
    }


class TestCorrectness:
    def test_covers_every_frame(
        self, tiny_native, tiny_segments, trajectory, tiny_queries
    ):
        """Cumulative deliveries always cover each frame's exact answers
        (anticipation means coverage arrives early, never late)."""
        engine = OpenEndedNPDQEngine(tiny_native)
        delivered = set()
        for q in trajectory.frame_queries(tiny_queries.snapshot_period):
            delivered |= {i.key for i in engine.snapshot(q).items}
            missing = exact_answers(tiny_segments, q) - delivered
            assert not missing

    def test_first_snapshot_anticipates_future(self, tiny_native, tiny_segments):
        engine = OpenEndedNPDQEngine(tiny_native)
        q = SnapshotQuery(Interval(3.0, 3.1), window(30, 30, 50, 50))
        got = {i.key for i in engine.snapshot(q).items}
        # Everything in the window now...
        assert exact_answers(tiny_segments, q) <= got
        # ...plus future passers-by of the same (static) window.
        future = SnapshotQuery(Interval(8.0, 8.1), window(30, 30, 50, 50))
        assert exact_answers(tiny_segments, future) <= got

    def test_no_redelivery_of_prev_answers(
        self, tiny_native, trajectory, tiny_queries
    ):
        engine = OpenEndedNPDQEngine(tiny_native)
        prev_keys: set = set()
        for q in trajectory.frame_queries(tiny_queries.snapshot_period):
            keys = {i.key for i in engine.snapshot(q).items}
            assert not (keys & prev_keys)
            prev_keys = keys

    def test_visibility_is_future_overlap(self, tiny_native):
        engine = OpenEndedNPDQEngine(tiny_native)
        q = SnapshotQuery(Interval(3.0, 3.1), window(30, 30, 50, 50))
        for item in engine.snapshot(q).items:
            assert item.visibility.low >= 3.0 - 1e-9
            t = item.visibility.midpoint
            pos = item.record.position_at(t)
            assert q.window.inflate((1e-9, 1e-9)).contains_point(pos)

    def test_reset(self, tiny_native, tiny_segments):
        engine = OpenEndedNPDQEngine(tiny_native)
        q1 = SnapshotQuery(Interval(3.0, 3.2), window(30, 30, 40, 40))
        q2 = SnapshotQuery(Interval(3.2, 3.4), window(30, 30, 40, 40))
        engine.snapshot(q1)
        engine.reset()
        assert not engine.has_history
        got = {i.key for i in engine.snapshot(q2).items}
        assert exact_answers(tiny_segments, q2) <= got

    def test_out_of_order_rejected(self, tiny_native):
        engine = OpenEndedNPDQEngine(tiny_native)
        engine.snapshot(SnapshotQuery(Interval(5.0, 5.5), window(0, 0, 10, 10)))
        with pytest.raises(QueryError):
            engine.snapshot(
                SnapshotQuery(Interval(4.0, 4.5), window(0, 0, 10, 10))
            )


class TestComparison:
    def test_stationary_window_becomes_cheap(self, tiny_native):
        """For a *stationary* window — the regime option (i) suits —
        subsequent open-ended snapshots read almost nothing."""
        engine = OpenEndedNPDQEngine(tiny_native)
        win = window(40, 40, 48, 48)
        costs = []
        for k in range(10):
            q = SnapshotQuery(Interval(3.0 + k * 0.1, 3.0 + (k + 1) * 0.1), win)
            costs.append(engine.snapshot(q).cost.total_reads)
        assert costs[0] > 0
        # After the first (prefetching) snapshot, a stationary window is
        # fully covered: later frames touch at most the root.
        assert all(c <= 1 for c in costs[1:])

    def test_anticipation_supersets_dual_axis_deliveries(
        self, tiny_native, tiny_dual, trajectory, tiny_queries
    ):
        """The open-ended scheme anticipates: over a whole dynamic query
        it delivers a superset of what the dual-axis scheme delivers
        on time (which is exactly the per-frame answers)."""
        period = tiny_queries.snapshot_period
        open_engine = OpenEndedNPDQEngine(tiny_native)
        open_keys = {
            i.key
            for f in open_engine.run(trajectory, period)
            for i in f.items
        }
        dual_engine = NPDQEngine(tiny_dual)
        dual_keys = {
            i.key
            for f in dual_engine.run(trajectory, period)
            for i in f.items
        }
        assert dual_keys <= open_keys
