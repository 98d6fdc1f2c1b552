"""Tests for the NPDQ engine (Sect. 4.2) against brute-force oracles."""

import pytest

from repro.core.naive import NaiveEvaluator
from repro.core.npdq import NPDQEngine, snapshot_all
from repro.core.snapshot import SnapshotQuery
from repro.errors import QueryError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.geometry.segment import segment_box_overlap_interval
from repro.workload.trajectories import generate_trajectories

from _helpers import window


@pytest.fixture(scope="module")
def trajectories(tiny_config, tiny_queries):
    return generate_trajectories(
        tiny_config, tiny_queries, overlap_percent=80.0, window_side=8.0, count=4
    )


def frame_oracle(tiny_segments, query):
    qbox = query.to_native_box()
    return {
        s.key
        for s in tiny_segments
        if not segment_box_overlap_interval(s.segment, qbox).is_empty
    }


class TestCorrectness:
    def test_first_snapshot_is_complete(self, tiny_dual, tiny_segments):
        engine = NPDQEngine(tiny_dual)
        q = SnapshotQuery(Interval(3.0, 3.5), window(20, 20, 40, 40))
        result = engine.snapshot(q)
        assert {i.key for i in result.items} == frame_oracle(tiny_segments, q)

    def test_incremental_coverage(
        self, tiny_dual, tiny_segments, trajectories, tiny_queries
    ):
        """Every exact answer of frame k was delivered at frame <= k, and
        nothing outside the frame's exact answers is ever delivered."""
        period = tiny_queries.snapshot_period
        for trajectory in trajectories:
            engine = NPDQEngine(tiny_dual)
            delivered = set()
            for q in trajectory.frame_queries(period):
                result = engine.snapshot(q)
                exact = frame_oracle(tiny_segments, q)
                new_keys = {i.key for i in result.items}
                assert new_keys <= exact
                delivered |= new_keys
                delivered |= {i.key for i in result.prefetched}
                assert exact <= delivered

    def test_never_redelivers_what_previous_returned(
        self, tiny_dual, trajectories, tiny_queries
    ):
        trajectory = trajectories[0]
        engine = NPDQEngine(tiny_dual)
        prev_keys = set()
        for q in trajectory.frame_queries(tiny_queries.snapshot_period):
            result = engine.snapshot(q)
            keys = {i.key for i in result.items}
            assert not (keys & prev_keys)
            prev_keys = keys

    def test_visibility_extends_to_disappearance(
        self, tiny_dual, tiny_segments
    ):
        engine = NPDQEngine(tiny_dual)
        q = SnapshotQuery(Interval(3.0, 3.1), window(20, 20, 50, 50))
        for item in engine.snapshot(q).items:
            vis = item.visibility
            assert not vis.is_empty
            # The object really is inside the window at the midpoint.
            t = vis.midpoint
            pos = item.record.position_at(t)
            assert q.window.inflate((1e-9, 1e-9)).contains_point(pos)
            # And the interval reaches the segment's own exit.
            assert vis.high <= item.record.time.high + 1e-9

    def test_reset_forgets_history(self, tiny_dual, tiny_segments):
        engine = NPDQEngine(tiny_dual)
        q1 = SnapshotQuery(Interval(3.0, 3.2), window(20, 20, 40, 40))
        q2 = SnapshotQuery(Interval(3.2, 3.4), window(20, 20, 40, 40))
        engine.snapshot(q1)
        engine.reset()
        assert not engine.has_history
        result = engine.snapshot(q2)
        assert {i.key for i in result.items} == frame_oracle(tiny_segments, q2)


class TestDiscardability:
    def test_zero_overlap_no_harm(self, tiny_dual, tiny_config, tiny_queries):
        """At 0 % overlap NPDQ must not read more than naive."""
        trajs = generate_trajectories(
            tiny_config, tiny_queries, overlap_percent=0.0, window_side=8.0, count=3
        )
        period = tiny_queries.snapshot_period
        for trajectory in trajs:
            naive = NaiveEvaluator(tiny_dual)
            frames = naive.run(trajectory, period)
            naive_io = sum(f.cost.total_reads for f in frames)
            engine = NPDQEngine(tiny_dual)
            frames = engine.run(trajectory, period)
            npdq_io = sum(f.cost.total_reads for f in frames)
            assert npdq_io <= naive_io

    def test_subsequent_at_most_naive(
        self, tiny_dual, trajectories, tiny_queries
    ):
        period = tiny_queries.snapshot_period
        naive_total = npdq_total = 0
        for trajectory in trajectories:
            naive = NaiveEvaluator(tiny_dual)
            frames = naive.run(trajectory, period)
            naive_total += sum(f.cost.total_reads for f in frames[1:])
            engine = NPDQEngine(tiny_dual)
            frames = engine.run(trajectory, period)
            npdq_total += sum(f.cost.total_reads for f in frames[1:])
        assert npdq_total <= naive_total

    def test_first_query_equals_naive(self, tiny_dual, trajectories, tiny_queries):
        trajectory = trajectories[0]
        q = next(iter(trajectory.frame_queries(tiny_queries.snapshot_period)))
        naive = NaiveEvaluator(tiny_dual)
        naive_cost = naive.evaluate(q).cost
        engine = NPDQEngine(tiny_dual)
        npdq_cost = engine.snapshot(q).cost
        assert npdq_cost.total_reads == naive_cost.total_reads


class TestAPI:
    def test_out_of_order_snapshots_rejected(self, tiny_dual):
        engine = NPDQEngine(tiny_dual)
        engine.snapshot(SnapshotQuery(Interval(5.0, 5.5), window(0, 0, 10, 10)))
        with pytest.raises(QueryError):
            engine.snapshot(
                SnapshotQuery(Interval(4.0, 4.5), window(0, 0, 10, 10))
            )

    def test_dims_mismatch_rejected(self, tiny_dual):
        from repro.geometry.box import Box

        engine = NPDQEngine(tiny_dual)
        with pytest.raises(QueryError):
            engine.snapshot(
                SnapshotQuery(Interval(0, 1), Box.from_bounds((0.0,), (1.0,)))
            )

    def test_touching_time_extents_allowed(self, tiny_dual):
        engine = NPDQEngine(tiny_dual)
        engine.snapshot(SnapshotQuery(Interval(5.0, 5.5), window(0, 0, 10, 10)))
        engine.snapshot(SnapshotQuery(Interval(5.5, 6.0), window(0, 0, 10, 10)))

    def test_run_consumes_frames_in_order(
        self, tiny_dual, trajectories, tiny_queries
    ):
        engine = NPDQEngine(tiny_dual)
        frames = engine.run(trajectories[0], tiny_queries.snapshot_period)
        times = [f.query_time for f in frames]
        for a, b in zip(times, times[1:]):
            assert a.precedes(b)


class TestBoxExactSoundness:
    """Regression for the fuzz-found interaction between Lemma 1 and the
    exact leaf test: a diagonal mover whose bounding box overlaps P but
    whose trajectory only enters the window during Q must not be lost.
    """

    def _build(self):
        from repro.index.dualtime import DualTimeIndex
        from _helpers import make_segment

        index = DualTimeIndex(dims=2, page_size=512)
        # Background population so the sneaky segment shares a leaf with
        # plausible neighbours.
        import random

        rng = random.Random(7)
        for oid in range(80):
            index.insert(
                make_segment(
                    oid, 0,
                    rng.uniform(0, 4), rng.uniform(4.5, 8),
                    (rng.uniform(0, 30), rng.uniform(0, 30)),
                    (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                )
            )
        # The trap: moves diagonally; its BB covers the window region for
        # t in [0, 4], but the trajectory is inside the window only
        # around t = 3.5 (it passes the corner late).
        sneaky = make_segment(
            999, 0, 0.0, 4.0, (6.0, 14.0), (1.0, -1.0)
        )
        index.insert(sneaky)
        return index, sneaky

    def test_sneaky_segment_not_lost(self):
        index, sneaky = self._build()
        engine = NPDQEngine(index)
        win = window(8.0, 8.0, 12.0, 12.0)
        delivered = set()
        t = 2.0
        while t < 4.0:
            result = engine.snapshot(SnapshotQuery(Interval(t, t + 0.2), win))
            delivered |= {i.key for i in result.items}
            delivered |= {i.key for i in result.prefetched}
            qbox = SnapshotQuery(Interval(t, t + 0.2), win).to_native_box()
            if not segment_box_overlap_interval(
                sneaky.segment, qbox
            ).is_empty:
                assert sneaky.key in delivered, f"lost at frame {t}"
            t += 0.2

    def test_prefetched_items_have_usable_visibility(self):
        index, _ = self._build()
        engine = NPDQEngine(index)
        win = window(8.0, 8.0, 12.0, 12.0)
        t = 2.0
        while t < 4.0:
            result = engine.snapshot(SnapshotQuery(Interval(t, t + 0.2), win))
            for item in result.prefetched:
                assert not item.visibility.is_empty
                assert item.visibility.high >= t - 1e-9
            t += 0.2


class TestARefusedSweepIsRefusedWhole:
    """A sweep checks every member — dims, temporal order, a duplicate
    engine, one index — before it touches any engine: a refused sweep
    leaves every engine's cost, memory and page list as they were, the
    members ahead of the flawed one included."""

    @staticmethod
    def state(engine):
        return (
            engine.cost.snapshot(),
            engine._memory,
            list(engine.last_loaded_pages),
            list(engine.skipped_subtrees),
        )

    @pytest.mark.parametrize("flaw", ["dims", "order", "duplicate", "index"])
    def test_no_engine_is_touched(self, tiny_dual, tiny_segments, flaw):
        engines = [NPDQEngine(tiny_dual) for _ in range(3)]
        queries = []
        for k, engine in enumerate(engines):
            engine.snapshot(
                SnapshotQuery(Interval(3.0, 3.5), window(10 + 20 * k, 20, 30 + 20 * k, 40))
            )
            queries.append(
                SnapshotQuery(Interval(3.5, 4.0), window(12 + 20 * k, 20, 32 + 20 * k, 40))
            )
        pairs = list(zip(engines, queries))
        if flaw == "dims":
            flat = Box.from_bounds([0.0, 0.0, 0.0], [9.0, 9.0, 9.0])
            pairs.append((NPDQEngine(tiny_dual), SnapshotQuery(Interval(3.5, 4.0), flat)))
        elif flaw == "order":
            late = NPDQEngine(tiny_dual)
            late.snapshot(SnapshotQuery(Interval(5.0, 6.0), window(20, 20, 40, 40)))
            pairs.append((late, queries[0]))
        elif flaw == "duplicate":
            pairs.append((engines[0], queries[0]))
        else:
            other = DualTimeIndex(dims=2)
            other.bulk_load(tiny_segments[:200])
            pairs.append((NPDQEngine(other), queries[0]))
        assert all(e.last_loaded_pages for e in engines)
        before = [self.state(e) for e, _ in pairs]
        with pytest.raises(QueryError):
            snapshot_all(pairs)
        assert [self.state(e) for e, _ in pairs] == before
