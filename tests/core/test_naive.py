"""Tests for the naive repeated-snapshot baseline."""

from repro.core.naive import NaiveEvaluator
from repro.core.snapshot import SnapshotQuery
from repro.geometry.interval import Interval
from repro.geometry.segment import segment_box_overlap_interval
from repro.workload.trajectories import generate_trajectories

from _helpers import window


class TestEvaluate:
    def test_matches_brute_force(self, tiny_native, tiny_segments):
        naive = NaiveEvaluator(tiny_native)
        q = SnapshotQuery(Interval(4.0, 4.5), window(10, 10, 40, 40))
        got = {i.key for i in naive.evaluate(q).items}
        qbox = q.to_native_box()
        want = {
            s.key
            for s in tiny_segments
            if not segment_box_overlap_interval(s.segment, qbox).is_empty
        }
        assert got == want

    def test_works_on_dual_index_too(self, tiny_dual, tiny_native):
        q = SnapshotQuery(Interval(4.0, 4.5), window(10, 10, 40, 40))
        a = {i.key for i in NaiveEvaluator(tiny_native).evaluate(q).items}
        b = {i.key for i in NaiveEvaluator(tiny_dual).evaluate(q).items}
        assert a == b

    def test_cost_delta_per_query(self, tiny_native):
        naive = NaiveEvaluator(tiny_native)
        q = SnapshotQuery(Interval(4.0, 4.5), window(10, 10, 40, 40))
        r1 = naive.evaluate(q)
        r2 = naive.evaluate(q)
        # Identical queries cost the same; the evaluator's accumulator
        # holds the sum.
        assert r1.cost.total_reads == r2.cost.total_reads
        assert naive.cost.total_reads == r1.cost.total_reads * 2

    def test_inexact_superset(self, tiny_native):
        q = SnapshotQuery(Interval(4.0, 4.5), window(10, 10, 40, 40))
        exact = {i.key for i in NaiveEvaluator(tiny_native).evaluate(q).items}
        loose = {
            i.key
            for i in NaiveEvaluator(tiny_native, exact=False).evaluate(q).items
        }
        assert exact <= loose

    def test_run_produces_one_result_per_frame(
        self, tiny_native, tiny_config, tiny_queries
    ):
        traj = generate_trajectories(
            tiny_config, tiny_queries, 80.0, 8.0, count=1
        )[0]
        frames = NaiveEvaluator(tiny_native).run(traj, 0.1)
        assert len(frames) == len(traj.frame_times(0.1)) - 1

    def test_subsequent_cost_flat_in_overlap(self, tiny_native):
        """Naive cost does not benefit from overlap (the paper's point)."""
        q = SnapshotQuery(Interval(4.0, 4.1), window(30, 30, 38, 38))
        naive = NaiveEvaluator(tiny_native)
        first = naive.evaluate(q).cost.total_reads
        again = naive.evaluate(
            SnapshotQuery(Interval(4.1, 4.2), window(30, 30, 38, 38))
        ).cost.total_reads
        # 100% overlapping successor costs about the same as the first.
        assert abs(first - again) <= max(2, first * 0.5)
