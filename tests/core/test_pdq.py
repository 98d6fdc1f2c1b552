"""Tests for the PDQ engine (Algorithm 4.1) against brute-force oracles."""

import pytest

from repro.core.naive import NaiveEvaluator
from repro.core.pdq import PDQEngine, sweep_windows
from repro.core.trajectory import QueryTrajectory
from repro.errors import QueryError
from repro.geometry.kernels import TrajectoryTable
from repro.index.entry import LeafEntry
from repro.index.nsi import NativeSpaceIndex
from repro.motion.segment import MotionSegment
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.workload.trajectories import generate_trajectories

from _helpers import make_segment


@pytest.fixture(scope="module")
def trajectories(tiny_config, tiny_queries):
    return generate_trajectories(
        tiny_config, tiny_queries, overlap_percent=80.0, window_side=8.0, count=4
    )


def oracle(tiny_segments, trajectory):
    """All (segment, visibility TimeSet) pairs by brute force."""
    out = {}
    for s in tiny_segments:
        ts = trajectory.segment_overlap(s.segment)
        if not ts.is_empty:
            out[s.key] = ts
    return out


class TestCorrectness:
    def test_exact_answer_set_and_visibility(
        self, tiny_native, tiny_segments, trajectories, tiny_queries
    ):
        for trajectory in trajectories:
            want = oracle(tiny_segments, trajectory)
            with PDQEngine(tiny_native, trajectory, track_updates=False) as pdq:
                frames = pdq.run(tiny_queries.snapshot_period)
            got = {}
            for frame in frames:
                for item in frame.items:
                    got.setdefault(item.key, []).append(item.visibility)
            assert set(got) == set(want)
            for key, intervals in got.items():
                assert sorted(intervals, key=lambda i: i.low) == list(
                    want[key].components
                )

    def test_answers_ordered_by_appearance(
        self, tiny_native, trajectories, tiny_queries
    ):
        trajectory = trajectories[0]
        with PDQEngine(tiny_native, trajectory, track_updates=False) as pdq:
            span = trajectory.time_span
            items = pdq.window(span.low, span.high)
        starts = [item.appears_at for item in items]
        assert starts == sorted(starts)

    def test_get_next_returns_none_when_exhausted(
        self, tiny_native, trajectories
    ):
        trajectory = trajectories[0]
        with PDQEngine(tiny_native, trajectory, track_updates=False) as pdq:
            span = trajectory.time_span
            while pdq.get_next(span.low, span.high) is not None:
                pass
            assert pdq.get_next(span.low, span.high) is None

    def test_no_duplicates_within_run(
        self, tiny_native, trajectories, tiny_queries
    ):
        trajectory = trajectories[0]
        with PDQEngine(tiny_native, trajectory, track_updates=False) as pdq:
            frames = pdq.run(tiny_queries.snapshot_period)
        seen = []
        for frame in frames:
            for item in frame.items:
                seen.append((item.key, item.visibility))
        assert len(seen) == len(set(seen))

    def test_future_items_not_returned_early(self, tiny_native, trajectories):
        trajectory = trajectories[0]
        span = trajectory.time_span
        mid = span.midpoint
        with PDQEngine(tiny_native, trajectory, track_updates=False) as pdq:
            early = pdq.window(span.low, mid)
            for item in early:
                assert item.appears_at <= mid + 1e-9


    def test_instantaneous_segment_at_a_key_time(self):
        # A segment valid for one instant, exactly on a key-snapshot time
        # at the window centre, is an answer like its neighbours off the key.
        trajectory = QueryTrajectory.linear(
            0.0, 4.0, (0.0, 0.0), (1.0, 0.0), (4.0, 4.0), key_count=5
        )
        index = NativeSpaceIndex(dims=2)
        index.bulk_load(
            [
                make_segment(1, 0, 2.0, 2.0, (2.0, 0.0), (0.0, 0.0)),
                make_segment(2, 0, 2.5, 2.5, (2.5, 0.0), (0.0, 0.0)),
                make_segment(3, 0, 1.5, 2.5, (1.5, 0.0), (1.0, 0.0)),
            ]
        )
        with PDQEngine(index, trajectory, track_updates=False) as pdq:
            items = pdq.window(0.0, 4.0)
        assert sorted(item.key for item in items) == [(1, 0), (2, 0), (3, 0)]

    def test_segment_touching_the_span_at_an_endpoint(self):
        # Static objects valid up to the trajectory's first key time and
        # from its last one on are inside the window at that instant
        # (closed instants): the naive frame series reports them, and so
        # must PDQ.
        trajectory = QueryTrajectory.linear(
            0.0, 4.0, (0.0, 0.0), (1.0, 0.0), (4.0, 4.0), key_count=5
        )
        index = NativeSpaceIndex(dims=2)
        index.bulk_load(
            [
                make_segment(1, 0, -1.0, 0.0, (0.0, 0.0), (0.0, 0.0)),
                make_segment(2, 0, 4.0, 5.0, (4.0, 0.0), (0.0, 0.0)),
                make_segment(3, 0, 1.0, 2.0, (1.5, 0.0), (0.0, 0.0)),
            ]
        )
        frames = NaiveEvaluator(index).run(trajectory, 1.0)
        naive = {item.key for frame in frames for item in frame.items}
        assert naive == {(1, 0), (2, 0), (3, 0)}
        with PDQEngine(index, trajectory, track_updates=False) as pdq:
            items = pdq.window(0.0, 4.0)
        assert {item.key for item in items} == naive


class TestIOOptimality:
    def test_each_node_read_at_most_once(
        self, tiny_native, trajectories, tiny_queries
    ):
        """The paper's headline guarantee: node reads <= distinct nodes."""
        trajectory = trajectories[0]
        reads = []
        original = tiny_native.tree.load_node

        def spy(page_id, cost=None):
            reads.append(page_id)
            return original(page_id, cost)

        tiny_native.tree.load_node = spy
        try:
            with PDQEngine(tiny_native, trajectory, track_updates=False) as pdq:
                pdq.run(tiny_queries.snapshot_period)
        finally:
            tiny_native.tree.load_node = original
        assert len(reads) == len(set(reads))

    def test_total_io_independent_of_frame_rate(
        self, tiny_native, trajectories
    ):
        trajectory = trajectories[1]
        totals = []
        for period in (0.5, 0.1, 0.02):
            with PDQEngine(tiny_native, trajectory, track_updates=False) as pdq:
                frames = pdq.run(period)
            totals.append(sum(f.cost.total_reads for f in frames))
        assert totals[0] == totals[1] == totals[2]

    def test_naive_io_grows_with_frame_rate(self, tiny_native, trajectories):
        trajectory = trajectories[1]
        totals = []
        for period in (0.5, 0.05):
            naive = NaiveEvaluator(tiny_native)
            frames = naive.run(trajectory, period)
            totals.append(sum(f.cost.total_reads for f in frames))
        assert totals[1] > totals[0]

    def test_pdq_beats_naive_on_subsequent_queries(
        self, tiny_native, trajectories, tiny_queries
    ):
        period = tiny_queries.snapshot_period
        naive_total = pdq_total = 0
        for trajectory in trajectories:
            naive = NaiveEvaluator(tiny_native)
            frames = naive.run(trajectory, period)
            naive_total += sum(f.cost.total_reads for f in frames[1:])
            with PDQEngine(tiny_native, trajectory, track_updates=False) as pdq:
                frames = pdq.run(period)
            pdq_total += sum(f.cost.total_reads for f in frames[1:])
        assert pdq_total < naive_total


class TestAPI:
    def test_dims_mismatch_rejected(self, tiny_native):
        bad = QueryTrajectory.linear(0.0, 1.0, (0.0,), (1.0,), (1.0,))
        with pytest.raises(QueryError):
            PDQEngine(tiny_native, bad)

    def test_closed_engine_rejects_calls(self, tiny_native, trajectories):
        pdq = PDQEngine(tiny_native, trajectories[0], track_updates=False)
        pdq.close()
        with pytest.raises(QueryError):
            pdq.get_next(0.0, 1.0)

    def test_double_close_is_safe(self, tiny_native, trajectories):
        pdq = PDQEngine(tiny_native, trajectories[0])
        pdq.close()
        pdq.close()

    def test_invalid_window_rejected(self, tiny_native, trajectories):
        with PDQEngine(tiny_native, trajectories[0], track_updates=False) as pdq:
            with pytest.raises(QueryError):
                pdq.get_next(5.0, 4.0)

    def test_context_manager_detaches_listener(self, tiny_native, trajectories):
        before = len(tiny_native.tree._listeners)
        with PDQEngine(tiny_native, trajectories[0]):
            assert len(tiny_native.tree._listeners) == before + 1
        assert len(tiny_native.tree._listeners) == before

    def test_frames_report_their_own_cost(
        self, tiny_native, trajectories, tiny_queries
    ):
        with PDQEngine(tiny_native, trajectories[0], track_updates=False) as pdq:
            frames = pdq.run(tiny_queries.snapshot_period)
        total = sum(f.cost.total_reads for f in frames)
        assert total == pdq.cost.total_reads


class TestSweepStash:
    """Components a sweep stashed for a page are used only while the
    page's rows are unwritten since."""

    @pytest.mark.parametrize("write", ["delete", "add"])
    def test_a_page_written_after_the_sweep_is_evaluated_afresh(
        self, tiny_segments, trajectories, write
    ):
        disk = DiskManager(buffer_pool=BufferPool(64))
        index = NativeSpaceIndex(dims=2, disk=disk, page_size=512)
        index.bulk_load(tiny_segments)
        trajectory = trajectories[0]
        span = trajectory.time_span
        swept = PDQEngine(index, trajectory, track_updates=False)
        demand, failed = sweep_windows(
            [(swept, span.low, span.high)],
            TrajectoryTable.stack((trajectory.kernel_table(),)),
        )
        assert failed == 0
        leaves = [
            pid for pid in demand[0]
            if index.tree.load_node(pid).is_leaf and swept._stash[pid][3]
        ]
        node = index.tree.load_node(leaves[0])
        seen = node.entries[swept._stash[leaves[0]][3][0][0]]  # a visible row
        if write == "delete":  # shifts every later row's number
            node.remove_record(seen.record.key, clock=1)
        else:  # a visible record no stashed row covers
            twin = MotionSegment(10**6, 0, seen.record.segment)
            node.add(LeafEntry(seen.box, twin), clock=1)
        # the same page under a fresh engine that never swept it
        fresh = PDQEngine(index, trajectory, track_updates=False)
        got = swept.window(span.low, span.high)
        want = fresh.window(span.low, span.high)
        key = lambda a: (a.record.key, a.visibility.low, a.visibility.high)  # noqa: E731
        assert sorted(map(key, got)) == sorted(map(key, want))
