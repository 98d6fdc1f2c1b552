"""The paper: "d is 2 or 3".  Everything must work unchanged in 3-d —
airborne observers in the situational-awareness scenario.
"""

import random

import pytest

from repro.core.naive import NaiveEvaluator
from repro.core.npdq import NPDQEngine
from repro.core.pdq import PDQEngine
from repro.core.trajectory import QueryTrajectory
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment, segment_box_overlap_interval
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.index.stats import verify_integrity
from repro.motion.segment import MotionSegment


@pytest.fixture(scope="module")
def segments3d():
    rng = random.Random(77)
    out = []
    for oid in range(400):
        t = 0.0
        pos = [rng.uniform(0, 50) for _ in range(3)]
        seq = 0
        while t < 12.0:
            dur = rng.uniform(0.5, 1.5)
            vel = tuple(rng.uniform(-1, 1) for _ in range(3))
            out.append(
                MotionSegment(
                    oid,
                    seq,
                    SpaceTimeSegment(Interval(t, t + dur), tuple(pos), vel),
                )
            )
            pos = [p + v * dur for p, v in zip(pos, vel)]
            t += dur
            seq += 1
    return out


@pytest.fixture(scope="module")
def native3d(segments3d):
    index = NativeSpaceIndex(dims=3)
    index.bulk_load(segments3d)
    return index


@pytest.fixture(scope="module")
def dual3d(segments3d):
    index = DualTimeIndex(dims=3)
    index.bulk_load(segments3d)
    return index


def brute(segments, time, window):
    qbox = Box([time] + list(window))
    return {
        s.key
        for s in segments
        if not segment_box_overlap_interval(s.segment, qbox).is_empty
    }


class Test3D:
    def test_fanouts_shrink_with_dimension(self, native3d, dual3d):
        assert native3d.tree.axes == 4
        assert native3d.tree.max_internal == 113
        assert native3d.tree.max_leaf == 102
        assert dual3d.tree.axes == 5
        assert dual3d.tree.max_internal == 92

    def test_integrity(self, native3d, dual3d):
        verify_integrity(native3d.tree)
        verify_integrity(dual3d.tree)

    def test_snapshot_matches_brute_force(self, native3d, dual3d, segments3d):
        time = Interval(4.0, 4.5)
        window = Box.from_bounds((10, 10, 10), (35, 35, 35))
        want = brute(segments3d, time, window)
        assert {
            r.key for r, _ in native3d.snapshot_search(time, window)
        } == want
        assert {
            r.key for r, _ in dual3d.snapshot_search(time, window)
        } == want

    def test_pdq_3d_matches_oracle(self, native3d, segments3d):
        trajectory = QueryTrajectory.linear(
            2.0, 8.0, (15.0, 20.0, 25.0), (2.0, 0.5, -0.5), (5.0, 5.0, 5.0)
        )
        with PDQEngine(native3d, trajectory, track_updates=False) as pdq:
            frames = pdq.run(0.2)
        got = {i.key for f in frames for i in f.items}
        want = {
            s.key
            for s in segments3d
            if not trajectory.segment_overlap(s.segment).is_empty
        }
        assert got == want

    def test_npdq_3d_coverage(self, dual3d, segments3d):
        trajectory = QueryTrajectory.linear(
            2.0, 6.0, (20.0, 20.0, 20.0), (1.5, 0.0, 0.0), (6.0, 6.0, 6.0)
        )
        engine = NPDQEngine(dual3d)
        delivered = set()
        for q in trajectory.frame_queries(0.2):
            result = engine.snapshot(q)
            delivered |= {i.key for i in result.items}
            delivered |= {i.key for i in result.prefetched}
            assert brute(segments3d, q.time, q.window) <= delivered

    def test_pdq_cheaper_than_naive_3d(self, native3d):
        trajectory = QueryTrajectory.linear(
            2.0, 8.0, (15.0, 20.0, 25.0), (2.0, 0.5, -0.5), (5.0, 5.0, 5.0)
        )
        naive_frames = NaiveEvaluator(native3d).run(trajectory, 0.2)
        naive_io = sum(f.cost.total_reads for f in naive_frames)
        with PDQEngine(native3d, trajectory, track_updates=False) as pdq:
            frames = pdq.run(0.2)
        pdq_io = sum(f.cost.total_reads for f in frames)
        assert pdq_io < naive_io
