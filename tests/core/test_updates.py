"""Tests for concurrent-update management (Sect. 4.1 / 4.2).

Uses small pages (tiny fanout) so insertions split nodes frequently,
exercising the forced-same-path / LCA-notification machinery.
"""

import random

import pytest

from repro.core.npdq import NPDQEngine
from repro.core.pdq import PDQEngine
from repro.core.snapshot import SnapshotQuery
from repro.core.trajectory import QueryTrajectory
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex

from _helpers import assert_fsck_clean, make_segment, window


def populated_native(segments, page_size=512):
    index = NativeSpaceIndex(dims=2, page_size=page_size)
    for s in segments:
        index.insert(s)
    return index


def crossing_segment(oid, t_appear, trajectory):
    """A segment that sits at the window centre at ``t_appear``."""
    center = trajectory.window_at(t_appear).center
    return make_segment(
        oid, 0, t_appear - 0.2, t_appear + 0.5, center, (0.0, 0.0)
    )


@pytest.fixture()
def base_segments(tiny_segments):
    return tiny_segments[:600]


class TestPDQUpdates:
    def test_future_insert_is_reported(self, base_segments):
        index = populated_native(base_segments)
        trajectory = QueryTrajectory.linear(
            2.0, 7.0, (40.0, 40.0), (2.0, 0.0), (4.0, 4.0)
        )
        with PDQEngine(index, trajectory) as pdq:
            pdq.window(2.0, 3.0)  # consume the first second
            new = crossing_segment(7777, 5.0, trajectory)
            index.insert(new)
            later = pdq.window(3.0, 7.0)
        assert any(i.key == (7777, 0) for i in later)

    def test_irrelevant_insert_not_reported(self, base_segments):
        index = populated_native(base_segments)
        trajectory = QueryTrajectory.linear(
            2.0, 7.0, (40.0, 40.0), (2.0, 0.0), (4.0, 4.0)
        )
        with PDQEngine(index, trajectory) as pdq:
            pdq.window(2.0, 3.0)
            far = make_segment(8888, 0, 4.0, 5.0, (95.0, 95.0), (0.0, 0.0))
            index.insert(far)
            later = pdq.window(3.0, 7.0)
        assert not any(i.object_id == 8888 for i in later)

    def test_many_inserts_no_duplicates_and_full_coverage(self, base_segments):
        """Inserts that split nodes mid-query: every future-appearing
        insert is delivered exactly once, alongside the base oracle."""
        rng = random.Random(4)
        index = populated_native(base_segments, page_size=256)
        trajectory = QueryTrajectory.linear(
            2.0, 8.0, (30.0, 40.0), (3.0, 0.0), (5.0, 5.0)
        )
        inserted = []
        delivered = []
        with PDQEngine(index, trajectory) as pdq:
            t = 2.0
            oid = 50_000
            while t < 8.0:
                delivered.extend(pdq.window(t, t + 0.5))
                # Insert a burst of records that will appear later.
                for _ in range(5):
                    appear = rng.uniform(t + 1.0, 8.5)
                    if appear >= 8.0:
                        continue
                    seg = crossing_segment(oid, appear, trajectory)
                    index.insert(seg)
                    inserted.append((seg, appear))
                    oid += 1
                t += 0.5
        assert_fsck_clean(index.tree)
        keys = [i.key for i in delivered]
        pairs = [(i.key, i.visibility) for i in delivered]
        assert len(pairs) == len(set(pairs))  # no duplicate deliveries
        for seg, appear in inserted:
            assert (seg.object_id, 0) in {k for k in keys}, (
                f"segment appearing at {appear} was never delivered"
            )

    def test_queue_rebuild_path(self, base_segments):
        """With rebuild_depth covering the whole tree every split-causing
        insert rebuilds the queue; results must still be correct."""
        index = populated_native(base_segments, page_size=256)
        trajectory = QueryTrajectory.linear(
            2.0, 6.0, (30.0, 40.0), (3.0, 0.0), (5.0, 5.0)
        )
        with PDQEngine(index, trajectory, rebuild_depth=99) as pdq:
            first = pdq.window(2.0, 3.0)
            new = crossing_segment(9999, 4.5, trajectory)
            index.insert(new)
            later = pdq.window(3.0, 6.0)
        assert any(i.key == (9999, 0) for i in later)
        pairs = [(i.key, i.visibility) for i in [*first, *later]]
        assert len(pairs) == len(set(pairs))

    def test_root_split_triggers_rebuild(self):
        """Growing the tree from scratch under a live PDQ (every insert
        may split the root of the tiny tree)."""
        index = NativeSpaceIndex(dims=2, page_size=256)
        trajectory = QueryTrajectory.linear(
            0.0, 10.0, (50.0, 50.0), (0.0, 0.0), (30.0, 30.0)
        )
        rng = random.Random(9)
        with PDQEngine(index, trajectory) as pdq:
            delivered = []
            for step in range(40):
                t = step * 0.25
                for k in range(10):
                    oid = step * 100 + k
                    x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                    index.insert(
                        make_segment(oid, 0, t + 0.5, t + 1.5, (x, y))
                    )
                delivered.extend(pdq.window(t, t + 0.25))
        pairs = [(i.key, i.visibility) for i in delivered]
        assert len(pairs) == len(set(pairs))
        assert_fsck_clean(index.tree)


class TestNPDQUpdates:
    def test_fresh_insert_not_suppressed(self, base_segments):
        """A record inserted after P ran overlaps P spatially but must
        still be delivered by Q (timestamp check, Sect. 4.2)."""
        index = DualTimeIndex(dims=2, page_size=512)
        for s in base_segments:
            index.insert(s)
        engine = NPDQEngine(index)
        win = window(30, 30, 50, 50)
        engine.snapshot(SnapshotQuery(Interval(1.0, 2.0), win))
        # The new record would also have matched P.
        index.insert(make_segment(4242, 0, 1.0, 3.0, (40.0, 40.0), (0.0, 0.0)))
        result = engine.snapshot(SnapshotQuery(Interval(2.0, 3.0), win))
        assert any(i.object_id == 4242 for i in result.items)

    def test_old_record_still_suppressed_after_unrelated_insert(
        self, base_segments
    ):
        """Inserting far away must not make Q re-deliver P's answers."""
        index = DualTimeIndex(dims=2, page_size=512)
        for s in base_segments:
            index.insert(s)
        target = make_segment(5151, 0, 1.0, 3.0, (40.0, 40.0), (0.0, 0.0))
        index.insert(target)
        engine = NPDQEngine(index)
        win = window(30, 30, 50, 50)
        first = engine.snapshot(SnapshotQuery(Interval(1.0, 2.0), win))
        assert any(i.object_id == 5151 for i in first.items)
        index.insert(make_segment(6161, 0, 2.0, 2.5, (95.0, 95.0), (0.0, 0.0)))
        second = engine.snapshot(SnapshotQuery(Interval(2.0, 3.0), win))
        assert not any(i.object_id == 5151 for i in second.items)

    def test_interleaved_inserts_full_coverage(self, base_segments):
        """Inserting between every snapshot never loses an answer."""
        rng = random.Random(5)
        index = DualTimeIndex(dims=2, page_size=256)
        for s in base_segments:
            index.insert(s)
        engine = NPDQEngine(index)
        delivered = set()
        win = window(30, 30, 46, 46)
        inserted = []
        for k in range(10):
            t0, t1 = 1.0 + k * 0.3, 1.0 + (k + 1) * 0.3
            result = engine.snapshot(SnapshotQuery(Interval(t0, t1), win))
            delivered |= {i.key for i in result.items}
            for insert_no in range(3):
                oid = 70_000 + k * 10 + insert_no
                x = rng.uniform(32, 44)
                y = rng.uniform(32, 44)
                seg = make_segment(oid, 0, t1, t1 + 1.0, (x, y), (0.0, 0.0))
                index.insert(seg)
                inserted.append(seg)
        # One final snapshot must pick up every inserted record still live.
        final = engine.snapshot(SnapshotQuery(Interval(4.0, 4.2), win))
        delivered |= {i.key for i in final.items}
        for seg in inserted:
            if seg.time.overlaps(Interval(4.0, 4.2)):
                assert seg.key in delivered
        assert_fsck_clean(index.tree)
