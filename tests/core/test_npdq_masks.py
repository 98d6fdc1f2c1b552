"""The mask-first NPDQ traversals against the per-entry code they replaced.

``NPDQEngine.snapshot`` and ``DualTimeIndex.frontier_walk`` descend
through one page routine (``kernels.live_rows``) and touch segment
columns only for the rows that survive it.  The reference is the scalar
code both ran before (``tests/_helpers.py``): every snapshot must repeat
its items, order, visibility floats, page lists and every ``QueryCost``
field, and the walk its page list and prediction cost.  The last class
pins the mechanism rather than the clock: what a snapshot that moved by
a sliver does *not* build.
"""

from __future__ import annotations

import random

import pytest

from repro.core.npdq import NPDQEngine
from repro.core.snapshot import SnapshotQuery
from repro.core.trajectory import QueryTrajectory
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.index.pagearrays import PageArrays
from repro.storage.faults import FaultInjector
from repro.storage.metrics import QueryCost

from _helpers import ScalarNPDQEngine, make_segment, scalar_live_rows

PERIOD = 0.1


def trajectory():
    # bends once, so consecutive windows move in two directions
    return QueryTrajectory.through_waypoints(
        [1.0, 2.5, 4.0],
        [(30.0, 30.0), (60.0, 45.0), (45.0, 70.0)],
        half_extents=(14.0, 14.0),
    )


def build(segments, how):
    index = DualTimeIndex(dims=2, page_size=512)
    if how == "bulk":
        index.bulk_load(segments)
    else:
        for s in segments:
            index.insert(s)
    return index


def arrivals(rng, oid, t, center):
    """Segments reported around ``t`` near the window (some inside it)."""
    out = []
    for j in range(3):
        origin = (
            center[0] + rng.uniform(-12.0, 12.0),
            center[1] + rng.uniform(-12.0, 12.0),
        )
        velocity = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        out.append(
            make_segment(oid + j, 0, t - 0.3, t + rng.uniform(0.2, 1.5), origin, velocity)
        )
    return out


def assert_same_snapshot(got, want, engine, reference):
    assert got.items == want.items  # same order, same visibility floats
    assert got.prefetched == want.prefetched
    assert got.cost == want.cost  # every QueryCost field
    assert engine.last_loaded_pages == reference.last_loaded_pages
    assert (got.degraded, got.skipped_subtrees) == (
        want.degraded,
        want.skipped_subtrees,
    )


def run_both(segments, how, exact, fault_budget=None, faults=None, churn=True):
    """Drive the engine and the scalar reference over twin trees, one
    snapshot at a time, with the same inserts between snapshots."""
    twins = []
    for cls in (NPDQEngine, ScalarNPDQEngine):
        index = build(segments, how)
        if faults is not None:
            index.tree.disk.set_faults(faults(index))
        twins.append(cls(index, exact=exact, fault_budget=fault_budget))
    engine, reference = twins
    rng = random.Random(5)
    delivered = 0
    for step, query in enumerate(trajectory().frame_queries(PERIOD)):
        if churn and step % 4 == 3:
            fresh = arrivals(rng, 90_000 + 10 * step, query.time.low, query.window.center)
            for e in twins:
                for s in fresh:
                    e.index.insert(s)
        walks = []
        for e in twins:
            cost, failed = QueryCost(), []
            walks.append((e.predict_pages(query, cost=cost, failed=failed), cost, failed))
        assert walks[0] == walks[1]  # page list in order, prediction cost, failures
        got, want = engine.snapshot(query), reference.snapshot(query)
        assert_same_snapshot(got, want, engine, reference)
        delivered += len(got.items) + len(got.prefetched)
    assert engine.cost == reference.cost
    assert engine.skipped_subtrees == reference.skipped_subtrees
    return engine, delivered


@pytest.fixture(scope="module")
def segments(tiny_segments):
    return tiny_segments[:1200]


class TestAgainstTheScalarTraversals:
    @pytest.mark.parametrize("how", ["bulk", "inserted"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_every_snapshot_repeats_the_reference(self, segments, how, exact):
        engine, delivered = run_both(segments, how, exact)
        assert delivered > 50
        assert engine.cost.segment_tests > 0

    def test_fault_budget_run(self, segments):
        """Transient faults absorbed by the retry-from-the-bottom loop and
        a rotten page skipped after the budget: same retries, same skip,
        same degraded frames as the scalar traversal."""

        def faults(index):
            pages = []
            probe = NPDQEngine(index)
            for query in list(trajectory().frame_queries(PERIOD))[:12]:
                probe.snapshot(query)
                for pid in probe.last_loaded_pages:
                    if pid != index.tree.root_id and pid not in pages:
                        pages.append(pid)
            injector = FaultInjector()
            injector.script_read_fault(pages[1], times=1)
            injector.script_read_fault(pages[4], times=2)
            injector.script_corruption(pages[-1])
            return injector

        engine, _ = run_both(
            segments, "bulk", True, fault_budget=1, faults=faults, churn=False
        )
        assert engine.degraded and engine.skipped_subtrees


class TestWhatASliverDoesNotBuild:
    """The second snapshot moved by a sliver: almost every entry it
    examines is covered by the first, and it must not pay for those."""

    @staticmethod
    def world(segments, half, **index_kwargs):
        """An engine that has answered one snapshot, and the next query:
        the same window a tenth of a time unit later, moved by 0.25."""
        index = DualTimeIndex(dims=2, **index_kwargs)
        index.bulk_load(segments)
        engine = NPDQEngine(index)
        engine.snapshot(
            SnapshotQuery.around(Interval(2.0, 2.1), (50.0, 50.0), (half, half))
        )
        second = SnapshotQuery.around(
            Interval(2.1, 2.2), (50.25, 50.0), (half, half)
        )
        return index, engine, second

    def test_no_segment_column_for_a_leaf_without_live_rows(
        self, tiny_segments, monkeypatch
    ):
        # small pages: the descent reaches many leaves, few of them uncovered
        index, engine, second = self.world(tiny_segments, 20.0, page_size=512)
        prev = engine._prev
        built = []
        segment_batch = PageArrays.segment_batch

        def spy(arrays):
            built.append(arrays)
            return segment_batch(arrays)

        monkeypatch.setattr(PageArrays, "segment_batch", spy)
        # so that a leaf can only have got its view from this snapshot
        for pid in index.tree.disk.page_ids():
            index.tree.load_node(pid)._arrays = None
        engine.snapshot(second)
        dual = index.query_box(second.time, second.window)
        leaves = live_leaves = 0
        for pid in engine.last_loaded_pages:
            node = index.tree.load_node(pid)
            if not node.is_leaf:
                continue
            leaves += 1
            live = scalar_live_rows(node.entries, dual, prev.dual_box, prev.clock)
            live_leaves += bool(live)
            assert (node._arrays in built) == bool(live)
        assert 0 < live_leaves < leaves / 2  # the usual leaf has no live row

    def test_interval_constructions_follow_the_answers(
        self, tiny_segments, monkeypatch
    ):
        # full-size pages and a window over most of the space: a leaf holds
        # far more entries inside the window than the sliver uncovers
        index, engine, second = self.world(tiny_segments, 40.0)
        made = []
        init = Interval.__init__

        def counting(self, low, high):
            made.append(1)
            init(self, low, high)

        with monkeypatch.context() as patch:
            patch.setattr(Interval, "__init__", counting)
            result = engine.snapshot(second)
        assert result.items
        # the query's own boxes, then at most three per row that reached a
        # segment test (seen, visibility, exact) — never one per entry
        assert len(made) <= 16 + 3 * result.cost.segment_tests
        assert result.cost.distance_computations > 10 * len(made)
