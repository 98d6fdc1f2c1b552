"""The mask-first NPDQ traversals against the per-entry code they replaced.

``NPDQEngine.snapshot`` (the one-engine case of the page-major sweep,
``snapshot_all``) and ``DualTimeIndex.frontier_walk`` descend through
one page routine (``kernels.live_rows``) and touch segment columns only
for the rows that survive it.  The reference is the scalar code both ran
before (``tests/_helpers.py``): every snapshot must repeat its items,
order, visibility floats, page lists and every ``QueryCost`` field, and
the walk its page list and prediction cost.  A sweep of many engines
must give each one exactly that, too.  The last class pins the mechanism
rather than the clock: what a snapshot that moved by a sliver does
*not* build.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.npdq import NPDQEngine, snapshot_all
from repro.core.snapshot import SnapshotQuery
from repro.core.trajectory import QueryTrajectory
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.index.pagearrays import PageRows
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


class TestTheSweepIsEachEngineAlone:
    """``snapshot_all`` evaluates many engines in one page-major sweep;
    each must get exactly what it gets evaluated alone, and what the
    scalar per-entry traversal gives it — answers in order, page list in
    order, every cost count, and the memory the next tick starts from."""

    TICKS = 5

    @staticmethod
    def client(data):
        """One engine's setup: its trajectory, ``exact``, the tick it
        joins at (so some enter with history, some without) and the tick
        it is reset at, if any."""
        draw = data.draw
        center = (draw(st.floats(15.0, 85.0)), draw(st.floats(15.0, 85.0)))
        velocity = (draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)))
        half = draw(st.sampled_from([4.0, 8.0, 14.0]))
        trajectory = QueryTrajectory.linear(
            1.0, 1.0 + 6 * PERIOD, center, velocity, (half, half)
        )
        return (
            trajectory,
            draw(st.booleans()),
            draw(st.integers(0, 2)),
            draw(st.none() | st.integers(1, TestTheSweepIsEachEngineAlone.TICKS - 1)),
        )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_engine_gets_its_own_snapshot(self, segments, data):
        index = build(segments[:600], "bulk")  # all engines read this tree
        clients = [self.client(data) for _ in range(data.draw(st.integers(1, 8)))]
        swept, alone, scalar = (
            [cls(index, exact=exact) for _, exact, _, _ in clients]
            for cls in (NPDQEngine, NPDQEngine, ScalarNPDQEngine)
        )
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        for tick in range(self.TICKS):
            t0, t1 = 1.0 + tick * PERIOD, 1.0 + (tick + 1) * PERIOD
            active = [i for i, c in enumerate(clients) if c[2] <= tick]
            queries = {i: clients[i][0].frame_query(t0, t1) for i in active}
            if tick and data.draw(st.booleans()):  # fresh stamps
                center = clients[0][0].window_at(t0).center
                for s in arrivals(rng, 90_000 + 10 * tick, t0, center):
                    index.insert(s)
            for i in active:
                if clients[i][3] == tick:
                    for group in (swept, alone, scalar):
                        group[i].reset()
            results = snapshot_all([(swept[i], queries[i]) for i in active])
            for i, got in zip(active, results):
                for twin in (alone[i], scalar[i]):
                    want = twin.snapshot(queries[i])
                    assert_same_snapshot(got, want, swept[i], twin)
        for i in range(len(clients)):
            assert swept[i].cost == alone[i].cost == scalar[i].cost


class TestAFaultySweepIsEachEngineAlone:
    """One sweep of four engines, at ``fault_budget`` None, 0, 1 and 2,
    under scripted read faults: a shared internal page fails once and a
    leaf below it twice.  The sweep loads a level's pages before it
    evaluates any of them, so a failed load sits beside the level's one
    kernel call; each engine must still get exactly its run alone on a
    twin tree with the same script — answers, page list, skips,
    ``degraded``, every ``QueryCost`` count and the memory of the query."""

    TIME = Interval(2.0, 2.1)
    HALF = (6.0, 6.0)

    @classmethod
    def windows(cls, index):
        """Two windows and two pages: the one with the leaf reads the
        internal page and the leaf, the other the internal page only."""
        tree = index.tree
        parent = {}
        reads = {}
        for cx in range(10, 95, 10):
            for cy in range(10, 95, 10):
                engine = NPDQEngine(index)
                center = (float(cx), float(cy))
                engine.snapshot(SnapshotQuery.around(cls.TIME, center, cls.HALF))
                reads[center] = engine.last_loaded_pages
                for pid in engine.last_loaded_pages:
                    node = tree.load_node(pid)
                    if not node.is_leaf:
                        for k in range(len(node.entries)):
                            parent[node.entries.child_id(k)] = pid
        for with_leaf, pages in reads.items():
            for without, others in reads.items():
                for leaf in pages:
                    internal = parent.get(leaf)
                    if (
                        leaf not in others
                        and tree.load_node(leaf).is_leaf
                        and internal != tree.root_id
                        and internal in others
                    ):
                        return with_leaf, without, internal, leaf
        raise AssertionError("no window pair shares an internal page")

    def test_each_engine_gets_its_run_alone(self, segments):
        with_leaf, without, internal, leaf = self.windows(build(segments, "bulk"))

        def faulty_tree():
            index = build(segments, "bulk")
            index.tree.disk.set_faults(
                FaultInjector()
                .script_read_fault(internal, times=1)
                .script_read_fault(leaf, times=2)
            )
            return index

        budgets = (None, 0, 1, 2)
        queries = [
            SnapshotQuery.around(self.TIME, without if b is None else with_leaf, self.HALF)
            for b in budgets
        ]
        shared = faulty_tree()
        swept = [NPDQEngine(shared, fault_budget=b) for b in budgets]
        results = snapshot_all(list(zip(swept, queries)))
        for engine, query, got in zip(swept, queries, results):
            alone = NPDQEngine(faulty_tree(), fault_budget=engine.fault_budget)
            want = alone.snapshot(query)
            assert_same_snapshot(got, want, engine, alone)
            assert engine.skipped_subtrees == alone.skipped_subtrees
            assert engine.cost == alone.cost
            assert engine._prev == alone._prev
        # the script did what the test is about: None and 2 absorb both
        # faults, 0 loses the internal page, 1 the leaf
        assert [e.skipped_subtrees for e in swept] == [[], [internal], [leaf], []]
        assert [r.degraded for r in results] == [False, True, True, False]
        assert leaf in swept[3].last_loaded_pages
        assert internal in swept[0].last_loaded_pages


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
        read = []  # the pages whose segment column this snapshot reads
        segment_batch = PageRows.segment_batch

        def spy(rows):
            read.append(rows)
            return segment_batch(rows)

        monkeypatch.setattr(PageRows, "segment_batch", spy)
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
            assert any(rows is node.entries for rows in read) == bool(live)
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
