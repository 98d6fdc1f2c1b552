"""NPDQ batch reads: the submitted frame, the walk, the sweep, faults.

The shared scan can only batch a non-predictive client's reads if the
client's page set is known *before* its answers are handed out.  In the
closed tick the frame is: it was submitted before the batch phase runs,
so the batch phase evaluates it.  These tests pin the coverage-pruned
prediction walk (:meth:`NPDQEngine.predict_pages`, which no serving
path calls any more), the NPDQ sweep's demand and the scheduler
batching — including the safety half of the design: a fault on a page
the sweep reads for several clients is retried once for all of them,
and what it still costs is each client's own policy — and that an auto
session names no dual-tree demand at all.
"""

import pytest

from repro.core.npdq import NPDQEngine
from repro.core.session import DynamicQuerySession, SessionMode
from repro.core.trajectory import QueryTrajectory
from repro.errors import CorruptPageError
from repro.server import (
    QueryBroker,
    ServerConfig,
    SimulatedClock,
)
from repro.server.session import NPDQSession
from repro.storage.faults import FaultInjector
from repro.workload.observers import path_of

START, PERIOD, TICKS = 1.0, 0.1, 20


def accelerating_trajectory(ticks=TICKS, acc=8.0):
    """A constant-acceleration observer sampled at every tick boundary:
    no frame's window can be extrapolated from the frames before it."""
    times = [START + k * PERIOD for k in range(ticks + 2)]
    centers = [(4.0 + 0.5 * acc * (t - START) ** 2, 16.0) for t in times]
    return QueryTrajectory.through_waypoints(times, centers, (4.0, 4.0))


def make_broker(native, dual, **config_kw):
    config_kw.setdefault("queue_depth", 100)
    return QueryBroker(
        native,
        dual=dual,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(**config_kw),
    )


def isolated_npdq_frames(build_dual, trajectory, ticks=TICKS):
    """Per-tick (items, prefetched) of one privately driven NPDQ client."""
    session = NPDQSession("iso", build_dual(), trajectory, queue_depth=1000)
    clock = SimulatedClock(start=START, period=PERIOD)
    frames = []
    for tick in clock.ticks(ticks):
        result = session.serve(tick)
        frames.append((result.items, result.prefetched))
    return frames


class TestPredictionWalk:
    def ticks(self, n=TICKS):
        return SimulatedClock(start=START, period=PERIOD).ticks(n)

    def test_walk_is_superset_of_evaluation(self, build_dual, fleet):
        (trajectory,) = fleet(1)
        engine = NPDQEngine(build_dual())
        for tick in self.ticks():
            query = trajectory.frame_query(tick.start, tick.end)
            pages = set(engine.predict_pages(query))
            engine.snapshot(query)
            assert set(engine.last_loaded_pages) <= pages

    def test_walk_is_read_only(self, build_dual, fleet):
        # Interleaving prediction walks must not perturb the engine:
        # same answers, same engine-side cost, as a walk-free twin.
        (trajectory,) = fleet(1)
        plain = NPDQEngine(build_dual())
        walked = NPDQEngine(build_dual())
        for tick in self.ticks():
            query = trajectory.frame_query(tick.start, tick.end)
            walked.predict_pages(query)
            a = plain.snapshot(query)
            b = walked.snapshot(query)
            assert a.items == b.items
            assert a.prefetched == b.prefetched
        assert plain.cost.internal_reads == walked.cost.internal_reads
        assert plain.cost.leaf_reads == walked.cost.leaf_reads

    def test_session_predictions_converge_to_motion(self, build_dual, fleet):
        # The batch phase evaluates the frame the tick serves, so there is
        # nothing to converge to: on every tick, the first included, the
        # demand is exactly the page list evaluation read.
        (trajectory,) = fleet(1)
        session = NPDQSession("c", build_dual(), trajectory, queue_depth=100)
        for tick in self.ticks():
            ((_, pages),) = session.frontier_demand(tick)
            pages = list(pages)
            session.serve(tick)
            assert pages == session.engine.last_loaded_pages


def shared_page(build_dual, trajectory):
    """A non-root dual-tree page the first tick's frame of ``trajectory``
    reads (so every client on that frame shares it)."""
    probe = NPDQSession("probe", build_dual(), trajectory, queue_depth=10)
    probe.serve(SimulatedClock(start=START, period=PERIOD).next_tick())
    root = probe.engine.index.tree.root_id
    return next(p for p in probe.engine.last_loaded_pages if p != root)


def faulty_frames(build_dual, trajectory, plan, fault_budget):
    """Per-tick frames of one isolated client under the fault ``plan``."""
    dual = build_dual()
    dual.tree.disk.set_faults(FaultInjector.parse(plan))
    session = NPDQSession(
        "iso", dual, trajectory, queue_depth=1000, fault_budget=fault_budget
    )
    clock = SimulatedClock(start=START, period=PERIOD)
    return [
        (r.items, r.prefetched, r.degraded)
        for r in (session.serve(tick) for tick in clock.ticks(TICKS))
    ]


class TestMispredictSafety:
    """Faults on a page the sweep reads for several clients at once."""

    def test_deliberate_mispredict_only_costs_demand_fetches(
        self, build_native, build_dual, fleet
    ):
        # A one-shot read fault on the root and on a page below it, both
        # read for two clients at once: the sweep retries each after the
        # rest, so no client sees it — the answers stay tick-for-tick
        # identical.
        trajectories = fleet(2, mode="identical")
        baseline = isolated_npdq_frames(build_dual, trajectories[0])
        page = shared_page(build_dual, trajectories[0])
        dual = build_dual()
        broker = make_broker(build_native(), dual)
        sessions = [
            broker.register("npdq", f"c{i}", trajectory=t)
            for i, t in enumerate(trajectories)
        ]
        dual.tree.disk.set_faults(
            FaultInjector.parse(f"read@{dual.tree.root_id};read@{page}")
        )
        broker.run(TICKS)
        assert dual.tree.disk.faults.stats.read_faults == 2
        for session in sessions:
            frames = session.poll()
            assert [(r.items, r.prefetched) for r in frames] == baseline
            assert not any(r.degraded for r in frames)

    def test_persistent_fault_raises_without_budget(
        self, build_native, build_dual, fleet
    ):
        trajectories = fleet(2, mode="identical")
        page = shared_page(build_dual, trajectories[0])
        dual = build_dual()
        broker = make_broker(build_native(), dual)
        for i, t in enumerate(trajectories):
            broker.register("npdq", f"c{i}", trajectory=t)
        dual.tree.disk.set_faults(FaultInjector.parse(f"corrupt@{page}"))
        with pytest.raises(CorruptPageError):
            broker.run_tick()
        # the tick was ended: neither tree's pool is still held
        assert not broker.native.tree.disk.buffer_pool.held
        assert not dual.tree.disk.buffer_pool.held

    def test_persistent_fault_degrades_per_client(
        self, build_native, build_dual, fleet
    ):
        # Each client applies its own budget to the shared page: each
        # one's frames are those of the same client alone under the same
        # fault — a flagged subset of the fault-free answers.
        trajectories = fleet(3, mode="identical")
        page = shared_page(build_dual, trajectories[0])
        plan = f"corrupt@{page}"
        clean = isolated_npdq_frames(build_dual, trajectories[0])
        clean_keys = {i.key for items, pre in clean for i in [*items, *pre]}
        dual = build_dual()
        broker = make_broker(build_native(), dual)
        budgets = (0, 1, 3)
        sessions = [
            broker.register("npdq", f"c{b}", trajectory=t, fault_budget=b)
            for b, t in zip(budgets, trajectories)
        ]
        dual.tree.disk.set_faults(FaultInjector.parse(plan))
        broker.run(TICKS)
        for budget, session in zip(budgets, sessions):
            frames = [
                (r.items, r.prefetched, r.degraded) for r in session.poll()
            ]
            assert frames == faulty_frames(
                build_dual, trajectories[0], plan, budget
            )
            assert frames[0][2] and all(degraded for *_, degraded in frames)
            assert {
                i.key for items, pre, _ in frames for i in [*items, *pre]
            } <= clean_keys
            assert session.engine.skipped_subtrees

    def test_accurate_fleet_has_zero_mispredict_rate(
        self, build_native, build_dual, fleet
    ):
        broker = make_broker(build_native(), build_dual())
        for i, t in enumerate(fleet(3, mode="independent")):
            broker.register("npdq", f"c{i}", trajectory=t)
        broker.run(TICKS)
        m = broker.metrics
        # The sweep's reads are the batch: nothing is predicted, so the
        # rate the benchmark reads is 0 and the report has no such line.
        assert m.batched_pages > 0
        assert m.mispredict_rate == 0.0
        assert "predict" not in m.summary()


class TestSharedScanBatching:
    def dual_reads(self, build_native, build_dual, trajectories, shared=True):
        dual = build_dual()
        broker = make_broker(build_native(), dual, shared_scan=shared)
        for i, t in enumerate(trajectories):
            broker.register("npdq", f"c{i}", trajectory=t)
        before = dual.tree.disk.stats.reads
        broker.run(TICKS)
        return dual.tree.disk.stats.reads - before

    def test_identical_npdq_fleet_costs_one_walk(
        self, build_native, build_dual, fleet
    ):
        # Identical observers submit identical frames, so every
        # client past the first piggybacks on the first walk's fetches:
        # 8 clients cost exactly the physical dual-tree I/O of 1.  One
        # fleet, sliced, so both runs observe the same trajectory.
        trajectories = fleet(8, mode="identical")
        one = self.dual_reads(build_native, build_dual, trajectories[:1])
        eight = self.dual_reads(build_native, build_dual, trajectories)
        assert eight == one

    def test_batched_beats_unbatched(self, build_native, build_dual, fleet):
        trajectories = fleet(8, mode="identical")
        batched = self.dual_reads(build_native, build_dual, trajectories)
        unbatched = self.dual_reads(
            build_native, build_dual, trajectories, shared=False
        )
        assert batched < unbatched

    def test_mixed_fleet_batches_both_trees(
        self, build_native, build_dual, fleet
    ):
        native, dual = build_native(), build_dual()
        broker = make_broker(native, dual)
        trajectories = fleet(4, mode="identical")
        for i, t in enumerate(trajectories[:2]):
            broker.register("pdq", f"p{i}", trajectory=t)
        for i, t in enumerate(trajectories[2:]):
            broker.register("npdq", f"n{i}", trajectory=t)
        broker.run(TICKS)
        # Both page-id namespaces flow through the one batch phase:
        # second-of-a-kind clients piggyback on both trees.
        assert broker.metrics.piggybacked_reads > 0

    def test_frontier_demand_names_the_owning_tree(
        self, build_native, build_dual, fleet
    ):
        native, dual = build_native(), build_dual()
        broker = make_broker(native, dual)
        trajectories = fleet(2, mode="independent")
        pdq = broker.register("pdq", "p", trajectory=trajectories[0])
        npdq = broker.register("npdq", "n", trajectory=trajectories[1])
        tick = broker.clock.next_tick()
        (pdq_tree, pdq_pages), = pdq.frontier_demand(tick)
        (npdq_tree, npdq_pages), = npdq.frontier_demand(tick)
        assert pdq_tree is native.tree
        assert npdq_tree is dual.tree
        assert pdq_pages and npdq_pages


class TestAcceleratingObserverRegression:
    """An accelerating observer is the motion no extrapolation from past
    frames tracks; the walk reads the submitted frame instead, so it is
    as exact here as anywhere and batching moves no answer."""

    def test_answers_identical_either_way(
        self, build_native, build_dual
    ):
        # Answers equal the unbatched broker's on the accelerating
        # observer, and the walk never missed a page on the way.
        trajectory = accelerating_trajectory()
        streams = []
        for shared in (True, False):
            broker = make_broker(
                build_native(), build_dual(), shared_scan=shared
            )
            session = broker.register("npdq", "c", trajectory=trajectory)
            broker.run(TICKS)
            streams.append([(r.items, r.prefetched) for r in session.poll()])
        batched, unbatched = streams
        assert batched == unbatched
        assert batched == isolated_npdq_frames(build_dual, trajectory)


class TestAutoDualFrontier:
    """Auto sessions name no dual-tree demand: the live predictive
    engine's native-tree frontier is all they give the batch phase, and
    snapshot and non-predictive frames read the dual tree during the
    drain — with the answers of the same session driven alone, on the
    first frame, every later one and across a teleport."""

    TELEPORT_TICK = 10

    def teleporting_path(self, base):
        # a tick's frame is observed at the tick's end
        teleport_at = START + (self.TELEPORT_TICK + 1) * PERIOD

        def path(t):
            center = base(t)
            if t >= teleport_at:
                return (center[0] + 11.0, center[1] - 7.0)
            return center

        return path

    def test_auto_session_names_no_dual_demand(
        self, build_native, build_dual
    ):
        # Accelerating motion keeps the inner session non-predictive
        # (velocity never stabilises), so every frame reads the dual tree.
        base = path_of(accelerating_trajectory())
        for path in (base, self.teleporting_path(base)):
            broker = make_broker(build_native(), build_dual())
            session = broker.register_auto("a", path, (4.0, 4.0))
            clock = SimulatedClock(start=START, period=PERIOD)
            for tick in clock.ticks(TICKS):
                assert session.frontier_demand(tick) == []
                broker.run_tick()
            assert session.session.predictive_engine is None
            fresh = [
                t for t, mode in session.session.mode_switches
                if mode is SessionMode.SNAPSHOT
            ]
            assert len(fresh) == (1 if path is base else 2)  # the teleport
            alone = DynamicQuerySession(
                build_native(), build_dual(), (4.0, 4.0)
            )
            clock = SimulatedClock(start=START, period=PERIOD)
            assert [list(r.items) for r in session.poll()] == [
                alone.observe(tick.end, path(tick.end)).new_items
                for tick in clock.ticks(TICKS)
            ]
