"""NPDQ prediction walk: the submitted frame, walk, equality, faults.

The shared scan can only batch a non-predictive client's reads if the
client's page set is known *before* evaluation.  In the closed tick the
frame is: it was submitted before the batch phase runs.  These tests pin
the two layers of that machinery: the coverage-pruned prediction walk
(:meth:`NPDQEngine.predict_pages`) and the serving-layer accounting
(:class:`PredictionRecord`, mispredict counters, scheduler batching) —
including the safety half of the design: a walk cut short by a storage
fault may only cost demand fetches, never answers.
"""

from repro.core.npdq import NPDQEngine
from repro.core.trajectory import QueryTrajectory
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
        # The walk descends for the frame the tick evaluates, so there is
        # nothing to converge to: on every tick, the first included, it
        # enumerates exactly the pages evaluation then reads.
        (trajectory,) = fleet(1)
        session = NPDQSession("c", build_dual(), trajectory, queue_depth=100)
        for tick in self.ticks():
            ((_, pages),) = session.frontier_demand(tick)
            session.serve(tick)
            record = session.last_prediction
            assert record.served
            assert record.walk_faults == 0
            assert record.mispredicted == ()
            assert set(record.actual) == record.pages == set(pages)
        assert session.metrics.mispredicted_pages == 0
        assert session.metrics.predicted_pages == session.metrics.actual_pages
        assert session.metrics.actual_pages > 0


class TestMispredictSafety:
    def test_deliberate_mispredict_only_costs_demand_fetches(
        self, build_native, build_dual, fleet
    ):
        # Sabotage the walk the one way left to under-enumerate: fail
        # its read of the dual tree's root.  The walk enumerates the
        # root alone, evaluation demand-fetches the rest, the mispredict
        # counters light up — and the answers stay tick-for-tick
        # identical.
        (trajectory,) = fleet(1)
        baseline = isolated_npdq_frames(build_dual, trajectory)
        dual = build_dual()
        broker = make_broker(build_native(), dual)
        session = broker.register_npdq("c", trajectory)
        dual.tree.disk.set_faults(
            FaultInjector().script_read_fault(dual.tree.root_id, times=1)
        )
        broker.run_tick()
        record = session.last_prediction
        assert record.walk_faults == 1
        assert record.pages == {dual.tree.root_id}
        assert set(record.mispredicted) == set(record.actual) - record.pages
        assert record.mispredicted
        broker.run(TICKS - 1)
        assert [(r.items, r.prefetched) for r in session.poll()] == baseline
        # Only the faulted walk differs from what was read.
        assert session.metrics.mispredicted_pages == len(record.mispredicted)
        assert broker.metrics.mispredicted_pages == len(record.mispredicted)
        assert broker.metrics.mispredict_rate > 0.0

    def test_accurate_fleet_has_zero_mispredict_rate(
        self, build_native, build_dual, fleet
    ):
        broker = make_broker(build_native(), build_dual())
        for i, t in enumerate(fleet(3, mode="independent")):
            broker.register_npdq(f"c{i}", t)
        broker.run(TICKS)
        m = broker.metrics
        assert m.predicted_pages > 0
        assert m.actual_pages > 0
        assert m.mispredicted_pages == 0
        assert m.mispredict_rate == 0.0
        assert "npdq prediction" in m.summary()


class TestSharedScanBatching:
    def dual_reads(self, build_native, build_dual, trajectories, shared=True):
        dual = build_dual()
        broker = make_broker(build_native(), dual, shared_scan=shared)
        for i, t in enumerate(trajectories):
            broker.register_npdq(f"c{i}", t)
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
            broker.register_pdq(f"p{i}", t)
        for i, t in enumerate(trajectories[2:]):
            broker.register_npdq(f"n{i}", t)
        broker.run(TICKS)
        # Both page-id namespaces flow through the one batch phase:
        # second-of-a-kind clients piggyback on both trees.
        assert broker.metrics.piggybacked_reads > 0
        assert broker.metrics.predicted_pages > 0
        tick = broker.metrics.tick_log[-1]
        assert tick.predicted_pages > 0

    def test_frontier_demand_names_the_owning_tree(
        self, build_native, build_dual, fleet
    ):
        native, dual = build_native(), build_dual()
        broker = make_broker(native, dual)
        trajectories = fleet(2, mode="independent")
        pdq = broker.register_pdq("p", trajectories[0])
        npdq = broker.register_npdq("n", trajectories[1])
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
            session = broker.register_npdq("c", trajectory)
            broker.run(TICKS)
            streams.append([(r.items, r.prefetched) for r in session.poll()])
        batched, unbatched = streams
        assert batched == unbatched
        assert batched == isolated_npdq_frames(build_dual, trajectory)


class TestAutoDualFrontier:
    """Auto sessions contribute dual-tree demand for the frame their
    inner session is about to pose; a first frame and a teleport (whose
    evaluation starts from a reset NPDQ memory) contribute none, and
    batching resumes on the very next frame."""

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

    def dual_demand_ticks(self, broker, session, dual):
        """Tick indexes whose batch phase saw the session's dual pages."""
        mirror = SimulatedClock(start=START, period=PERIOD)
        seen = []
        for _ in range(TICKS):
            tick = mirror.next_tick()
            trees = [tree for tree, _ in session.frontier_demand(tick)]
            if dual.tree in trees:
                seen.append(tick.index)
            broker.run_tick()
        return seen

    def test_auto_session_contributes_dual_frontier(
        self, build_native, build_dual
    ):
        native, dual = build_native(), build_dual()
        broker = make_broker(native, dual)
        # Accelerating motion keeps the inner session non-predictive
        # (velocity never stabilises), i.e. in its NPDQ phase.
        trajectory = accelerating_trajectory()
        session = broker.register_auto(
            "a", path_of(trajectory), (4.0, 4.0)
        )
        seen = self.dual_demand_ticks(broker, session, dual)
        # Tick 0 poses the first frame (a fresh snapshot, nothing to
        # walk against); every later frame continues the series.
        assert seen == list(range(1, TICKS))
        assert session.session.predictive_engine is None

    def test_teleport_resets_then_resumes_batching(
        self, build_native, build_dual
    ):
        native, dual = build_native(), build_dual()
        broker = make_broker(native, dual)
        trajectory = accelerating_trajectory()
        session = broker.register_auto(
            "a",
            self.teleporting_path(path_of(trajectory)),
            (4.0, 4.0),
        )
        seen = self.dual_demand_ticks(broker, session, dual)
        jump = self.TELEPORT_TICK
        # Batching before the teleport ...
        assert any(t < jump for t in seen)
        # ... none on the teleport frame itself (its evaluation starts
        # from a reset memory) ...
        assert jump not in seen
        # ... and again from the very next frame on.
        assert seen == [t for t in range(1, TICKS) if t != jump]
