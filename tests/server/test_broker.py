"""The query broker: admission, shared execution, shedding, metrics."""

import pytest

from repro.core.pdq import PDQEngine
from repro.core.session import DynamicQuerySession
from repro.errors import AdmissionError, QueryError, ServerError
from repro.server import (
    MultiplexBroker,
    QueryBroker,
    ServerConfig,
    SessionState,
    SimulatedClock,
    UpdateOp,
)
from repro.server.dispatcher import UpdateDispatcher
from repro.server.session import AutoSession, NPDQSession, PDQSession
from repro.workload.observers import path_of

from _helpers import make_segment

START, PERIOD, TICKS = 1.0, 0.1, 20
HALF = (4.0, 4.0)


def make_broker(index, dual=None, **config_kw):
    config_kw.setdefault("queue_depth", 100)
    return QueryBroker(
        index,
        dual=dual,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(**config_kw),
    )


def isolated_answers(build_native, trajectory, ticks=TICKS):
    """The per-tick answers of one privately driven exact PDQ."""
    index = build_native()
    clock = SimulatedClock(start=START, period=PERIOD)
    with PDQEngine(index, trajectory) as engine:
        frames = [
            tuple(engine.window(t.start, t.end)) for t in clock.ticks(ticks)
        ]
    return frames, index.tree.disk.stats.reads


class TestAdmissionControl:
    def test_capacity_is_enforced(self, build_native, fleet):
        broker = make_broker(build_native(), max_clients=2)
        trajectories = fleet(3, mode="independent")
        broker.register_pdq("a", trajectories[0])
        broker.register_pdq("b", trajectories[1])
        with pytest.raises(AdmissionError):
            broker.register_pdq("c", trajectories[2])
        assert broker.metrics.admissions == 2
        assert broker.metrics.rejections == 1

    def test_closing_frees_the_slot(self, build_native, fleet):
        broker = make_broker(build_native(), max_clients=1)
        trajectories = fleet(2, mode="independent")
        broker.register_pdq("a", trajectories[0])
        broker.close_client("a")
        broker.register_pdq("b", trajectories[1])  # no raise
        assert [s.client_id for s in broker.sessions] == ["b"]

    def test_duplicate_id_rejected(self, build_native, fleet):
        broker = make_broker(build_native())
        (trajectory,) = fleet(1)
        broker.register_pdq("a", trajectory)
        with pytest.raises(ServerError):
            broker.register_pdq("a", trajectory)

    def test_npdq_requires_dual_index(self, build_native, fleet):
        broker = make_broker(build_native())
        with pytest.raises(ServerError):
            broker.register_npdq("n", fleet(1)[0])


class TestSharedExecution:
    def test_n_identical_clients_cost_one_engine(self, build_native, fleet):
        trajectories = fleet(8, mode="identical")
        baseline_frames, baseline_reads = isolated_answers(
            build_native, trajectories[0]
        )

        index = build_native()
        broker = make_broker(index)
        sessions = [
            broker.register_pdq(f"c{i}", t) for i, t in enumerate(trajectories)
        ]
        reads_before = index.tree.disk.stats.reads
        broker.run(TICKS)
        shared_reads = index.tree.disk.stats.reads - reads_before

        # The shared scan's invariant: 8 fully-overlapping clients cost
        # exactly what 1 isolated engine costs.
        assert shared_reads == baseline_reads
        for session in sessions:
            frames = [tuple(r.items) for r in session.poll()]
            assert frames == baseline_frames

    def test_shared_scan_never_changes_answers(self, build_native, fleet):
        trajectories = fleet(3, mode="independent")
        baselines = [
            isolated_answers(build_native, t)[0] for t in trajectories
        ]
        broker = make_broker(build_native())
        sessions = [
            broker.register_pdq(f"c{i}", t) for i, t in enumerate(trajectories)
        ]
        broker.run(TICKS)
        for session, baseline in zip(sessions, baselines):
            assert [tuple(r.items) for r in session.poll()] == baseline

    def test_disabling_shared_scan_costs_more(self, build_native, fleet):
        trajectories = fleet(6, mode="identical")

        def total_reads(shared):
            index = build_native()
            broker = make_broker(index, shared_scan=shared)
            for i, t in enumerate(trajectories):
                broker.register_pdq(f"c{i}", t)
            before = index.tree.disk.stats.reads
            broker.run(TICKS)
            return index.tree.disk.stats.reads - before

        assert total_reads(shared=True) < total_reads(shared=False)

    def test_tick_metrics_account_the_scan(self, build_native, fleet):
        broker = make_broker(build_native())
        for i, t in enumerate(fleet(4, mode="identical")):
            broker.register_pdq(f"c{i}", t)
        broker.run(TICKS)
        m = broker.metrics
        assert m.ticks == TICKS
        assert m.logical_reads > m.physical_reads
        assert 0.0 < m.shared_hit_ratio < 1.0
        assert len(m.tick_log) == TICKS
        assert "shared hit ratio" in m.summary()


class TestNPDQSharedExecution:
    """Answer invariance extended to NPDQ frontier prediction.

    The batch phase now runs motion-forecast walks over the dual-time
    tree for non-predictive clients; these tests pin the property that
    matters — hosted NPDQ (and mixed) fleets receive tick-for-tick
    exactly what privately driven sessions would, whatever the batching,
    shedding, promotion, or concurrent update traffic around them.
    """

    def isolated_frames(
        self, build_native, build_dual, kind, traj, path=None, ops=()
    ):
        """One privately driven session over fresh index copies."""
        native, dual = build_native(), build_dual()
        dispatcher = UpdateDispatcher(native, dual)
        for op in ops:
            dispatcher.submit(op)
        if kind == "pdq":
            session = PDQSession("iso", native, traj, queue_depth=1000)
        elif kind == "npdq":
            session = NPDQSession("iso", dual, traj, queue_depth=1000)
        else:
            session = AutoSession(
                "iso",
                DynamicQuerySession(native, dual, HALF),
                path,
                queue_depth=1000,
            )
        frames = []
        for tick in SimulatedClock(start=START, period=PERIOD).ticks(TICKS):
            dispatcher.apply_until(tick.start, live_queries=True)
            if session.will_serve(tick):
                r = session.serve(tick)
                frames.append((tick.index, r.mode, r.items, r.prefetched))
        session.close()
        return frames

    @staticmethod
    def frames_of(results):
        return [(r.index, r.mode, r.items, r.prefetched) for r in results]

    def test_npdq_answers_match_isolated_engines(
        self, build_native, build_dual, fleet
    ):
        trajectories = fleet(3, mode="independent")
        baselines = [
            self.isolated_frames(build_native, build_dual, "npdq", t)
            for t in trajectories
        ]
        broker = make_broker(build_native(), dual=build_dual())
        sessions = [
            broker.register_npdq(f"c{i}", t)
            for i, t in enumerate(trajectories)
        ]
        broker.run(TICKS)
        for session, baseline in zip(sessions, baselines):
            assert self.frames_of(session.poll()) == baseline

    def test_mixed_fleet_with_updates_matches_isolated(
        self, build_native, build_dual, fleet, tiny_segments
    ):
        trajectories = fleet(3, mode="clustered")
        teleport_at = START + 10 * PERIOD

        def teleporting(t):
            center = path_of(trajectories[2])(t)
            if t >= teleport_at:
                return tuple(c + 11.0 for c in center)
            return center

        near = trajectories[1].window_at(START + 0.5).center
        span = trajectories[1].time_span
        ops = (
            UpdateOp(
                START + 4 * PERIOD,
                "insert",
                make_segment(9001, 9, span.low, span.high, near, (0.0, 0.0)),
            ),
            UpdateOp(START + 7 * PERIOD, "expire", tiny_segments[0]),
        )
        specs = [
            ("pdq", trajectories[0], None),
            ("npdq", trajectories[1], None),
            ("auto", trajectories[2], teleporting),
        ]
        baselines = [
            self.isolated_frames(build_native, build_dual, kind, t, path, ops)
            for kind, t, path in specs
        ]

        broker = make_broker(build_native(), dual=build_dual())
        sessions = [
            broker.register_pdq("c0", trajectories[0]),
            broker.register_npdq("c1", trajectories[1]),
            broker.register_auto("c2", teleporting, HALF),
        ]
        for op in ops:
            broker.dispatcher.submit(op)
        broker.run(TICKS)
        for session, baseline in zip(sessions, baselines):
            assert self.frames_of(session.poll()) == baseline

    def test_shed_and_promote_do_not_disturb_npdq_answers(
        self, build_native, build_dual, fleet
    ):
        # A depth-1 queue sheds the unpolled PDQ neighbour at tick 1 and
        # promotes it back once polled; the NPDQ client sharing the
        # broker must not notice either transition.
        trajectories = fleet(2, mode="independent")
        baseline = self.isolated_frames(
            build_native, build_dual, "npdq", trajectories[1]
        )
        broker = make_broker(
            build_native(),
            dual=build_dual(),
            queue_depth=1,
            promote_after=1,
        )
        pdq = broker.register_pdq("p", trajectories[0])
        npdq = broker.register_npdq("n", trajectories[1])
        collected = []
        for i in range(TICKS):
            broker.run_tick()
            collected.extend(npdq.poll())
            if i >= 2:
                pdq.poll()
        assert self.frames_of(collected) == baseline
        assert pdq.metrics.shed_events == 1
        assert pdq.metrics.promote_events >= 1
        assert pdq.state is SessionState.ACTIVE
        assert npdq.metrics.mispredicted_pages == 0


class TestShedding:
    def test_slow_client_is_shed_not_stalled(self, build_native, fleet):
        (trajectory,) = fleet(1)
        broker = make_broker(
            build_native(), queue_depth=1, shed_delta=0.5, shed_stride=4
        )
        session = broker.register_pdq("slow", trajectory)
        broker.run(10)  # nobody polls: the depth-1 queue overflows
        assert session.state is SessionState.SHED
        assert broker.metrics.shed_events == 1
        assert session.metrics.dropped_results >= 1
        results = session.poll()
        assert results  # still receiving (degraded) service
        assert all(r.degraded for r in results[-1:])
        assert results[-1].mode == "spdq"
        assert results[-1].covers_until is not None

    def test_shed_session_is_served_every_stride(self, build_native, fleet):
        (trajectory,) = fleet(1)
        broker = make_broker(build_native(), queue_depth=1, shed_stride=4)
        session = broker.register_pdq("slow", trajectory)
        broker.run(2)  # second deliver overflows -> shed
        assert session.state is SessionState.SHED
        served_before = session.metrics.ticks_served
        broker.run(8)
        # Stride 4: ~2 evaluations over 8 ticks instead of 8.
        assert session.metrics.ticks_served - served_before <= 3

    def test_shed_answers_cover_the_stride(self, build_native, fleet):
        (trajectory,) = fleet(1)
        baseline_frames, _ = isolated_answers(build_native, trajectory)
        broker = make_broker(build_native(), queue_depth=1, shed_stride=2)
        session = broker.register_pdq("slow", trajectory)
        broker.run(2)  # the depth-1 queue overflows -> shed at tick 1
        assert session.state is SessionState.SHED
        session.poll()
        collected = []
        for _ in range(TICKS - 2):
            broker.run_tick()
            collected.extend(session.poll())  # a client that keeps up now
        shed_keys = {item.key for r in collected for item in r.items}
        covered_until = max(r.horizon for r in collected)
        # δ-inflated strided evaluation is conservative: nothing the
        # exact engine reported over the covered post-shed span can be
        # missing from the degraded stream.
        expected = {
            item.key
            for i, frame in enumerate(baseline_frames)
            for item in frame
            if i >= 2 and START + (i + 1) * PERIOD <= covered_until + 1e-9
        }
        assert expected <= shed_keys


class TestPromotion:
    """Hysteresis: a caught-up shed client returns to exact service."""

    def shed_session(self, build_native, fleet, **config_kw):
        """A freshly shed session with its result backlog drained.

        ``run(2)`` with nobody polling overflows the depth-1 queue at
        tick 1 and sheds; draining afterwards means every later shed
        delivery lands in an empty queue, so the hysteresis timeline is
        fully determined by ``shed_stride`` (evaluations at ticks 2, 4,
        6, ...).
        """
        (trajectory,) = fleet(1)
        config_kw.setdefault("queue_depth", 1)
        config_kw.setdefault("shed_stride", 2)
        broker = make_broker(build_native(), **config_kw)
        session = broker.register_pdq("slow", trajectory)
        broker.run(2)
        assert session.state is SessionState.SHED
        session.poll()
        return broker, session

    def test_promotion_is_off_by_default(self, build_native, fleet):
        broker, session = self.shed_session(build_native, fleet)
        for _ in range(10):
            broker.run_tick()
            session.poll()  # the client catches up, but promote_after=0
        assert session.state is SessionState.SHED
        assert broker.metrics.promote_events == 0

    def test_caught_up_client_is_promoted(self, build_native, fleet):
        broker, session = self.shed_session(
            build_native, fleet, promote_after=2
        )
        # Polling between ticks keeps the queue shallow, so the strided
        # deliveries at ticks 2 and 4 are two consecutive good strides.
        for _ in range(4):
            broker.run_tick()
            session.poll()
        assert session.state is SessionState.ACTIVE
        assert isinstance(session.engine, PDQEngine)
        assert session.metrics.promote_events == 1
        assert broker.metrics.promote_events == 1
        assert "promoted back" in broker.metrics.summary()

    def test_post_promotion_service_is_exact(self, build_native, fleet):
        broker, session = self.shed_session(
            build_native, fleet, promote_after=1
        )
        broker.run_tick()  # tick 2: shed delivery lands, hysteresis fires
        assert session.state is SessionState.ACTIVE
        session.poll()  # drain the final (spdq) stride result
        broker.run_tick()  # exact per-tick service has resumed
        results = session.poll()
        assert results, "a promoted session is served every tick again"
        assert all(r.mode == "pdq" for r in results)
        assert not any(r.degraded for r in results)
        assert all(r.covers_until is None for r in results)

    def test_deep_queue_resets_the_streak(self, build_native, fleet):
        _, session = self.shed_session(build_native, fleet)
        assert not session.observe_queue(2, 1)  # shallow: streak 1
        session.queue.items.extend([None, None])
        assert not session.observe_queue(2, 1)  # deep: streak reset to 0
        session.queue.items.clear()
        assert not session.observe_queue(2, 1)  # shallow again: streak 1
        assert session.observe_queue(2, 1)  # streak 2: promotes
        assert session.state is SessionState.ACTIVE

    def test_promote_is_a_noop_unless_shed(self, build_native, fleet):
        (trajectory,) = fleet(1)
        broker = make_broker(build_native())
        session = broker.register_pdq("c", trajectory)
        engine = session.engine
        session.promote()  # ACTIVE: nothing happens
        assert session.engine is engine
        assert not session.observe_queue(1, 1)

    def test_logical_reads_stay_monotonic_across_swaps(
        self, build_native, fleet
    ):
        broker, session = self.shed_session(
            build_native, fleet, promote_after=1
        )
        seen = session.logical_reads
        for _ in range(8):
            broker.run_tick()
            session.poll()
            assert session.logical_reads >= seen
            seen = session.logical_reads
        assert session.state is SessionState.ACTIVE
        assert seen > 0

    def test_promoted_answers_cover_the_exact_frames(
        self, build_native, fleet
    ):
        (trajectory,) = fleet(1)
        baseline_frames, _ = isolated_answers(build_native, trajectory)
        broker, session = self.shed_session(
            build_native, fleet, promote_after=1
        )
        collected = []
        for _ in range(TICKS - 2):
            broker.run_tick()
            collected.extend(session.poll())
        assert session.state is SessionState.ACTIVE
        exact = [r for r in collected if r.mode == "pdq"]
        assert exact
        # Conservative direction of the swap: everything the isolated
        # exact engine reported for a post-promotion tick must have been
        # delivered (possibly earlier, possibly by the covering stride).
        delivered = {item.key for r in collected for item in r.items}
        for result in exact:
            frame_keys = {i.key for i in baseline_frames[result.index]}
            assert frame_keys <= delivered


class TestUpdatesAndQuiesce:
    def test_updates_apply_between_ticks(self, build_native, fleet):
        (trajectory,) = fleet(1)
        index = build_native()
        broker = make_broker(index)
        session = broker.register_pdq("c0", trajectory)
        center = trajectory.window_at(START + 1.0).center
        span = trajectory.time_span
        seg = make_segment(9001, 9, span.low, span.high, center, (0.0, 0.0))
        broker.dispatcher.submit(UpdateOp(START + 5 * PERIOD, "insert", seg))
        broker.run(TICKS)
        keys = {i.key for r in session.poll() for i in r.items}
        assert seg.key in keys
        assert broker.metrics.updates_applied == 1

    def test_quiesce_flushes_deferred_expires(
        self, build_native, fleet, tiny_segments
    ):
        index = build_native()
        broker = make_broker(index)
        broker.register_pdq("c0", fleet(1)[0])
        broker.dispatcher.submit(
            UpdateOp(START, "expire", tiny_segments[0])
        )
        broker.run(3)
        assert broker.dispatcher.stats.expires_deferred == 1
        assert len(index) == len(tiny_segments)
        assert broker.quiesce() == 1
        assert len(index) == len(tiny_segments) - 1
        assert broker.sessions == []


class TestRaisingSession:
    """A session that raises fails its tick and nothing after it: the
    tick's pins are released and the scheduler's tick is closed on the
    way out, so the next ``run_tick`` serves everyone again."""

    @staticmethod
    def _raise_once(session):
        serve = session.serve

        def failing(tick):
            session.serve = serve
            raise QueryError("engine failed")

        session.serve = failing

    def test_query_broker_serves_the_next_tick(self, build_native, fleet):
        broker = make_broker(build_native())
        sessions = [
            broker.register_pdq(f"c{i}", t)
            for i, t in enumerate(fleet(4, mode="independent"))
        ]
        broker.run(2)
        self._raise_once(sessions[2])
        with pytest.raises(QueryError, match="engine failed"):
            broker.run_tick()
        pinned = broker.scheduler.pinned_pages
        assert broker.run_tick().clients_served == 4
        assert pinned == []

    def test_multiplex_broker_serves_the_next_tick(self, tiny_segments, fleet):
        mux = MultiplexBroker.over_segments(
            tiny_segments,
            shards=2,
            clock=SimulatedClock(start=START, period=PERIOD),
            config=ServerConfig(queue_depth=100),
            page_size=512,
        )
        sessions = [
            mux.register_pdq(f"c{i}", t)
            for i, t in enumerate(fleet(4, mode="independent"))
        ]
        mux.run(2)
        self._raise_once(sessions[2].parts[0][1])
        with pytest.raises(QueryError, match="engine failed"):
            mux.run_tick()
        pinned = [s.broker.scheduler.pinned_pages for s in mux.shards]
        assert mux.run_tick().clients_served == 4
        assert pinned == [[], []]


class TestPageViewReuse:
    """Engines come and go (shed, promote, re-register); the cached
    page views on the shared index outlive them all and must never
    change what the next engine delivers."""

    def test_shed_promote_churn_identical(self, build_native, fleet):
        index = build_native()

        def run():
            trajectories = fleet(2, mode="independent")
            broker = make_broker(index, queue_depth=1, promote_after=1)
            slow = broker.register_pdq("slow", trajectories[0])
            fast = broker.register_pdq("fast", trajectories[1])
            frames = []
            for i in range(TICKS):
                broker.run_tick()
                frames.extend(
                    (r.index, r.mode, r.items, r.prefetched)
                    for r in fast.poll()
                )
                if i >= 2:
                    frames.extend(
                        (r.index, r.mode, r.items, r.prefetched)
                        for r in slow.poll()
                    )
            assert slow.metrics.shed_events >= 1
            assert slow.metrics.promote_events >= 1
            broker.quiesce()
            return frames

        # first run builds the views, second run serves from them
        assert run() == run()
