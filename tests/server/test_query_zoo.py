"""The query zoo behind the broker: kNN, joins, aggregates, planner.

Answer invariance is the contract for every new session type: the
broker's continuous kNN reproduces the offline :class:`MovingKNN`
frame by frame, and for kNN / join / aggregate fleets the K-shard
front-ends (in-process and spawned workers) deliver frames identical
to the single unsharded broker.  The planner tests pin the structural
decision: targeted fan-out for key-routable kinds, broadcast for the
rest, with the chosen plan visible in the serving report.
"""

import pytest

from repro.core import MovingKNN, QuerySpec
from repro.core.trajectory import QueryTrajectory
from repro.errors import ServerError
from repro.server import (
    IndexStats,
    MultiplexBroker,
    QueryBroker,
    RemoteMultiplexBroker,
    ServerConfig,
    SimulatedClock,
    plan_query,
)
from repro.workload.observers import observer_fleet

START, PERIOD, TICKS = 1.0, 0.1, 10
PAGE_SIZE = 512
DELTA = 6.0
KNN_K = 4


def make_clock():
    return SimulatedClock(start=START, period=PERIOD)


def zoo_config(**kw):
    kw.setdefault("queue_depth", 1000)
    kw.setdefault("join_delta", DELTA)
    return ServerConfig(**kw)


def frame_key(r):
    """Everything a frame asserts, per mode — distances and intervals
    included, so a merge that got the set right but the ranking wrong
    still fails."""
    if r.mode == "knn":
        return (
            r.index,
            r.k,
            tuple((n.key, n.distance) for n in r.neighbors),
        )
    if r.mode == "join":
        return (
            r.index,
            tuple((p.key, p.interval.low, p.interval.high) for p in r.pairs),
        )
    if r.mode == "aggregate":
        return (
            r.index,
            tuple(sorted(i.key for i in r.items)),
            r.aggregate,
        )
    return (r.index, r.mode, frozenset(i.key for i in r.items))


def register_zoo(broker, trajectories):
    broker.register_knn("knn", trajectories[0], KNN_K)
    broker.register_join("join", trajectories[1], delta=DELTA)
    broker.register_aggregate("agg", trajectories[2])


def drive(broker):
    frames = {}
    for _ in range(TICKS):
        broker.run_tick()
        for s in broker.sessions:
            for r in s.poll():
                frames.setdefault(s.client_id, []).append(frame_key(r))
    broker.quiesce()
    return frames


@pytest.fixture()
def zoo_fleet(tiny_config):
    return observer_fleet(
        tiny_config,
        3,
        mode="independent",
        duration=TICKS * PERIOD + 0.5,
        start_time=START,
        seed=7,
    )


@pytest.fixture()
def unsharded_frames(zoo_fleet, build_native):
    broker = QueryBroker(
        build_native(), clock=make_clock(), config=zoo_config()
    )
    register_zoo(broker, zoo_fleet)
    return drive(broker)


class TestBrokerKNNMatchesOffline:
    def test_frames_match_offline_engine(self, build_native, zoo_fleet):
        trajectory = zoo_fleet[0]
        broker = QueryBroker(
            build_native(), clock=make_clock(), config=zoo_config()
        )
        broker.register_knn("knn", trajectory, KNN_K, max_step=1.0)
        frames = []
        for _ in range(TICKS):
            broker.run_tick()
            for s in broker.sessions:
                for r in s.poll():
                    frames.append(r)
        assert frames
        offline = MovingKNN(build_native(), KNN_K, max_step=1.0)
        for r in frames:
            point = trajectory.window_at(r.end).center
            want = offline.query(r.end, point)
            assert [(n.key, n.distance) for n in r.neighbors] == [
                (rec.key, dist) for rec, dist in want
            ]
            assert r.k == KNN_K
            assert len(r.neighbors) == KNN_K

    def test_neighbors_ranked_by_distance_then_key(
        self, build_native, zoo_fleet
    ):
        broker = QueryBroker(
            build_native(), clock=make_clock(), config=zoo_config()
        )
        broker.register_knn("knn", zoo_fleet[0], KNN_K)
        for _ in range(TICKS):
            broker.run_tick()
            for s in broker.sessions:
                for r in s.poll():
                    order = [(n.distance, n.key) for n in r.neighbors]
                    assert order == sorted(order)


class TestZooShardInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_inprocess_matches_unsharded(
        self, shards, tiny_segments, zoo_fleet, unsharded_frames
    ):
        sharded = MultiplexBroker.over_segments(
            tiny_segments,
            shards=shards,
            clock=make_clock(),
            config=zoo_config(),
            page_size=PAGE_SIZE,
        )
        register_zoo(sharded, zoo_fleet)
        assert drive(sharded) == unsharded_frames

    @pytest.mark.parametrize("shards", [2])
    def test_process_workers_match_unsharded(
        self, shards, tiny_segments, zoo_fleet, unsharded_frames
    ):
        remote = RemoteMultiplexBroker.over_segments(
            tiny_segments,
            shards=shards,
            clock=make_clock(),
            config=zoo_config(),
            page_size=PAGE_SIZE,
        )
        try:
            register_zoo(remote, zoo_fleet)
            assert drive(remote) == unsharded_frames
        finally:
            remote.close()

    def test_join_delta_beyond_replication_rejected(
        self, tiny_segments, zoo_fleet
    ):
        sharded = MultiplexBroker.over_segments(
            tiny_segments,
            shards=2,
            clock=make_clock(),
            config=zoo_config(),
            page_size=PAGE_SIZE,
        )
        with pytest.raises(ServerError):
            sharded.register_join("join", zoo_fleet[0], delta=DELTA * 2)
        remote = RemoteMultiplexBroker.over_segments(
            tiny_segments,
            shards=2,
            clock=make_clock(),
            config=zoo_config(),
            page_size=PAGE_SIZE,
        )
        try:
            with pytest.raises(ServerError):
                remote.register_join("join", zoo_fleet[0], delta=DELTA * 2)
        finally:
            remote.close()


def routable_trajectory():
    """Confined to the lower-left quadrant of the tiny space — a 2x2
    shard grid maps every window to shard 0."""
    return QueryTrajectory.linear(
        START, START + TICKS * PERIOD, (20.0, 20.0), (0.5, 0.0), (4.0, 4.0)
    )


class TestPlannerFrontDoor:
    def register_specs(self, broker):
        traj = routable_trajectory()
        broker.register_query("range", QuerySpec.range(traj))
        broker.register_query("knn", QuerySpec.knn(traj, 3))
        broker.register_query("join", QuerySpec.join(traj, DELTA))
        broker.register_query("agg", QuerySpec.aggregate(traj))

    def test_unsharded_plans_recorded(self, build_native, build_dual):
        broker = QueryBroker(
            build_native(),
            dual=build_dual(),
            clock=make_clock(),
            config=zoo_config(),
        )
        self.register_specs(broker)
        plans = broker.metrics.plans
        assert plans["range"].engine == "pdq"
        assert plans["knn"].engine == "movingknn"
        assert plans["join"].engine == "pair-join"
        assert plans["agg"].engine == "pdq-aggregate"
        for plan in plans.values():
            assert plan.shards == 1
            assert plan.predicted_cost_per_tick > 0

    def test_sharded_targeted_vs_broadcast(self, tiny_segments):
        broker = MultiplexBroker.over_segments(
            tiny_segments,
            shards=4,
            clock=make_clock(),
            config=zoo_config(),
            page_size=PAGE_SIZE,
        )
        self.register_specs(broker)
        plans = broker.metrics.plans
        assert plans["range"].fanout == "targeted"
        assert plans["range"].shards == 1
        assert plans["agg"].fanout == "targeted"
        assert plans["agg"].shards == 1
        assert plans["knn"].fanout == "broadcast"
        assert plans["knn"].shards == 4
        assert plans["join"].fanout == "broadcast"
        assert plans["join"].shards == 4

    def test_remote_front_end_plans_without_a_tree(self, tiny_segments):
        broker = RemoteMultiplexBroker.over_segments(
            tiny_segments,
            shards=2,
            clock=make_clock(),
            config=zoo_config(),
            page_size=PAGE_SIZE,
        )
        try:
            self.register_specs(broker)
            plans = broker.metrics.plans
            assert plans["range"].fanout == "targeted"
            assert plans["knn"].fanout == "broadcast"
        finally:
            broker.close()

    def test_summary_shows_plans_and_actuals(self, tiny_segments):
        broker = MultiplexBroker.over_segments(
            tiny_segments,
            shards=4,
            clock=make_clock(),
            config=zoo_config(),
            page_size=PAGE_SIZE,
        )
        self.register_specs(broker)
        broker.run(3)
        broker.quiesce()
        summary = broker.metrics.summary()
        assert "planner" in summary
        assert "movingknn broadcast S=4" in summary
        assert "targeted S=1" in summary
        assert "actual" in summary

    def test_register_query_answers_match_concrete_registration(
        self, build_native, zoo_fleet
    ):
        via_spec = QueryBroker(
            build_native(), clock=make_clock(), config=zoo_config()
        )
        via_spec.register_query("knn", QuerySpec.knn(zoo_fleet[0], KNN_K))
        via_spec.register_query("join", QuerySpec.join(zoo_fleet[1], DELTA))
        via_spec.register_query("agg", QuerySpec.aggregate(zoo_fleet[2]))
        concrete = QueryBroker(
            build_native(), clock=make_clock(), config=zoo_config()
        )
        register_zoo(concrete, zoo_fleet)
        assert drive(via_spec) == drive(concrete)

    def test_join_spec_needs_trajectory(self, build_native):
        broker = QueryBroker(
            build_native(), clock=make_clock(), config=zoo_config()
        )
        with pytest.raises(ServerError):
            broker.register_query("join", QuerySpec(kind="join", delta=1.0))


class TestPlanQueryUnit:
    def stats(self, native):
        return IndexStats.from_index(native)

    def test_route_subset_targets(self, tiny_native):
        plan = plan_query(
            QuerySpec.range(routable_trajectory()),
            self.stats(tiny_native),
            total_shards=4,
            route=(1,),
        )
        assert plan.fanout == "targeted"
        assert plan.shard_ids == (1,)

    def test_no_route_broadcasts(self, tiny_native):
        plan = plan_query(
            QuerySpec.range(routable_trajectory()),
            self.stats(tiny_native),
            total_shards=4,
            route=None,
        )
        assert plan.fanout == "broadcast"
        assert plan.shard_ids == (0, 1, 2, 3)

    def test_route_covering_everything_is_broadcast(self, tiny_native):
        plan = plan_query(
            QuerySpec.range(routable_trajectory()),
            self.stats(tiny_native),
            total_shards=2,
            route=(0, 1),
        )
        assert plan.fanout == "broadcast"

    def test_knn_ignores_route(self, tiny_native):
        plan = plan_query(
            QuerySpec.knn(routable_trajectory(), 3),
            self.stats(tiny_native),
            total_shards=4,
            route=(1,),
        )
        assert plan.fanout == "broadcast"
        assert plan.shards == 4

    def test_one_level_tree_prefers_naive(self):
        stats = IndexStats(records=5, height=1, leaf_pages=1, domain=None)
        plan = plan_query(QuerySpec.range(routable_trajectory()), stats)
        assert plan.engine == "naive"

    def test_bad_total_shards(self, tiny_native):
        with pytest.raises(ServerError):
            plan_query(
                QuerySpec.range(routable_trajectory()),
                self.stats(tiny_native),
                total_shards=0,
            )

    def test_describe_is_one_line(self, tiny_native):
        plan = plan_query(
            QuerySpec.knn(routable_trajectory(), 3), self.stats(tiny_native)
        )
        assert "\n" not in plan.describe()
        assert "movingknn" in plan.describe()


class TestRouteRefresh:
    @staticmethod
    def wandering_path(t):
        """Inside the data for a few ticks, then far outside, then back."""
        if t < START + 3 * PERIOD:
            return (45.0 + t, 45.0)
        if t < START + 7 * PERIOD:
            return (5000.0, 5000.0)
        return (45.0 + t, 45.0)

    def run(self, build_native, build_dual, refresh):
        broker = QueryBroker(
            build_native(),
            dual=build_dual(),
            clock=make_clock(),
            config=zoo_config(auto_route_refresh=refresh),
        )
        session = broker.register_auto(
            "auto", self.wandering_path, (4.0, 4.0)
        )
        frames = drive(broker)
        return frames, session.metrics.dormant_ticks

    def test_answers_invariant_and_dormancy_counted(
        self, build_native, build_dual
    ):
        baseline, dormant_off = self.run(build_native, build_dual, 0)
        refreshed, dormant_on = self.run(build_native, build_dual, 3)
        assert refreshed == baseline
        assert dormant_off == 0
        assert dormant_on > 0

    def test_negative_refresh_rejected(self):
        with pytest.raises(ServerError):
            ServerConfig(auto_route_refresh=-1)
