"""Sharded serving: ShardPlan / ShardRouter / MultiplexBroker.

The load-bearing property is *answer invariance*: for any shard count K,
every client of the multiplexed front-end receives exactly the per-tick
results the single unsharded broker would deliver — boundary segments
are replicated into every overlapping shard and deduplicated at merge,
never lost and never double-reported.
"""

import pytest

from repro.core.results import AnswerItem
from repro.core.trajectory import QueryTrajectory
from repro.geometry.interval import Interval
from repro.errors import AdmissionError, ServerError
from repro.geometry.box import Box
from repro.index.nsi import NativeSpaceIndex
from repro.server import (
    MultiplexBroker,
    QueryBroker,
    ServerConfig,
    ShardPlan,
    ShardRouter,
    SimulatedClock,
    TickResult,
    UpdateOp,
    merge_results,
    merge_tick_metrics,
)
from repro.workload.observers import observer_fleet, path_of

from _helpers import block_of, make_segment

# Match the suite-wide small page so shard trees stay several levels deep.
PAGE_SIZE = 512

START, PERIOD, TICKS = 1.0, 0.1, 12


def make_mux(segments, shards, bounds=None, **config_kw):
    config_kw.setdefault("queue_depth", 1000)
    return MultiplexBroker.over_segments(
        segments,
        shards=shards,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(**config_kw),
        page_size=PAGE_SIZE,
        bounds=bounds,
    )


def make_unsharded(build_native, build_dual, **config_kw):
    config_kw.setdefault("queue_depth", 1000)
    return QueryBroker(
        build_native(),
        dual=build_dual(),
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(**config_kw),
    )


# -- ShardPlan ---------------------------------------------------------------


class TestShardPlan:
    def test_grid_tiles_the_domain(self):
        plan = ShardPlan.grid([0.0, 0.0], [20.0, 10.0], 4)
        assert plan.shard_count == 4
        assert plan.dims == 2
        assert sum(c.volume() for c in plan.cells) == pytest.approx(200.0)
        domain = plan.cells[0]
        for cell in plan.cells[1:]:
            domain = domain.cover(cell)
        assert domain == Box.from_bounds((0.0, 0.0), (20.0, 10.0))

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 6, 8])
    def test_any_shard_count_is_expressible(self, shards):
        plan = ShardPlan.grid([0.0, 0.0], [16.0, 16.0], shards)
        assert plan.shard_count == shards

    def test_interior_box_routes_to_one_shard(self):
        plan = ShardPlan.grid([0.0, 0.0], [20.0, 20.0], 4)
        hits = plan.shards_for_box(Box.from_bounds((1.0, 1.0), (3.0, 3.0)))
        assert len(hits) == 1

    def test_boundary_box_routes_to_every_neighbour(self):
        # 2x2 grid over [0,20]^2: both boundaries cross at (10,10).
        plan = ShardPlan.grid([0.0, 0.0], [20.0, 20.0], 4)
        hits = plan.shards_for_box(Box.from_bounds((9.0, 9.0), (11.0, 11.0)))
        assert sorted(hits) == [0, 1, 2, 3]
        # A degenerate box *on* the seam still overlaps both sides.
        seam = plan.shards_for_box(Box.from_bounds((10.0, 5.0), (10.0, 6.0)))
        assert len(seam) == 2

    def test_out_of_domain_box_falls_back_to_all_shards(self):
        plan = ShardPlan.grid([0.0, 0.0], [20.0, 20.0], 4)
        far = plan.shards_for_box(Box.from_bounds((100.0, 100.0), (101.0, 101.0)))
        assert sorted(far) == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ServerError):
            ShardPlan.grid([0.0, 0.0], [20.0, 20.0], 0)
        with pytest.raises(ServerError):
            ShardPlan.grid([0.0, 0.0], [0.0, 20.0], 2)
        with pytest.raises(ServerError):
            ShardPlan.grid([0.0], [20.0, 20.0], 2)
        with pytest.raises(ServerError):
            ShardPlan(cells=())


# -- ShardRouter -------------------------------------------------------------


class TestShardRouter:
    def test_segment_replicated_across_its_boundary(self):
        router = ShardRouter(ShardPlan.grid([0.0, 0.0], [20.0, 20.0], 2))
        interior = make_segment(1, 0, 0.0, 2.0, (3.0, 3.0), (0.0, 0.0))
        straddler = make_segment(2, 0, 0.0, 2.0, (9.5, 3.0), (0.5, 0.0))
        assert len(router.shards_for_segment(interior)) == 1
        assert len(router.shards_for_segment(straddler)) == 2

    def test_uncertainty_inflation_widens_the_route(self):
        router = ShardRouter(ShardPlan.grid([0.0, 0.0], [20.0, 20.0], 2))
        near = make_segment(1, 0, 0.0, 1.0, (9.0, 3.0), (0.0, 0.0))
        assert len(router.shards_for_segment(near)) == 1
        assert len(router.shards_for_segment(near, inflate=1.5)) == 2

    def test_trajectory_routed_by_its_whole_cover(self):
        router = ShardRouter(ShardPlan.grid([0.0, 0.0], [20.0, 20.0], 2))
        # Starts deep in shard 0, ends deep in shard 1.
        crossing = QueryTrajectory.through_waypoints(
            [0.0, 2.0], [(3.0, 10.0), (17.0, 10.0)], (1.0, 1.0)
        )
        parked = QueryTrajectory.through_waypoints(
            [0.0, 2.0], [(3.0, 10.0), (4.0, 10.0)], (1.0, 1.0)
        )
        assert sorted(router.shards_for_trajectory(crossing)) == [0, 1]
        assert router.shards_for_trajectory(parked) == [0]
        # Slack (the shed-δ window inflation) can pull in the neighbour.
        assert sorted(router.shards_for_trajectory(parked, slack=6.0)) == [0, 1]


# -- result merging ----------------------------------------------------------


def result(index=0, mode="pdq", items=(), prefetched=(), degraded=False,
           covers_until=None):
    return TickResult(
        index=index, start=1.0, end=1.1, mode=mode, items=block_of(items),
        prefetched=block_of(prefetched), degraded=degraded,
        covers_until=covers_until,
    )


def answer(oid, seq):
    return AnswerItem(
        make_segment(oid, seq, 0.0, 2.0, (1.0, 1.0), (0.0, 0.0)),
        Interval(0.0, 2.0),
    )


class TestMergeResults:
    def test_dedups_by_key_keeping_first(self):
        a, b = answer(1, 0), answer(2, 0)
        merged = merge_results([result(items=[a, b]), result(items=[b])])
        assert merged.items == (a, b)
        # Prefetched replicas dedup independently of the items.
        merged = merge_results(
            [result(prefetched=[a]), result(prefetched=[a, b])]
        )
        assert merged.prefetched == (a, b)

    def test_merges_covers_and_degradation(self):
        merged = merge_results(
            [
                result(mode="spdq", covers_until=1.5),
                result(mode="spdq", degraded=True, covers_until=1.3),
            ]
        )
        assert merged.degraded
        assert merged.covers_until == 1.5

    def test_divergent_shards_are_an_error(self):
        with pytest.raises(ServerError):
            merge_results([result(mode="pdq"), result(mode="spdq")])
        with pytest.raises(ServerError):
            merge_results([result(index=0), result(index=1)])
        with pytest.raises(ServerError):
            merge_results([])


# -- answer invariance (the acceptance criterion) ----------------------------


def drive(broker, fleet, ops):
    """Register a mixed fleet, feed updates, run, return per-client frames."""
    sink = broker if isinstance(broker, MultiplexBroker) else broker.dispatcher
    kinds = ("pdq", "npdq", "auto")
    for i, traj in enumerate(fleet):
        kind = kinds[i % len(kinds)]
        cid = f"{kind}-{i}"
        if kind == "pdq":
            broker.register("pdq", cid, trajectory=traj)
        elif kind == "npdq":
            broker.register("npdq", cid, trajectory=traj)
        else:
            broker.register_auto(cid, path_of(traj), (4.0, 4.0))
    for op in ops:
        sink.submit(op)
    frames = {}
    for _ in range(TICKS):
        broker.run_tick()
        for s in broker.sessions:
            for r in s.poll():
                frames.setdefault(s.client_id, []).append(
                    (
                        r.index,
                        r.mode,
                        frozenset(i.key for i in r.items),
                        frozenset(i.key for i in r.prefetched),
                    )
                )
    broker.quiesce()
    return frames


def update_stream(fleet, tiny_segments):
    """A small concurrent insert + expire stream near the observers."""
    ops = []
    for i in range(4):
        due = START + (2 + 2 * i) * PERIOD
        traj = fleet[i % len(fleet)]
        center = traj.window_at(min(due, traj.time_span.high)).center
        ops.append(
            UpdateOp(
                due,
                "insert",
                make_segment(9200 + i, 9, due, due + 1.5, center, (0.0, 0.0)),
            )
        )
    for i in range(4):
        ops.append(
            UpdateOp(START + (1 + i) * PERIOD, "expire", tiny_segments[3 * i])
        )
    return ops


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_answers_match_unsharded(
    shards, tiny_config, tiny_segments, build_native, build_dual
):
    fleet = observer_fleet(
        tiny_config,
        6,
        mode="independent",
        duration=TICKS * PERIOD + 0.5,
        start_time=START,
        seed=5,
    )
    ops = update_stream(fleet, tiny_segments)
    expected = drive(make_unsharded(build_native, build_dual), fleet, ops)
    got = drive(make_mux(tiny_segments, shards), fleet, ops)
    assert got == expected


# -- cross-shard dedup under shed / promote transitions ----------------------


def boundary_world():
    """A 2-shard world with one segment parked exactly on the seam.

    The domain is [0,20]^2 split at x=10; the straddler sits at x=10 so
    both shards hold a replica, and the client's trajectory hugs the
    seam so it is routed to both shards every tick.
    """
    straddler = make_segment(77, 0, 0.0, 10.0, (10.0, 5.0), (0.0, 0.0))
    filler = [
        make_segment(100 + i, 0, 0.0, 10.0, (2.0 + i, 15.0), (0.1, 0.0))
        for i in range(30)
    ]
    segments = [straddler] + filler
    trajectory = QueryTrajectory.through_waypoints(
        [START, START + TICKS * PERIOD + 0.5],
        [(9.0, 5.0), (11.0, 5.0)],
        (3.0, 3.0),
    )
    return segments, trajectory, straddler.key


def occurrences(result_, key):
    return sum(1 for item in result_.items if item.key == key)


def test_boundary_segment_reported_once_per_snapshot():
    segments, trajectory, key = boundary_world()
    mux = make_mux(segments, 2, bounds=((0.0, 0.0), (20.0, 20.0)))
    session = mux.register("pdq", "edge", trajectory=trajectory)
    assert session.shard_ids == (0, 1)
    mux.run(TICKS)
    results = session.poll()
    assert sum(occurrences(r, key) for r in results) == 1
    mux.quiesce()


def test_boundary_dedup_survives_shed_and_promote():
    segments, trajectory, key = boundary_world()
    mux = make_mux(
        segments,
        2,
        bounds=((0.0, 0.0), (20.0, 20.0)),
        queue_depth=2,
        shed_stride=2,
        promote_after=1,
    )
    session = mux.register("pdq", "edge", trajectory=trajectory)

    # Phase 1: never poll, so the front-end queue overflows and sheds.
    shed_results = []
    for _ in range(6):
        mux.run_tick()
        if session.metrics.shed_events:
            break
    assert session.metrics.shed_events == 1
    assert mux.metrics.shed_events == 1
    shed_results.extend(session.poll())

    # Phase 2: drain every tick; the shallow queue promotes the client
    # back, and every result before/during/after the transitions still
    # reports the straddler at most once.
    promoted_results = []
    for _ in range(8):
        mux.run_tick()
        promoted_results.extend(session.poll())
    assert session.metrics.promote_events >= 1

    everything = shed_results + promoted_results
    assert {r.mode for r in everything} >= {"spdq", "pdq"}
    assert all(occurrences(r, key) <= 1 for r in everything)
    # The SPDQ re-report across the shed/promote engine swaps may
    # legitimately repeat the key across *results*; within any single
    # delivered snapshot it must be unique — which the ``<= 1`` above
    # pins — and it must never vanish entirely.
    assert sum(occurrences(r, key) for r in everything) >= 1
    mux.quiesce()


# -- metrics rollup and admission -------------------------------------------


def test_tick_metrics_roll_up_across_shards(tiny_config, tiny_segments):
    fleet = observer_fleet(
        tiny_config, 4, mode="independent",
        duration=TICKS * PERIOD + 0.5, start_time=START, seed=5,
    )
    side = tiny_config.space_side
    mux = make_mux([], 4, bounds=([0.0, 0.0], [side, side]))
    counts = mux.load(tiny_segments)
    # Replication counts straddlers once per holding shard.
    assert sum(counts) >= len(tiny_segments)
    assert all(c > 0 for c in counts)
    assert counts == [len(shard.native) for shard in mux.shards]
    for i, traj in enumerate(fleet):
        mux.register("pdq", f"c{i}", trajectory=traj)
    mux.run(TICKS)
    assert mux.metrics.ticks == TICKS
    assert len(mux.metrics.tick_log) == TICKS
    shard_totals = sum(
        shard.broker.metrics.physical_reads for shard in mux.shards
    )
    assert mux.metrics.physical_reads == shard_totals
    assert mux.metrics.logical_reads == sum(
        shard.broker.metrics.logical_reads for shard in mux.shards
    )
    # clients_served is deduplicated at the front-end: never more than
    # the fleet, even though clients span several shards.
    assert all(t.clients_served <= 4 for t in mux.metrics.tick_log)
    # Per-client rollup sums the per-shard sub-sessions.
    for i in range(4):
        s = mux.session(f"c{i}")
        assert s.metrics.logical_reads == sum(
            sub.metrics.logical_reads for _, sub in s.parts
        )
    mux.quiesce()


def test_merge_tick_metrics_requires_same_boundary(tiny_segments):
    mux = make_mux(tiny_segments, 2)
    t0 = mux.run_tick()
    t1 = mux.run_tick()
    with pytest.raises(ServerError):
        merge_tick_metrics([t0, t1])
    with pytest.raises(ServerError):
        merge_tick_metrics([])
    folded = merge_tick_metrics([t0, t0])
    assert folded.physical_reads == 2 * t0.physical_reads
    mux.quiesce()


def test_front_end_admission_control(tiny_config, tiny_segments):
    fleet = observer_fleet(
        tiny_config, 3, mode="independent",
        duration=2.0, start_time=START, seed=5,
    )
    mux = make_mux(tiny_segments, 2, max_clients=2)
    mux.register("pdq", "a", trajectory=fleet[0])
    mux.register("npdq", "b", trajectory=fleet[1])
    with pytest.raises(AdmissionError):
        mux.register("pdq", "c", trajectory=fleet[2])
    assert mux.metrics.rejections == 1
    with pytest.raises(ServerError):
        mux.register("pdq", "a", trajectory=fleet[2])
    # Closing frees the slot — on the front-end *and* on every shard.
    mux.close_client("a")
    mux.register("pdq", "c", trajectory=fleet[2])
    assert sorted(s.client_id for s in mux.sessions) == ["b", "c"]
    mux.quiesce()


def test_a_store_opened_shard_keeps_its_domain_unknown(tiny_segments):
    # A shard whose index holds rows no load() routed (a store it was
    # opened from) has no known domain, and an insert routed to it does
    # not make that insert's box its whole domain: the planner keeps
    # assuming a scan, as it does for a reopened index of its own.
    def opened():
        index = NativeSpaceIndex(dims=2, page_size=PAGE_SIZE)
        index.bulk_load(tiny_segments)
        return index

    mux = MultiplexBroker(
        ShardPlan.grid([0.0, 0.0], [32.0, 32.0], 2),
        opened,
        clock=SimulatedClock(start=START, period=PERIOD),
    )
    assert mux._index_stats().domain is None
    mux.submit(UpdateOp(0.5, "insert", make_segment(oid=10**6, origin=(1.0, 1.0))))
    stats = mux._index_stats()
    assert stats.domain is None
    assert stats.records > 2 * len(tiny_segments)  # both shards, counted


def test_auto_clients_route_to_every_shard(tiny_config, tiny_segments):
    fleet = observer_fleet(
        tiny_config, 1, mode="independent",
        duration=2.0, start_time=START, seed=5,
    )
    mux = make_mux(tiny_segments, 4)
    session = mux.register_auto("a", path_of(fleet[0]), (4.0, 4.0))
    assert session.shard_ids == (0, 1, 2, 3)
    mux.run(3)
    mux.quiesce()
