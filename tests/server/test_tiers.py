"""Every kind of the kind table on every serving tier.

One parametrised check replaces a per-kind, per-tier copy: whatever
:data:`repro.server.kinds.KINDS` lists is registered through the front
door on the leaf broker, the in-process front-end and the process-worker
front-end, and must (a) deliver the unsharded broker's stream frame by
frame and (b) record a plan whose fan-out is the fan-out actually
registered.  A kind added to the table is covered by adding its front
door to ``FRONT_DOOR`` — the test fails until it is.
"""

from dataclasses import asdict

import pytest

from repro.core import QuerySpec
from repro.core.aggregate import count_timeline
from repro.core.results import AnswerItem
from repro.core.trajectory import QueryTrajectory
from repro.errors import RemoteProtocolError, ServerError
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.server import (
    KINDS,
    MultiplexBroker,
    QueryBroker,
    RemoteMultiplexBroker,
    ServerConfig,
    SimulatedClock,
    UpdateOp,
)
from repro.server.remote import protocol as proto
from repro.server.remote.worker import ShardWorker
from repro.workload.observers import path_of

from _helpers import make_segment

START, PERIOD, TICKS = 1.0, 0.1, 8
HALF = (4.0, 4.0)
PAGE_SIZE = 512
SIDE = 32.0
JOIN_DELTA = 2.5

#: kind name -> how a client of that kind comes in through the front door
FRONT_DOOR = {
    "pdq": lambda b, cid, t: b.register_query(cid, QuerySpec.range(t)),
    "npdq": lambda b, cid, t: b.register_query(
        cid, QuerySpec.range(t, predictive=False)
    ),
    "auto": lambda b, cid, t: b.register_auto(cid, t, HALF),
    "knn": lambda b, cid, t: b.register_query(cid, QuerySpec.knn(t, 3)),
    "join": lambda b, cid, t: b.register_query(
        cid, QuerySpec.join(t, JOIN_DELTA)
    ),
    "aggregate": lambda b, cid, t: b.register_query(
        cid, QuerySpec.aggregate(t)
    ),
}


def make_config():
    return ServerConfig(queue_depth=1000, join_delta=JOIN_DELTA)


def make_clock():
    return SimulatedClock(start=START, period=PERIOD)


def build(tier, segments):
    if tier == "leaf":
        native = NativeSpaceIndex(dims=2, page_size=PAGE_SIZE)
        native.bulk_load(segments)
        dual = DualTimeIndex(dims=2, page_size=PAGE_SIZE)
        dual.bulk_load(segments)
        return QueryBroker(
            native, dual, clock=make_clock(), config=make_config()
        )
    cls = MultiplexBroker if tier == "mux" else RemoteMultiplexBroker
    return cls.over_segments(
        segments,
        shards=2,
        clock=make_clock(),
        config=make_config(),
        page_size=PAGE_SIZE,
        bounds=([0.0, 0.0], [SIDE, SIDE]),
    )


def canonical(result):
    """Everything a client can tell two frames apart by.  Range items
    are sets (shard order is not answer order); ranked carriers keep
    their order."""
    return (
        result.index,
        result.mode,
        frozenset((i.key, i.visibility) for i in result.items),
        frozenset((i.key, i.visibility) for i in result.prefetched),
        tuple((n.key, n.distance) for n in result.neighbors),
        tuple((p.key, p.interval) for p in result.pairs),
        result.aggregate,
        result.degraded,
        result.covers_until,
    )


def serve(broker, ticks=TICKS):
    frames = {}
    for _ in range(ticks):
        broker.run_tick()
        for session in broker.sessions:
            frames.setdefault(session.client_id, []).extend(
                canonical(r) for r in session.poll()
            )
    return frames


@pytest.mark.parametrize("tier", ["leaf", "mux", "remote"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_on_tier_matches_unsharded(kind, tier, tiny_segments, fleet):
    assert set(FRONT_DOOR) == set(KINDS)
    trajectories = fleet(3, mode="spread", duration=TICKS * PERIOD + 0.5)
    insert = UpdateOp(
        START + 2 * PERIOD,
        "insert",
        make_segment(
            9500, 0, START + 2 * PERIOD, START + 1.5,
            trajectories[0].window_at(START + 3 * PERIOD).center, (0.0, 0.0),
        ),
    )

    def run(broker):
        try:
            sessions = [
                FRONT_DOOR[kind](broker, f"{kind}-{i}", t)
                for i, t in enumerate(trajectories)
            ]
            broker.submit(insert)
            fanout = {
                s.client_id: len(getattr(s, "shard_ids", (0,)))
                for s in sessions
            }
            return serve(broker), fanout, dict(broker.metrics.plans)
        finally:
            broker.quiesce()

    expected, _, _ = run(build("leaf", tiny_segments))
    got, fanout, plans = run(build(tier, tiny_segments))
    assert got == expected
    assert any(frame[2] or frame[4] or frame[5] for frames in got.values()
               for frame in frames)
    if kind == "auto":
        # no declarative form, so no plan; the route rule still holds
        assert set(fanout.values()) == {1 if tier == "leaf" else 2}
    else:
        assert {cid: plan.shards for cid, plan in plans.items()} == fanout


#: tick -> what the front-end does to the first PDQ client before it
LIFECYCLE = {
    2: lambda b: b.session("pdq-0").shed(1.0, 2),
    5: lambda b: b.session("pdq-0").promote(),
    7: lambda b: b.close_client("pdq-0"),
}


@pytest.mark.parametrize("tier", ["mux", "remote"])
def test_shed_promote_close_match_unsharded(tier, tiny_segments, fleet):
    """SHED, PROMOTE and CLOSE from the front-end, mid-run: each sharded
    tier delivers the unsharded broker's stream frame by frame, and on
    the process tier SUBMIT and METRICS cross a spawned worker too."""
    trajectories = fleet(3, mode="spread", duration=TICKS * PERIOD + 0.5)
    insert = UpdateOp(
        START + 3 * PERIOD,
        "insert",
        make_segment(
            9600, 0, START + 3 * PERIOD, START + 1.5,
            trajectories[0].window_at(START + 4 * PERIOD).center, (0.0, 0.0),
        ),
    )

    def run(broker):
        try:
            for i, t in enumerate(trajectories):
                FRONT_DOOR["pdq"](broker, f"pdq-{i}", t)
            broker.submit(insert)
            frames, states = {}, []
            for tick in range(TICKS):
                if tick in LIFECYCLE:
                    LIFECYCLE[tick](broker)
                states.append(broker.session("pdq-0").state.name)
                for cid, got in serve(broker, 1).items():
                    frames.setdefault(cid, []).extend(got)
            return frames, states, broker._shard_reports()
        finally:
            broker.quiesce()

    expected, states, _ = run(build("leaf", tiny_segments))
    assert states == ["ACTIVE"] * 2 + ["SHED"] * 3 + ["ACTIVE"] * 2 + ["CLOSED"]
    modes = [frame[1] for frame in expected["pdq-0"]]
    assert "spdq" in modes and modes[-1] == "pdq" and len(modes) < TICKS
    got, got_states, reports = run(build(tier, tiny_segments))
    assert got_states == states
    for cid in expected:
        for k, (want, frame) in enumerate(zip(expected[cid], got[cid])):
            assert frame == want, f"{tier} {cid} frame {k}"
        assert len(got[cid]) == len(expected[cid]), cid
    if tier == "remote":
        # METRICS answers the in-process shard's counters, the SUBMIT
        # and the physical reads among them.
        fields = (
            "records", "clients", "physical_reads", "logical_reads",
            "updates_applied",
        )
        in_process = run(build("mux", tiny_segments))[2]
        assert [[r[f] for f in fields] for r in reports] == [
            [r[f] for f in fields] for r in in_process
        ]
        assert sum(r["updates_applied"] for r in reports) >= 1


def test_planning_reads_no_page(tiny_segments, fleet):
    """A sharded front-end plans from the rows it routed: registering
    through the planner front door reads no shard's tree."""
    mux = build("mux", tiny_segments)
    disks = [
        index.tree.disk
        for shard in mux.shards
        for index in (shard.native, shard.dual)
    ]
    reads = [disk.stats.reads for disk in disks]
    for i, t in enumerate(fleet(4, mode="spread", duration=1.0)):
        FRONT_DOOR["pdq"](mux, f"pdq-{i}", t)
        FRONT_DOOR["knn"](mux, f"knn-{i}", t)
    assert [disk.stats.reads for disk in disks] == reads
    assert {plan.engine for plan in mux.metrics.plans.values()} == {
        "pdq", "movingknn"
    }


def test_unknown_kind_is_refused_on_every_surface(tiny_segments, fleet):
    trajectory = fleet(1, duration=1.0)[0]
    with pytest.raises(ServerError, match="unknown query kind"):
        build("leaf", tiny_segments[:50]).register(
            "bogus", "c", trajectory=trajectory
        )
    # The worker's REGISTER payload is outside input: checked there too.
    worker = ShardWorker()
    worker.handle(
        proto.MSG_HELLO,
        {
            "shard_id": 0, "dims": 2, "page_size": PAGE_SIZE, "dual": False,
            "clock_start": START, "clock_period": PERIOD,
            "config": asdict(ServerConfig()),
        },
    )
    with pytest.raises(RemoteProtocolError, match="unknown session kind"):
        worker.handle(
            proto.MSG_REGISTER,
            {"client_id": "c", "kind": "bogus", "trajectory": trajectory,
             "kwargs": {}},
        )


def test_path_callable_cannot_cross_the_pipe(tiny_segments, fleet):
    trajectory = fleet(1, duration=1.0)[0]
    mux = build("mux", tiny_segments)
    assert mux.register_auto("a", path_of(trajectory), HALF).shard_ids == (0, 1)
    with build("remote", tiny_segments) as remote:
        with pytest.raises(ServerError, match="path callable"):
            remote.register_auto("a", path_of(trajectory), HALF)


# -- visibility components under a bending observer --------------------------

#: static objects the zig-zag below sweeps over twice inside tick 0
STATIC = [
    make_segment(i, 0, 0.0, 5.0, (x, 10.0), (0.0, 0.0))
    for i, x in enumerate((12.8, 13.0, 20.0, 4.0))
]

#: out to x=14 and back to x=10 within [1.0, 1.06]: objects 0 and 1
#: enter the 1x1 window, leave it, and re-enter it on the way back
ZIGZAG = QueryTrajectory.through_waypoints(
    [1.0, 1.03, 1.06, 2.0],
    [(10.0, 10.0), (14.0, 10.0), (10.0, 10.0), (10.0, 10.0)],
    (0.5, 0.5),
)


def naive_components():
    return [
        AnswerItem(record, component)
        for record in STATIC
        for component in ZIGZAG.segment_overlap(record.segment)
    ]


def test_sharded_range_merge_keeps_every_visibility_component():
    """A segment that leaves and re-enters the window inside one tick
    has two answer items in that tick; the merge must keep both."""
    flat = build("leaf", STATIC)
    flat.register("pdq", "c", trajectory=ZIGZAG)
    mux = build("mux", STATIC)
    mux.register("pdq", "c", trajectory=ZIGZAG)
    expected, got = serve(flat, 3), serve(mux, 3)
    assert got == expected
    first_tick_items = expected["c"][0][2]
    assert first_tick_items == {
        (item.key, item.visibility) for item in naive_components()
    }
    assert len(first_tick_items) == 4  # two objects, two components each


@pytest.mark.parametrize("tier", ["leaf", "mux"])
def test_aggregate_counts_every_visibility_component(tier):
    """The count timeline is the naive evaluator's components, counted:
    the second stay of a segment must not overwrite its first."""
    broker = build(tier, STATIC)
    session = broker.register("aggregate", "c", trajectory=ZIGZAG)
    broker.run_tick()
    (result,) = session.poll()
    span = Interval(START, START + PERIOD)
    assert list(result.aggregate) == count_timeline(naive_components(), span)
    assert max(count for _, count in result.aggregate) == 2
