"""Property: sharding changes *placement*, never *answers*.

For K in {1, 2, 4} shards, any mixed fleet drawn from the whole query
zoo (PDQ / NPDQ / auto range clients plus continuous-kNN, moving-join
and windowed-aggregate clients), any fleet overlap structure, and any
small concurrent insert + expire stream, the multiplexed front-end
delivers per-snapshot answer sets identical to the single unsharded
broker fed the same streams on the same seed — and the
*out-of-process* front-end (spawned shard workers behind the framed
pipe protocol) matches both.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.server import (
    MultiplexBroker,
    QueryBroker,
    RemoteMultiplexBroker,
    ServerConfig,
    SimulatedClock,
    UpdateOp,
)
from repro.workload.observers import observer_fleet, path_of

from _helpers import make_segment

START, PERIOD, TICKS = 1.0, 0.1, 12
HALF = (4.0, 4.0)
PAGE_SIZE = 512
JOIN_DELTA = 2.5
KNN_K = 3


def build_ops(scenario, trajectories, tiny_segments):
    ops = []
    for i, ins in enumerate(scenario["inserts"]):
        due = START + ins["tick"] * PERIOD
        traj = trajectories[i % len(trajectories)]
        center = traj.window_at(min(due, traj.time_span.high)).center
        seg = make_segment(9300 + i, 9, due, due + 1.5, center, (0.0, 0.0))
        ops.append(UpdateOp(due, "insert", seg))
    for i, tick in enumerate(scenario["expires"]):
        ops.append(
            UpdateOp(
                START + tick * PERIOD,
                "expire",
                tiny_segments[(7 * i) % len(tiny_segments)],
            )
        )
    return ops


def drive(broker, scenario, trajectories, ops):
    remote = isinstance(broker, RemoteMultiplexBroker)
    sink = (
        broker.dispatcher
        if isinstance(broker, QueryBroker)
        else broker
    )
    for i, (spec, traj) in enumerate(zip(scenario["clients"], trajectories)):
        cid = f"c{i}"
        if spec == "pdq":
            broker.register("pdq", cid, trajectory=traj)
        elif spec == "npdq":
            broker.register("npdq", cid, trajectory=traj)
        elif spec == "knn":
            broker.register("knn", cid, trajectory=traj, k=KNN_K)
        elif spec == "join":
            broker.register("join", cid, trajectory=traj)
        elif spec == "aggregate":
            broker.register("aggregate", cid, trajectory=traj)
        elif remote:
            # The remote front-end takes the trajectory itself: a path
            # closure cannot cross the process boundary.
            broker.register_auto(cid, traj, HALF)
        else:
            broker.register_auto(cid, path_of(traj), HALF)
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
                        # Zoo payloads: kNN answers are rank-ordered with
                        # their distances, join pairs carry their exact
                        # sub-delta intervals, aggregates their timeline.
                        tuple((n.key, n.distance) for n in r.neighbors),
                        tuple(
                            (p.key, p.interval.low, p.interval.high)
                            for p in r.pairs
                        ),
                        r.aggregate,
                        r.k,
                    )
                )
    broker.quiesce()
    return frames


scenario_st = st.fixed_dictionaries(
    {
        "shards": st.sampled_from([1, 2, 4]),
        "clients": st.lists(
            st.sampled_from(
                ["pdq", "npdq", "auto", "knn", "join", "aggregate"]
            ),
            min_size=1,
            max_size=3,
        ),
        "mode": st.sampled_from(
            ["identical", "clustered", "independent", "spread"]
        ),
        "seed": st.integers(min_value=0, max_value=4),
        "inserts": st.lists(
            st.fixed_dictionaries(
                {"tick": st.integers(min_value=1, max_value=TICKS - 2)}
            ),
            max_size=3,
        ),
        "expires": st.lists(
            st.integers(min_value=1, max_value=TICKS - 2), max_size=3
        ),
    }
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=scenario_st)
def test_sharded_answers_match_unsharded(
    scenario, tiny_config, tiny_segments, build_native, build_dual
):
    trajectories = observer_fleet(
        tiny_config,
        len(scenario["clients"]),
        mode=scenario["mode"],
        duration=TICKS * PERIOD + 0.5,
        start_time=START,
        seed=scenario["seed"],
    )
    ops = build_ops(scenario, trajectories, tiny_segments)

    unsharded = QueryBroker(
        build_native(),
        dual=build_dual(),
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=1000, join_delta=JOIN_DELTA),
    )
    expected = drive(unsharded, scenario, trajectories, ops)

    sharded = MultiplexBroker.over_segments(
        tiny_segments,
        shards=scenario["shards"],
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=1000, join_delta=JOIN_DELTA),
        page_size=PAGE_SIZE,
    )
    got = drive(sharded, scenario, trajectories, ops)

    assert got == expected


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=scenario_st)
def test_remote_workers_match_in_process_and_unsharded(
    scenario, tiny_config, tiny_segments, build_native, build_dual
):
    """Three-way: unsharded ≡ in-process mux ≡ spawned-worker mux.

    Few examples — every one spawns K worker processes — but each pins
    the whole stack: routing, the wire protocol's float fidelity, the
    asyncio barrier's reply re-serialisation, and the merge phase.
    """
    trajectories = observer_fleet(
        tiny_config,
        len(scenario["clients"]),
        mode=scenario["mode"],
        duration=TICKS * PERIOD + 0.5,
        start_time=START,
        seed=scenario["seed"],
    )
    ops = build_ops(scenario, trajectories, tiny_segments)

    unsharded = QueryBroker(
        build_native(),
        dual=build_dual(),
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=1000, join_delta=JOIN_DELTA),
    )
    expected = drive(unsharded, scenario, trajectories, ops)

    sharded = MultiplexBroker.over_segments(
        tiny_segments,
        shards=scenario["shards"],
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=1000, join_delta=JOIN_DELTA),
        page_size=PAGE_SIZE,
    )
    assert drive(sharded, scenario, trajectories, ops) == expected

    remote = RemoteMultiplexBroker.over_segments(
        tiny_segments,
        shards=scenario["shards"],
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=1000, join_delta=JOIN_DELTA),
        page_size=PAGE_SIZE,
    )
    try:
        assert drive(remote, scenario, trajectories, ops) == expected
    finally:
        remote.close()
