"""Property: the broker changes *cost*, never *answers*.

For any mixed fleet of clients (PDQ / NPDQ / auto, optionally with a
mid-run teleport), any registration order, and any small insert stream,
every client hosted by the shared-execution broker receives exactly the
tick results it would get from a privately driven session over its own
copy of the index fed the same update stream at the same tick
boundaries.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.session import DynamicQuerySession
from repro.server import (
    QueryBroker,
    ServerConfig,
    SimulatedClock,
    UpdateOp,
)
from repro.server.dispatcher import UpdateDispatcher
from repro.server.session import AutoSession, NPDQSession, PDQSession
from repro.workload.observers import observer_fleet, path_of

from _helpers import make_segment

START, PERIOD, TICKS = 1.0, 0.1, 12
HALF = (4.0, 4.0)
TELEPORT_AT = START + 6 * PERIOD
TELEPORT_SHIFT = (12.0, -9.0)


def teleporting(base):
    def path(t):
        center = base(t)
        if t >= TELEPORT_AT:
            return tuple(c + s for c, s in zip(center, TELEPORT_SHIFT))
        return center

    return path


def build_ops(inserts, trajectories):
    ops = []
    for i, ins in enumerate(inserts):
        due = START + ins["tick"] * PERIOD
        traj = trajectories[i % len(trajectories)]
        t_ref = min(due + ins["offset"] * PERIOD, traj.time_span.high)
        center = traj.window_at(t_ref).center
        seg = make_segment(9100 + i, 9, due, due + 1.5, center, (0.0, 0.0))
        ops.append(UpdateOp(due, "insert", seg))
    return ops


def drive_isolated(kind, traj, path, ops, build_native, build_dual):
    """One privately driven session over fresh copies of the indexes."""
    native = build_native()
    dual = build_dual() if kind in ("npdq", "auto") else None
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
            result = session.serve(tick)
            frames.append((tick.index, result.mode, tuple(result.items)))
    session.close()
    return frames


scenario_st = st.fixed_dictionaries(
    {
        "clients": st.lists(
            st.fixed_dictionaries(
                {
                    "kind": st.sampled_from(["pdq", "npdq", "auto"]),
                    "teleport": st.booleans(),
                }
            ),
            min_size=1,
            max_size=3,
        ),
        "mode": st.sampled_from(["identical", "clustered", "independent"]),
        "seed": st.integers(min_value=0, max_value=4),
        "inserts": st.lists(
            st.fixed_dictionaries(
                {
                    "tick": st.integers(min_value=1, max_value=TICKS - 2),
                    "offset": st.integers(min_value=0, max_value=3),
                }
            ),
            max_size=3,
        ),
    }
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=scenario_st)
def test_broker_answers_match_isolated_sessions(
    scenario, tiny_config, build_native, build_dual
):
    trajectories = observer_fleet(
        tiny_config,
        len(scenario["clients"]),
        mode=scenario["mode"],
        duration=TICKS * PERIOD + 0.5,
        start_time=START,
        seed=scenario["seed"],
    )
    ops = build_ops(scenario["inserts"], trajectories)
    needs_dual = any(c["kind"] != "pdq" for c in scenario["clients"])

    broker = QueryBroker(
        build_native(),
        dual=build_dual() if needs_dual else None,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=1000),
    )
    paths = {}
    hosted = []
    for i, (spec, traj) in enumerate(zip(scenario["clients"], trajectories)):
        cid = f"c{i}"
        if spec["kind"] == "pdq":
            hosted.append(broker.register("pdq", cid, trajectory=traj))
        elif spec["kind"] == "npdq":
            hosted.append(broker.register("npdq", cid, trajectory=traj))
        else:
            base = path_of(traj)
            paths[cid] = teleporting(base) if spec["teleport"] else base
            hosted.append(broker.register_auto(cid, paths[cid], HALF))
    for op in ops:
        broker.dispatcher.submit(op)
    broker.run(TICKS)

    for spec, traj, session in zip(
        scenario["clients"], trajectories, hosted
    ):
        hosted_frames = [
            (r.index, r.mode, tuple(r.items)) for r in session.poll()
        ]
        isolated_frames = drive_isolated(
            spec["kind"],
            traj,
            paths.get(session.client_id),
            ops,
            build_native,
            build_dual,
        )
        assert hosted_frames == isolated_frames
    broker.quiesce()
