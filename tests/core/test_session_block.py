"""The auto-session block: ``observe_block`` against one-at-a-time
scalar sessions, its refusals, and a broker serving auto clients as
one block."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.session import DynamicQuerySession, SessionMode, observe_block
from repro.errors import SessionError, TransientIOError
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.index.rtree import RTree
from repro.server import QueryBroker, ServerConfig, SimulatedClock
from repro.server.session import AutoSweep
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.workload.observers import observer_fleet, path_of

from _helpers import ScalarDynamicQuerySession

START, PERIOD = 1.0, 0.1


@pytest.fixture(scope="module")
def buffered(tiny_segments):
    """Both index flavours over the tiny workload, each behind a buffer
    pool (an index without one is not swept), several levels deep."""
    native = NativeSpaceIndex(
        dims=2, disk=DiskManager(buffer_pool=BufferPool(64)), page_size=512
    )
    dual = DualTimeIndex(
        dims=2, disk=DiskManager(buffer_pool=BufferPool(64)), page_size=512
    )
    native.bulk_load(tiny_segments)
    dual.bulk_load(tiny_segments)
    return native, dual


_SPEED = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0])


@st.composite
def observers(draw, frames):
    """One session's parameters and its centre at each of ``frames``
    frames: straight runs, swerves, stops (zero velocity) and teleports."""
    params = dict(
        half_extents=(draw(st.sampled_from([2.0, 4.0, 6.0])),) * 2,
        stability_frames=draw(st.integers(min_value=1, max_value=3)),
        # short horizons expire mid-run and re-predict
        prediction_horizon=draw(st.sampled_from([0.25, 0.45, 5.0])),
        spdq_delta=draw(st.sampled_from([0.0, 0.0, 0.5])),
    )
    point = st.floats(min_value=10.0, max_value=90.0, allow_nan=False)
    x, y = draw(point), draw(point)
    vx, vy = draw(_SPEED), draw(_SPEED)
    centres = []
    for move in draw(st.lists(
        st.sampled_from(["straight"] * 4 + ["swerve", "stop", "teleport"]),
        min_size=frames, max_size=frames,
    )):
        if move == "swerve":
            vx, vy = draw(_SPEED), draw(_SPEED)
        elif move == "stop":
            vx = vy = 0.0
        elif move == "teleport":
            x, y = (x + 40.0) % 100.0, (y + 55.0) % 100.0
        x, y = x + vx * PERIOD, y + vy * PERIOD
        centres.append((x, y))
    return params, centres


@st.composite
def blocks(draw):
    frames = draw(st.integers(min_value=6, max_value=16))
    return draw(st.lists(observers(frames), min_size=1, max_size=6))


def _state(session):
    """What a session carries from frame to frame."""
    live = session.predictive_engine
    return (
        session.mode,
        list(session.mode_switches),
        session.cost.snapshot(),
        None if live is None else live.cost.snapshot(),
        [(o.record.key, o.disappears_at) for o in session.cache],
        session.cache.stats,
        session._last_time,
        session._last_center,
        session._last_velocity,
        session._stable_count,
    )


class TestDifferential:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(block=blocks())
    def test_block_equals_scalar_sessions(self, buffered, block):
        native, dual = buffered
        blocked = [DynamicQuerySession(native, dual, **p) for p, _ in block]
        alone = [ScalarDynamicQuerySession(native, dual, **p) for p, _ in block]
        try:
            for k in range(len(block[0][1])):
                t = START + k * PERIOD
                centres = [c[k] for _, c in block]
                reports = observe_block(blocked, t, centres)
                for session, ref, centre, report in zip(
                    blocked, alone, centres, reports
                ):
                    assert report == ref.observe(t, centre)
                    assert _state(session) == _state(ref)
        finally:
            for session in blocked + alone:
                session.close()
        for session, ref in zip(blocked, alone):
            assert session.cost.snapshot() == ref.cost.snapshot()

    def test_a_block_mixes_modes_in_one_tick(self, buffered):
        """A steady flyer goes predictive while a teleporter snapshots
        and a swerver runs non-predictive, in the same blocks."""
        native, dual = buffered
        sessions = [DynamicQuerySession(native, dual, (4.0, 4.0)) for _ in range(3)]
        modes = []
        for k in range(8):
            t = START + k * PERIOD
            centres = [
                (20.0 + 0.5 * k, 50.0),
                ((30.0, 70.0)[k % 2], 40.0),  # jumps every frame
                (60.0 + 0.1 * k * k, 30.0),  # accelerating: never stable
            ]
            modes.append([r.mode for r in observe_block(sessions, t, centres)])
        assert modes[-1] == [
            SessionMode.PREDICTIVE, SessionMode.SNAPSHOT, SessionMode.NON_PREDICTIVE
        ]
        for session in sessions:
            session.close()


class TestRefusals:
    def _pair(self, buffered):
        native, dual = buffered
        sessions = [DynamicQuerySession(native, dual, (4.0, 4.0)) for _ in range(2)]
        observe_block(sessions, START, [(30.0, 30.0), (60.0, 60.0)])
        return sessions

    @pytest.mark.parametrize("centres, t", [
        ([(30.5, 30.0), (60.5,)], START + PERIOD),  # a centre of the wrong dims
        ([(30.5, 30.0), (60.5, 60.0), (1.0, 1.0)], START + PERIOD),  # one too many
        ([(30.5, 30.0), (60.5, 60.0)], START),  # a frame not after the last
    ])
    def test_a_refused_block_touches_no_session(self, buffered, centres, t):
        sessions = self._pair(buffered)
        before = [_state(s) for s in sessions]
        with pytest.raises(SessionError):
            observe_block(sessions, t, centres)
        assert [_state(s) for s in sessions] == before

    def test_one_frame_per_session(self, buffered):
        session = self._pair(buffered)[0]
        with pytest.raises(SessionError):
            observe_block([session, session], START + PERIOD, [(30.5, 30.0)] * 2)

    def test_one_pair_of_indexes(self, buffered, tiny_segments):
        native, dual = buffered
        other = DualTimeIndex(dims=2)
        other.bulk_load(tiny_segments)
        sessions = [
            DynamicQuerySession(native, dual, (4.0, 4.0)),
            DynamicQuerySession(native, other, (4.0, 4.0)),
        ]
        with pytest.raises(SessionError):
            observe_block(sessions, START, [(30.0, 30.0), (60.0, 60.0)])
        assert all(s.mode_switches == [] for s in sessions)

    def test_an_empty_block(self):
        assert observe_block([], START, []) == []


class TestFailedEvaluation:
    def test_a_failed_load_leaves_every_member_handed_off(self, buffered, monkeypatch):
        """The hand-offs come before the frames are evaluated: a load
        that keeps failing leaves every member in its new mode, with its
        last frame, velocity and cache not advanced."""
        native, dual = buffered
        sessions = [DynamicQuerySession(native, dual, (4.0, 4.0)) for _ in range(3)]
        observe_block(sessions, START, [(30.0, 30.0), (60.0, 60.0), (45.0, 70.0)])
        before = [_state(s) for s in sessions]

        def fail(self, *args, **kwargs):
            raise TransientIOError("injected")

        monkeypatch.setattr(RTree, "load_node", fail)
        with pytest.raises(TransientIOError):
            observe_block(
                sessions, START + PERIOD, [(30.5, 30.0), (60.5, 60.0), (45.5, 70.0)]
            )
        monkeypatch.undo()
        for session, old in zip(sessions, before):
            assert old[0] is SessionMode.SNAPSHOT
            assert session.mode is SessionMode.NON_PREDICTIVE
            assert session.mode_switches[:-1] == old[1]
            assert _state(session)[4:] == old[4:]  # cache, last frame, velocity


class TestServedBlock:
    """A broker of auto clients observes them as one block a tick."""

    TICKS = 24

    def _serve(self, tiny_segments, tiny_config, monkeypatch, per_session):
        native = NativeSpaceIndex(dims=2, page_size=512)
        dual = DualTimeIndex(dims=2, page_size=512)
        native.bulk_load(tiny_segments)
        dual.bulk_load(tiny_segments)
        broker = QueryBroker(
            native, dual=dual,
            clock=SimulatedClock(start=START, period=PERIOD),
            config=ServerConfig(queue_depth=1000, buffer_capacity=64),
        )
        fleet = observer_fleet(
            tiny_config, 6, mode="independent", start_time=START, seed=3
        )
        sessions = [
            broker.register_auto(f"a{i}", path_of(t), (4.0, 4.0))
            for i, t in enumerate(fleet)
        ]
        if per_session:  # each session a block of its own
            for session in sessions:
                AutoSweep().join(session)
        calls = [0]
        load_node = RTree.load_node

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return load_node(self, *args, **kwargs)

        monkeypatch.setattr(RTree, "load_node", counted)
        broker.run(self.TICKS)
        monkeypatch.undo()
        answers = [[(r.mode, r.items) for r in s.poll()] for s in sessions]
        return answers, broker.metrics.physical_reads, calls[0]

    def test_block_reads_no_more_than_per_session(
        self, tiny_segments, tiny_config, monkeypatch
    ):
        block = self._serve(tiny_segments, tiny_config, monkeypatch, False)
        alone = self._serve(tiny_segments, tiny_config, monkeypatch, True)
        assert block[0] == alone[0]
        assert {mode for frames in block[0] for mode, _ in frames} == {
            m.value for m in SessionMode
        }
        assert block[1] == alone[1]
        assert block[2] <= alone[2]
