"""The out-of-process serving stack: wire protocol, worker, front-end.

Three layers, tested innermost-out: the framed protocol must round-trip
every registered library type byte-for-byte and refuse corruption; the
worker's request loop must run entirely in-process against BytesIO
pipes (no subprocess needed to test the state machine); and the real
:class:`RemoteMultiplexBroker` — spawned workers, asyncio barrier,
respawn-and-replay — must produce answer streams identical to the
in-process front-end, including straight through a SIGKILL.
"""

import base64
import io
import json
import math
import struct
import zlib
from dataclasses import asdict

import pytest

from repro.core.query import KNNAnswer
from repro.core.results import AnswerBlock, AnswerItem, NeighborBlock
from repro.core.trajectory import KeySnapshot, QueryTrajectory
from repro.errors import (
    QueryError,
    RemoteProtocolError,
    RemoteWorkerError,
    ServerError,
)
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.motion.segment import SegmentTable
from repro.server import (
    MultiplexBroker,
    RemoteMultiplexBroker,
    ServerConfig,
    SimulatedClock,
    TickResult,
    UpdateOp,
)
from repro.server.remote import protocol as proto
from repro.server.remote.worker import ShardWorker, serve
from repro.workload.observers import path_of

from _helpers import block_of, make_segment

START, PERIOD = 1.0, 0.1
PAGE_SIZE = 512
HALF = (4.0, 4.0)


def frame_round_trip(payload):
    buf = io.BytesIO(proto.pack_frame(proto.MSG_RESULT, payload))
    msg_type, decoded = proto.read_frame(buf)
    assert msg_type == proto.MSG_RESULT
    return decoded


class TestProtocol:
    def test_scalar_and_container_round_trip(self):
        payload = {"a": [1, 2.5, "x", None, True], "b": {"nested": [-3]}}
        assert frame_round_trip(payload) == payload

    def test_registered_types_round_trip(self):
        seg = make_segment(7, 2, 1.25, 3.75, (0.125, -2.5), (1.0, 0.5))
        traj = QueryTrajectory(
            [
                KeySnapshot(1.0, Box.from_bounds((0.0, 0.0), (2.0, 2.0))),
                KeySnapshot(2.0, Box.from_bounds((1.0, 1.0), (3.0, 3.0))),
            ]
        )
        op = UpdateOp(1.5, "insert", seg)
        decoded = frame_round_trip(
            {"seg": seg, "traj": traj, "op": op, "iv": Interval(0.1, 0.7)}
        )
        assert decoded["seg"] == seg
        assert decoded["traj"].key_snapshots == traj.key_snapshots
        assert decoded["op"] == op
        assert decoded["iv"] == Interval(0.1, 0.7)

    def test_floats_survive_exactly(self):
        # repr-round-trippable floats are the bedrock of byte-identical
        # answers across the process boundary.
        values = [0.1, 1.0 / 3.0, 2.0 ** -40, 1e300]
        assert frame_round_trip(values) == values

    def test_canonical_encoding_is_key_order_independent(self):
        a = proto.pack_frame(proto.MSG_RESULT, {"x": 1, "y": 2})
        b = proto.pack_frame(proto.MSG_RESULT, {"y": 2, "x": 1})
        assert a == b

    def test_bad_magic_rejected(self):
        raw = bytearray(proto.pack_frame(proto.MSG_RESULT, {}))
        raw[0:4] = b"XXXX"
        with pytest.raises(RemoteProtocolError):
            proto.read_frame(io.BytesIO(bytes(raw)))

    def test_wrong_version_rejected(self):
        raw = bytearray(proto.pack_frame(proto.MSG_RESULT, {}))
        raw[4] = proto.PROTOCOL_VERSION + 1
        with pytest.raises(RemoteProtocolError):
            proto.read_frame(io.BytesIO(bytes(raw)))

    def test_corrupt_body_fails_crc(self):
        raw = bytearray(proto.pack_frame(proto.MSG_RESULT, {"k": 12345}))
        raw[-1] ^= 0xFF
        with pytest.raises(RemoteProtocolError, match="CRC32"):
            proto.read_frame(io.BytesIO(bytes(raw)))

    def test_truncated_frame_is_corruption_not_eof(self):
        raw = proto.pack_frame(proto.MSG_RESULT, {"k": "value"})
        with pytest.raises(RemoteProtocolError, match="short"):
            proto.read_frame(io.BytesIO(raw[:-3]))

    def test_clean_eof_returns_none(self):
        assert proto.read_frame(io.BytesIO(b"")) is None

    def test_unregistered_type_refused(self):
        with pytest.raises(RemoteProtocolError, match="registry"):
            proto.pack_frame(proto.MSG_RESULT, {"bad": object()})

    def test_unknown_wire_tag_refused(self):
        # Hand-craft a frame carrying an unknown tag.
        import json
        import struct
        import zlib

        body = json.dumps({"!dq": "nope", "v": 1}).encode()
        header = struct.Struct("<4sBB2xII").pack(
            proto.FRAME_MAGIC,
            proto.PROTOCOL_VERSION,
            proto.MSG_RESULT,
            len(body),
            zlib.crc32(body) & 0xFFFFFFFF,
        )
        with pytest.raises(RemoteProtocolError, match="tag"):
            proto.read_frame(io.BytesIO(header + body))


def _answers(dims, bounds):
    """Answer items over ``dims``-d segments with the given visibilities."""
    return [
        AnswerItem(
            make_segment(
                10 + i, i, -1.5, 4.25, tuple(0.5 * i + d for d in range(dims)),
                tuple(-0.125 * d for d in range(dims)),
            ),
            Interval(low, high),
        )
        for i, (low, high) in enumerate(bounds)
    ]


EDGES = [(-0.0, 1.5), (-math.inf, math.inf), (0.25, -0.0), (1.0 / 3.0, 2.0 ** -40)]


def _block_frame(tamper):
    """A RESULT frame whose one answer block went through ``tamper``."""
    result = TickResult(
        index=0, start=0.0, end=0.1, mode="pdq", items=block_of(_answers(2, EDGES))
    )
    body = json.loads(proto.pack_frame(proto.MSG_RESULT, [result])[16:])
    block = body[0]["v"]["items"]
    block["v"] = base64.b64encode(tamper(base64.b64decode(block["v"]))).decode()
    raw = json.dumps(body, separators=(",", ":"), sort_keys=True).encode()
    header = struct.Struct("<4sBB2xII").pack(
        proto.FRAME_MAGIC, proto.PROTOCOL_VERSION, proto.MSG_RESULT,
        len(raw), zlib.crc32(raw) & 0xFFFFFFFF,
    )
    return header + raw


class TestAnswerBlocks:
    """Protocol v3: a result's answers cross as packed column blocks."""

    @staticmethod
    def bits(items):
        return [
            (i.record, struct.pack("<2d", i.visibility.low, i.visibility.high))
            for i in items
        ]

    def test_blocks_round_trip_byte_exactly(self):
        two, three = _answers(2, EDGES), _answers(3, EDGES[::-1])
        neighbors = [KNNAnswer(i.record, d) for i, d in zip(three, (-0.0, 0.5, math.inf, 0.0))]
        results = [
            TickResult(index=4, start=1.0, end=1.1, mode="npdq",
                       items=block_of(two), prefetched=block_of(three[:1])),
            TickResult(index=4, start=1.0, end=1.1, mode="knn",
                       neighbors=block_of(neighbors), k=4),
            TickResult(index=4, start=1.0, end=1.1, mode="pdq"),
        ]
        frame = proto.pack_frame(proto.MSG_RESULT, {"results": results})
        msg_type, decoded = proto.read_frame(io.BytesIO(frame))
        assert msg_type == proto.MSG_RESULT
        assert proto.pack_frame(proto.MSG_RESULT, decoded) == frame
        got = decoded["results"]
        assert self.bits(got[0].items) == self.bits(two)
        assert self.bits(got[0].prefetched) == self.bits(three[:1])
        assert [(n.record, struct.pack("<d", n.distance)) for n in got[1].neighbors] == [
            (n.record, struct.pack("<d", n.distance)) for n in neighbors
        ]
        assert got[2].items is AnswerBlock.EMPTY
        assert got[2].neighbors is NeighborBlock.EMPTY
        assert got[1] == results[1] and got[0] == results[0]

    def test_untampered_block_frame_decodes(self):
        _, (result,) = proto.read_frame(io.BytesIO(_block_frame(lambda b: b)))
        assert self.bits(result.items) == self.bits(_answers(2, EDGES))

    @pytest.mark.parametrize(
        "tamper, message",
        [
            # the id column claims one value fewer than the block's rows
            (lambda b: b[:12] + struct.pack("<I", 3) + b[16:], r"\[3, 4, 4, 4\] for 4 rows"),
            (lambda b: b[:-8], "bytes"),
            (lambda b: b[:5], "truncated"),
            (lambda b: b[:16] + b"f" + b[17:], "dtype code"),
            (lambda b: b"\x07" + b[1:], "block kind"),
        ],
        ids=["column-length", "short-body", "short-header", "dtype", "kind"],
    )
    def test_malformed_block_is_refused_whole(self, tamper, message):
        with pytest.raises(RemoteProtocolError, match=message):
            proto.read_frame(io.BytesIO(_block_frame(tamper)))

    def test_version_2_frame_is_refused(self):
        raw = bytearray(_block_frame(lambda b: b))
        raw[4] = 2
        with pytest.raises(RemoteProtocolError, match="version 2"):
            proto.read_frame(io.BytesIO(bytes(raw)))


def _table(dims=2):
    """A segment table whose floats include both zeros and extremes."""
    return SegmentTable.of(
        make_segment(
            7 - i, 2 * i, (-0.0, 0.5, 1.0 / 3.0, 2.0)[i], (0.0, 0.5, 1.0, 2.0 ** 40)[i],
            tuple((-0.0, 1e-300, -2.5, 9.75)[(i + d) % 4] for d in range(dims)),
            tuple((0.0, -0.0, 0.125, -1e6)[(i + 2 * d) % 4] for d in range(dims)),
        )
        for i in range(4)
    )


def _table_frame(tamper):
    """A LOAD frame, CRC intact, whose table block went through ``tamper``."""
    body = json.loads(proto.pack_frame(proto.MSG_LOAD, {"segments": _table()})[16:])
    block = body["segments"]
    block["v"] = base64.b64encode(tamper(base64.b64decode(block["v"]))).decode()
    raw = json.dumps(body, separators=(",", ":"), sort_keys=True).encode()
    header = struct.Struct("<4sBB2xII").pack(
        proto.FRAME_MAGIC, proto.PROTOCOL_VERSION, proto.MSG_LOAD,
        len(raw), zlib.crc32(raw) & 0xFFFFFFFF,
    )
    return header + raw


class TestSegmentTables:
    """A LOAD ships a shard's bucket as one packed segment table."""

    @pytest.mark.parametrize("dims", [2, 3])
    def test_table_round_trips_byte_exactly(self, dims):
        table = _table(dims)
        for sent in (table, SegmentTable.of([])):  # a bucket, an empty bucket
            frame = proto.pack_frame(proto.MSG_LOAD, {"segments": sent})
            _, payload = proto.read_frame(io.BytesIO(frame))
            got = payload["segments"]
            assert proto.pack_frame(proto.MSG_LOAD, payload) == frame
            assert len(got) == len(sent) and got.records is None
            assert got.ids.tobytes() == sent.ids.tobytes()
            assert got.segments.records().tobytes() == sent.segments.records().tobytes()
        _, payload = proto.read_frame(
            io.BytesIO(proto.pack_frame(proto.MSG_LOAD, {"segments": table}))
        )
        first = payload["segments"].segments.records()[0].tolist()
        assert [struct.pack("<d", x) for x in first[:3]] == [
            struct.pack("<d", x) for x in (-0.0, 0.0, -0.0)
        ]

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda b: b[:-8], "bytes"),
            # the seq column claims one value fewer than the table's rows
            (lambda b: b[:20] + struct.pack("<I", 3) + b[24:], r"\[4, 3\] for 4 rows"),
            (lambda b: b[:8] + b"f" + b[9:], "dtype code"),
            # rows declared 3-d, sent 2-d
            (lambda b: b[:2] + b"\x03" + b[3:], "in 3 dims is"),
            # a crossed validity interval: t0 = 2**40 > t1
            (lambda b: b[:88] + struct.pack("<d", 2.0 ** 41) + b[96:], "refused"),
        ],
        ids=["short-body", "column-length", "dtype", "row-width", "crossed"],
    )
    def test_malformed_table_is_refused_whole(self, tamper, message):
        with pytest.raises(RemoteProtocolError, match=message):
            proto.read_frame(io.BytesIO(_table_frame(tamper)))

    def test_worker_refuses_a_malformed_load_and_keeps_serving(self):
        requests = io.BytesIO()
        proto.write_frame(requests, proto.MSG_HELLO, hello_payload())
        requests.write(_table_frame(lambda b: b[:-8]))
        proto.write_frame(requests, proto.MSG_LOAD, {"segments": []})
        proto.write_frame(requests, proto.MSG_LOAD, {"segments": _table()})
        proto.write_frame(requests, proto.MSG_SHUTDOWN, {})
        requests.seek(0)
        replies = io.BytesIO()
        assert serve(requests, replies) == 0
        replies.seek(0)
        frames = []
        while (frame := proto.read_frame(replies)) is not None:
            frames.append(frame)
        assert [t for t, _ in frames] == [
            proto.MSG_RESULT, proto.MSG_ERROR, proto.MSG_ERROR,
            proto.MSG_RESULT, proto.MSG_RESULT,
        ]
        assert "bytes" in frames[1][1]["error"]
        assert "no segment table" in frames[2][1]["error"]
        assert frames[3][1] == {"records": 4}


def hello_payload(dual=True):
    return {
        "shard_id": 0,
        "dims": 2,
        "page_size": PAGE_SIZE,
        "dual": dual,
        "clock_start": START,
        "clock_period": PERIOD,
        "config": asdict(ServerConfig(queue_depth=1000)),
    }


class TestShardWorkerInProcess:
    """The worker state machine, driven without any subprocess."""

    def test_request_before_hello_is_refused(self):
        worker = ShardWorker()
        with pytest.raises(RemoteProtocolError, match="before HELLO"):
            worker.handle(proto.MSG_TICK, {"index": 0, "start": 1.0, "end": 1.1})

    def test_shutdown_before_hello_is_a_noop(self):
        assert ShardWorker().handle(proto.MSG_SHUTDOWN, {}) == {"expired": 0}

    def test_unknown_message_type_is_refused(self):
        with pytest.raises(RemoteProtocolError, match="cannot handle"):
            ShardWorker().handle(99, {})

    def test_hello_config_must_match_field_for_field(self):
        # Outside input: a key the worker does not know, or one it
        # would have to default, is refused by name with a protocol
        # error (an ERROR reply, not a dead worker), and the worker
        # lives to take a well-formed HELLO.
        worker = ShardWorker()
        stale = hello_payload()
        stale["config"]["npdq_predict_margin"] = 2.0
        stale["config"]["auto_route_refresh"] = 3
        stale["config"]["latency"] = [1.0, 0.0]
        stale["config"]["promote_depth"] = 1
        with pytest.raises(
            RemoteProtocolError,
            match=r"unknown fields \['auto_route_refresh', 'latency', "
            r"'npdq_predict_margin', 'promote_depth'\]",
        ):
            worker.handle(proto.MSG_HELLO, stale)
        sparse = hello_payload()
        del sparse["config"]["queue_depth"]
        with pytest.raises(
            RemoteProtocolError, match=r"missing fields \['queue_depth'\]"
        ):
            worker.handle(proto.MSG_HELLO, sparse)
        for bad_config in (
            5, {**hello_payload()["config"], "max_clients": "many"}
        ):
            with pytest.raises(RemoteProtocolError, match="malformed HELLO"):
                worker.handle(
                    proto.MSG_HELLO, {**hello_payload(), "config": bad_config}
                )
        assert worker.shard is None
        assert worker.handle(proto.MSG_HELLO, hello_payload())["shard_id"] == 0

    def test_full_session_over_bytesio_pipes(self, fleet):
        traj = fleet(1, duration=1.0)[0]
        segments = [
            make_segment(i, 0, START, START + 2.0, (float(i), 0.0), (0.1, 0.0))
            for i in range(8)
        ]
        requests = io.BytesIO()
        proto.write_frame(requests, proto.MSG_HELLO, hello_payload())
        proto.write_frame(
            requests, proto.MSG_LOAD, {"segments": SegmentTable.of(segments)}
        )
        proto.write_frame(
            requests,
            proto.MSG_REGISTER,
            {"client_id": "c0", "kind": "pdq", "trajectory": traj,
             "kwargs": {}},
        )
        # A deterministic application failure: an unknown session kind
        # must come back as an ERROR reply, not kill the loop.
        proto.write_frame(
            requests,
            proto.MSG_REGISTER,
            {"client_id": "c1", "kind": "bogus", "trajectory": traj,
             "kwargs": {}},
        )
        proto.write_frame(
            requests,
            proto.MSG_TICK,
            {"index": 0, "start": START, "end": START + PERIOD,
             "quiet": False},
        )
        proto.write_frame(requests, proto.MSG_SHUTDOWN, {})
        requests.seek(0)

        replies_raw = io.BytesIO()
        assert serve(requests, replies_raw) == 0
        replies_raw.seek(0)
        replies = []
        while True:
            frame = proto.read_frame(replies_raw)
            if frame is None:
                break
            replies.append(frame)
        types = [t for t, _ in replies]
        assert types == [
            proto.MSG_RESULT,  # HELLO
            proto.MSG_RESULT,  # LOAD
            proto.MSG_RESULT,  # REGISTER c0
            proto.MSG_ERROR,  # REGISTER c1 (bogus kind)
            proto.MSG_RESULT,  # TICK
            proto.MSG_RESULT,  # SHUTDOWN
        ]
        hello = replies[0][1]
        assert hello["shard_id"] == 0
        assert replies[1][1] == {"records": len(segments)}
        tick = replies[4][1]
        assert [cid for cid, _ in tick["results"]] == ["c0"]
        assert "c0" in tick["clients"]

    def test_quiet_tick_serves_but_ships_no_results(self, fleet):
        worker = ShardWorker()
        worker.handle(proto.MSG_HELLO, hello_payload())
        worker.handle(
            proto.MSG_REGISTER,
            {"client_id": "c0", "kind": "pdq",
             "trajectory": fleet(1, duration=1.0)[0], "kwargs": {}},
        )
        reply = worker.handle(
            proto.MSG_TICK,
            {"index": 0, "start": START, "end": START + PERIOD,
             "quiet": True},
        )
        assert reply["results"] == []
        assert "c0" in reply["clients"]

    def test_failed_tick_ships_nothing_with_the_next(self, fleet):
        """Sessions served before the one that raised have queued the
        failed tick's results; the ERROR reply must not leave them to
        ride along in the next tick's RESULT frame."""
        worker = ShardWorker()
        worker.handle(proto.MSG_HELLO, hello_payload())
        worker.handle(
            proto.MSG_LOAD,
            {"segments": SegmentTable.of(
                make_segment(i, 0, START, START + 2.0, (float(i), 0.0), (0.1, 0.0))
                for i in range(8)
            )},
        )
        for cid, traj in zip(("c0", "c1", "c2"), fleet(3, duration=1.0)):
            worker.handle(
                proto.MSG_REGISTER,
                {"client_id": cid, "kind": "pdq", "trajectory": traj,
                 "kwargs": {}},
            )

        def tick(index):
            return worker.handle(
                proto.MSG_TICK,
                {"index": index, "start": START + index * PERIOD,
                 "end": START + (index + 1) * PERIOD, "quiet": False},
            )

        tick(0)
        failing = worker.shard.broker.session("c1")
        serve_c1 = failing.serve

        def raise_once(tick):
            failing.serve = serve_c1
            raise QueryError("engine failed")

        failing.serve = raise_once
        with pytest.raises(QueryError, match="engine failed"):
            tick(1)
        reply = tick(2)
        assert [
            (cid, [r.index for r in polled]) for cid, polled in reply["results"]
        ] == [("c0", [2]), ("c1", [2]), ("c2", [2])]


def frames_of(broker, ticks):
    """Run ``ticks`` and collect hashable per-client answer frames."""
    out = {}
    for _ in range(ticks):
        broker.run_tick()
        for session in broker.sessions:
            for r in session.poll():
                out.setdefault(session.client_id, []).append(
                    (
                        r.index,
                        r.mode,
                        frozenset(i.key for i in r.items),
                        frozenset(i.key for i in r.prefetched),
                    )
                )
    return out


def register_fleet(broker, trajectories, remote):
    for i, traj in enumerate(trajectories):
        kind = ("pdq", "npdq", "auto")[i % 3]
        cid = f"c{i}"
        if kind == "pdq":
            broker.register("pdq", cid, trajectory=traj)
        elif kind == "npdq":
            broker.register("npdq", cid, trajectory=traj)
        elif remote:
            broker.register_auto(cid, traj, HALF)
        else:
            broker.register_auto(cid, path_of(traj), HALF)


class TestRemoteMultiplexBroker:
    TICKS = 8

    def build(self, segments, shards, **kwargs):
        return RemoteMultiplexBroker.over_segments(
            segments,
            shards=shards,
            clock=SimulatedClock(start=START, period=PERIOD),
            config=ServerConfig(queue_depth=1000),
            page_size=PAGE_SIZE,
            **kwargs,
        )

    def scenario(self, tiny_segments, fleet, shards, **kwargs):
        trajectories = fleet(
            3, mode="spread", duration=self.TICKS * PERIOD + 0.5
        )
        broker = self.build(tiny_segments, shards, **kwargs)
        try:
            register_fleet(broker, trajectories, remote=True)
            broker.submit_inserts(
                [
                    make_segment(
                        9400, 3, START + 2 * PERIOD, START + 1.0,
                        trajectories[0].window_at(START + 2 * PERIOD).center,
                        (0.0, 0.0),
                    )
                ]
            )
            frames = frames_of(broker, self.TICKS)
            expired = broker.quiesce()
        finally:
            broker.close()
        return frames, expired

    def test_matches_in_process_front_end(
        self, tiny_segments, fleet
    ):
        trajectories = fleet(
            3, mode="spread", duration=self.TICKS * PERIOD + 0.5
        )
        insert = make_segment(
            9400, 3, START + 2 * PERIOD, START + 1.0,
            trajectories[0].window_at(START + 2 * PERIOD).center, (0.0, 0.0),
        )

        inproc = MultiplexBroker.over_segments(
            tiny_segments,
            shards=2,
            clock=SimulatedClock(start=START, period=PERIOD),
            config=ServerConfig(queue_depth=1000),
            page_size=PAGE_SIZE,
        )
        register_fleet(inproc, trajectories, remote=False)
        inproc.submit_inserts([insert])
        expected = frames_of(inproc, self.TICKS)
        inproc.quiesce()

        remote = self.build(tiny_segments, 2)
        try:
            register_fleet(remote, trajectories, remote=True)
            remote.submit_inserts([insert])
            got = frames_of(remote, self.TICKS)
            remote.quiesce()
        finally:
            remote.close()

        assert got == expected

    def test_sigkill_respawn_replays_to_identical_answers(
        self, tiny_segments, fleet
    ):
        baseline, expired0 = self.scenario(tiny_segments, fleet, shards=2)
        chaotic, expired1 = self.scenario(
            tiny_segments, fleet, shards=2, kill_plan={3: 1}
        )
        assert chaotic == baseline
        assert expired1 == expired0

    def test_kill_right_after_load_replays_the_packed_table(
        self, tiny_segments, fleet
    ):
        baseline, expired0 = self.scenario(tiny_segments, fleet, shards=2)
        chaotic, expired1 = self.scenario(
            tiny_segments, fleet, shards=2, kill_plan={0: 0}
        )
        assert chaotic == baseline
        assert expired1 == expired0

    def test_kill_is_counted_in_shard_health(self, tiny_segments, fleet):
        trajectories = fleet(1, duration=self.TICKS * PERIOD + 0.5)
        broker = self.build(tiny_segments, 2, kill_plan={2: 0})
        try:
            broker.register("pdq", "c0", trajectory=trajectories[0])
            broker.run(self.TICKS)
            health = broker.metrics.shard_health
            assert health[0].restarts >= 1
            assert health[0].crashes >= 1
            assert health[1].restarts == 0
            assert "per-shard:" in broker.summary()
            broker.quiesce()
        finally:
            broker.close()

    def test_deterministic_worker_error_is_surfaced_not_retried(
        self, tiny_segments, fleet
    ):
        traj = fleet(1, duration=1.0)[0]
        broker = self.build(tiny_segments, 2)
        try:
            handle = broker.workers[0]
            with pytest.raises(RemoteWorkerError, match="bogus"):
                broker._run(
                    broker._request(
                        handle,
                        proto.MSG_REGISTER,
                        {"client_id": "x", "kind": "bogus",
                         "trajectory": traj, "kwargs": {}},
                    )
                )
            # The worker survived the failed request and keeps serving.
            assert handle.health.restarts == 0
            broker.register("pdq", "c0", trajectory=traj)
            broker.run_tick()
        finally:
            broker.close()

    def test_auto_requires_dual(self, tiny_segments, fleet):
        traj = fleet(1, duration=1.0)[0]
        broker = self.build(tiny_segments, 2, dual=False)
        try:
            with pytest.raises(ServerError, match="dual"):
                broker.register_auto("c0", traj, HALF)
        finally:
            broker.close()
