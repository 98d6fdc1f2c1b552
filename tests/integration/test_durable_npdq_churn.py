"""NPDQ and auto clients over the file backend under insert churn.

The page codecs store one operation-clock stamp per node.  A decoded
*internal* entry used to come back with stamp 0, so after a page
round-trip NPDQ's update suppression ("this subtree's stamp predates my
previous query, whose box covered it") discarded subtrees that had just
taken an insert: fresh segments reached non-predictive clients late or
never, and an auto client's cache saw them arrive after their
visibility had started (``QueryError`` from
``DynamicQuerySession.observe``).

Decoded stamps are over-approximations (DESIGN.md §11.4), so the file
backend may *re*-deliver what the in-memory backend suppresses — the
streams are not byte-equal under churn.  What must hold is that the
file backend is never behind: frame by frame its cumulative deliveries
contain the in-memory backend's, and the exact answers ever delivered
are the same.
"""

import struct

from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.index.codec import (
    ChecksummedCodec,
    DualTimeNodeCodec,
    NativeNodeCodec,
)
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.motion.segment import MotionSegment
from repro.server import QueryBroker, ServerConfig, SimulatedClock, UpdateOp
from repro.storage.file import TickDurability, open_durable
from repro.workload.observers import observer_fleet, path_of

from _helpers import make_segment

START, PERIOD, TICKS = 1.0, 0.1, 25
HALF = (4.0, 4.0)
# Small pages make leaf MBRs small enough for a query box to cover them
# (the precondition of update suppression); a small pool forces the
# page round-trips that lose in-memory stamps.
PAGE_SIZE = 512
POOL = 64


def _f32(x: float) -> float:
    return struct.unpack("<f", struct.pack("<f", x))[0]


def as_stored(records):
    """Coordinates at page-codec precision, so both backends hold the
    same population."""
    return [
        MotionSegment(
            r.object_id,
            r.seq,
            SpaceTimeSegment(
                Interval(_f32(r.segment.time.low), _f32(r.segment.time.high)),
                tuple(map(_f32, r.segment.origin)),
                tuple(map(_f32, r.segment.velocity)),
            ),
        )
        for r in records
    ]


def churn(fleet):
    """One insert per client and tick, just ahead of its window centre."""
    ops = []
    for k in range(1, TICKS):
        due = START + k * PERIOD
        for i, trajectory in enumerate(fleet):
            x, y = trajectory.window_at(due + PERIOD).center
            (segment,) = as_stored(
                [
                    make_segment(
                        9000 + 10 * k + i, 0, due, due + 1.0,
                        (x + 0.5, y - 0.5), (0.0, 0.0),
                    )
                ]
            )
            ops.append(UpdateOp(due, "insert", segment))
    return ops


def serve(broker, fleet):
    for i, trajectory in enumerate(fleet):
        if i % 2 == 0:
            broker.register("npdq", f"npdq-{i}", trajectory=trajectory)
        else:
            broker.register_auto(f"auto-{i}", path_of(trajectory), HALF)
    for op in churn(fleet):
        broker.dispatcher.submit(op)
    frames = {}
    for _ in range(TICKS):
        broker.run_tick()  # a late delivery raises QueryError here
        for session in broker.sessions:
            for r in session.poll():
                frames.setdefault(session.client_id, []).append(
                    (
                        {i.key for i in r.items},
                        {i.key for i in r.items} | {i.key for i in r.prefetched},
                    )
                )
    broker.quiesce()
    return frames


def test_file_backend_never_delivers_later_than_memory(
    tmp_path, tiny_config, tiny_segments
):
    segments = as_stored(tiny_segments)
    fleet = observer_fleet(
        tiny_config, 4, mode="spread", duration=TICKS * PERIOD + 0.5,
        start_time=START, seed=5,
    )
    config = ServerConfig(buffer_capacity=POOL)

    native = NativeSpaceIndex(dims=2, page_size=PAGE_SIZE)
    native.bulk_load(segments)
    dual = DualTimeIndex(dims=2, page_size=PAGE_SIZE)
    dual.bulk_load(segments)
    in_memory = serve(
        QueryBroker(
            native, dual,
            clock=SimulatedClock(start=START, period=PERIOD), config=config,
        ),
        fleet,
    )

    stores, indexes = [], []
    for name, index_cls, codec_cls in (
        ("native", NativeSpaceIndex, NativeNodeCodec),
        ("dual", DualTimeIndex, DualTimeNodeCodec),
    ):
        disk, log, _report = open_durable(
            str(tmp_path), name, codec=ChecksummedCodec(codec_cls(2)),
            page_size=PAGE_SIZE, sync_on_commit=False, through_tick=-1,
            fresh=True,
        )
        index = index_cls(dims=2, disk=disk, page_size=PAGE_SIZE)
        index.bulk_load(segments)
        disk.checkpoint(meta=index.tree.recovery_meta())
        stores.append((disk, log, index.tree.recovery_meta))
        indexes.append(index)
    hook = TickDurability(stores, checkpoint_every=8)
    try:
        on_file = serve(
            QueryBroker(
                *indexes,
                clock=SimulatedClock(start=START, period=PERIOD),
                config=config, durability=hook,
            ),
            fleet,
        )
    finally:
        hook.close()

    assert sorted(on_file) == sorted(in_memory)
    for client_id, reference in in_memory.items():
        seen_memory, seen_file = set(), set()
        exact_memory, exact_file = set(), set()
        for (items_m, all_m), (items_f, all_f) in zip(
            reference, on_file[client_id]
        ):
            seen_memory |= all_m
            seen_file |= all_f
            exact_memory |= items_m
            exact_file |= items_f
            assert seen_memory <= seen_file, client_id
        assert exact_file == exact_memory, client_id
        assert any(key[0] >= 9000 for key in exact_file), client_id
