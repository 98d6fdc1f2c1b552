"""A served tick reads page columns and builds no entry object, and
its answers stay columns until somebody reads them.

PDQ, NPDQ and kNN sessions evaluate pages through the batch kernels and
take each answer's record from the leaf's record column, so once the
clients are registered no ``LeafEntry`` or ``InternalEntry`` is made —
on an in-memory tree, where the record column holds the loaded
segments, and on a codec-backed one, where records are built from the
decoded rows.  Each frame's answers are one column block: no
``AnswerItem``, ``KNNAnswer`` or visibility ``Interval`` is built while
serving, and a kept frame costs the collector a bounded number of
tracked objects, however many answers it holds.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import QuerySpec
from repro.core.query import KNNAnswer
from repro.core.results import AnswerItem
from repro.core.trajectory import QueryTrajectory
from repro.geometry.interval import Interval
from repro.geometry.kernels import QueryBlock
from repro.index.codec import ChecksummedCodec, DualTimeNodeCodec, NativeNodeCodec
from repro.index.pagearrays import PageRows
from repro.index.dualtime import DualTimeIndex
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.nsi import NativeSpaceIndex
from repro.server import QueryBroker, ServerConfig, SimulatedClock
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

START, PERIOD, TICKS = 1.0, 0.1, 10


def build(backing, segments):
    indexes = []
    for flavour, codec in (
        (NativeSpaceIndex, NativeNodeCodec),
        (DualTimeIndex, DualTimeNodeCodec),
    ):
        disk = None
        if backing == "codec":
            disk = DiskManager(codec=ChecksummedCodec(codec(2)), buffer_pool=BufferPool(64))
        index = flavour(dims=2, disk=disk, page_size=512)
        index.bulk_load(segments)
        indexes.append(index)
    return QueryBroker(
        *indexes,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=1000),
    )


@pytest.mark.parametrize("backing", ["memory", "codec"])
def test_no_entry_object_after_registration(backing, tiny_segments, fleet, monkeypatch):
    broker = build(backing, tiny_segments)
    for i, trajectory in enumerate(fleet(6, mode="spread", duration=TICKS * PERIOD + 0.5)):
        spec = (
            QuerySpec.range(trajectory),
            QuerySpec.range(trajectory, predictive=False),
            QuerySpec.knn(trajectory, 3),
        )[i % 3]
        broker.register_query(f"c{i}", spec)
    built = {LeafEntry: 0, InternalEntry: 0}
    for cls in built:
        original = cls.__init__

        def counting(self, *args, _cls=cls, _init=original, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    answers = 0
    try:
        for _ in range(TICKS):
            broker.run_tick()
            for session in broker.sessions:
                for result in session.poll():
                    answers += len(result.items) + len(result.neighbors)
    finally:
        broker.quiesce()
    assert answers > 0
    assert built == {LeafEntry: 0, InternalEntry: 0}


#: Where a served tick still builds an ``Interval`` that is no answer's:
#: the client's query geometry (its window and the frame's time, once a
#: sweep) and, on a codec-backed tree, the records a decoded leaf builds
#: once for its record column.
_NOT_ANSWERS = (
    (QueryTrajectory, "window_at"),
    (QueryTrajectory, "frame_query"),
    (QueryBlock, "frames"),
    (PageRows, "_make_records"),
)


@pytest.mark.parametrize("backing", ["memory", "codec"])
def test_no_answer_object_while_serving(backing, tiny_segments, fleet, monkeypatch):
    broker = build(backing, tiny_segments)
    kinds = ("pdq", "npdq", "knn", "aggregate", "pdq")
    for i, trajectory in enumerate(fleet(10, mode="spread", duration=TICKS * PERIOD + 0.5)):
        kind = kinds[i % len(kinds)]
        params = {"k": 3} if kind == "knn" else {}
        broker.register(kind, f"c{i}", trajectory=trajectory, **params)
    broker.session("c4").shed(0.5, 2)  # two shed pdq clients
    broker.session("c9").shed(0.5, 1)
    built = {AnswerItem: 0, KNNAnswer: 0, Interval: 0}
    inside = [0]  # depth of _NOT_ANSWERS frames on the stack
    for owner, name in _NOT_ANSWERS:
        original = getattr(owner, name)

        def not_an_answer(*args, _fn=original, **kwargs):
            inside[0] += 1
            try:
                return _fn(*args, **kwargs)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(owner, name, not_an_answer)
    for cls in built:
        original = cls.__init__

        def counting(self, *args, _cls=cls, _init=original, **kwargs):
            if _cls is not Interval or not inside[0]:
                built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    answers, modes = 0, set()
    try:
        for _ in range(TICKS):
            broker.run_tick()
            for session in broker.sessions:
                for result in session.poll():
                    answers += len(result.items) + len(result.neighbors)
                    modes.add(result.mode)
    finally:
        broker.quiesce()
    assert answers > 0
    assert modes == {"pdq", "spdq", "npdq", "knn", "aggregate"}
    assert built == {AnswerItem: 0, KNNAnswer: 0, Interval: 0}


@pytest.mark.parametrize("backing", ["memory", "codec"])
def test_kept_frames_cost_the_collector_three_objects_each(
    backing, tiny_segments, fleet, monkeypatch
):
    # The frames of a round are kept (the benchmark keeps them all): a
    # frame is its TickResult, its block and the block's record column,
    # whatever it holds; the answer rows are tuples of atomics, which
    # the collector stops tracking.  A decoded leaf builds each row's
    # record (segment, geometry, validity) once, for its record column:
    # those belong to the pool's pages, not to a frame.
    ticks = 50
    records = [0]
    make_records = PageRows._make_records

    def counted(self, rows):
        made = make_records(self, rows)
        records[0] += len(made)
        return made

    monkeypatch.setattr(PageRows, "_make_records", counted)
    broker = build(backing, tiny_segments)
    wide = fleet(16, mode="spread", duration=ticks * PERIOD + 1.0, window_side=40.0)
    for i, trajectory in enumerate(wide):
        broker.register("pdq", f"c{i}", trajectory=trajectory)
    kept = []
    try:
        broker.run_tick()  # the first tick seeds every queue
        for session in broker.sessions:
            kept.extend(session.poll())
        gc.collect()
        before, first, records[0] = len(gc.get_objects()), len(kept), 0
        for _ in range(ticks):
            broker.run_tick()
            for session in broker.sessions:
                kept.extend(session.poll())
        gc.collect()
        grown = len(gc.get_objects()) - before
    finally:
        broker.quiesce()
    frames = kept[first:]
    assert len(frames) == 16 * ticks
    assert sum(len(f.items) for f in frames) > 2 * len(frames)  # answers abound
    assert (backing == "memory") == (records[0] == 0)
    assert grown <= 3 * len(frames) + 3 * records[0], grown
