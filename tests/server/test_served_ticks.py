"""A served tick reads page columns and builds no entry object.

PDQ, NPDQ and kNN sessions evaluate pages through the batch kernels and
take each answer's record from the leaf's record column, so once the
clients are registered no ``LeafEntry`` or ``InternalEntry`` is made —
on an in-memory tree, where the record column holds the loaded
segments, and on a codec-backed one, where records are built from the
decoded rows.
"""

from __future__ import annotations

import pytest

from repro.core import QuerySpec
from repro.index.codec import ChecksummedCodec, DualTimeNodeCodec, NativeNodeCodec
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
