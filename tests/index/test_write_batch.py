"""A write batch is one insert at a time, written once.

``RTree.insert_batch`` runs each record's descent and splits exactly as
``insert`` would, but as one transaction that writes each dirtied node
once and notifies listeners after the commit.  These differential tests
feed the same random insert stream to two trees — one insert at a time,
and cut into random batches of 1 to 16 — and require everything a reader
can see to be identical: every page's content, root, size and clock,
every notice field for field, and every live PDQ engine's heap, expanded
set, costs and next answers.  The trees are small-paged so batches split
leaves and the root; they run in memory and over a checksummed codec,
with and without a buffer pool.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.pdq import PDQEngine
from repro.core.trajectory import QueryTrajectory
from repro.errors import TransientIOError
from repro.index.codec import ChecksummedCodec, NativeNodeCodec
from repro.index.nsi import NativeSpaceIndex
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.faults import FaultInjector
from repro.storage.wal import IntentLog

from _helpers import make_segment

PAGE_SIZE = 256  # leaf fanout 7, internal fanout 8: frequent splits
BASE = 12

STORAGE = {
    "memory": lambda: DiskManager(intent_log=IntentLog()),
    "memory-pool": lambda: DiskManager(
        buffer_pool=BufferPool(4), intent_log=IntentLog()
    ),
    "codec": lambda: DiskManager(
        codec=ChecksummedCodec(NativeNodeCodec(2)), intent_log=IntentLog()
    ),
    "codec-pool": lambda: DiskManager(
        codec=ChecksummedCodec(NativeNodeCodec(2)),
        buffer_pool=BufferPool(4),
        intent_log=IntentLog(),
    ),
}


def segments(seed, count):
    """Float32-exact random segments over [0, 10]² × [0, 4]."""
    rng = random.Random(seed)

    def coord(high):
        return float(rng.randrange(0, int(high * 8))) / 8

    out = []
    for oid in range(count):
        t0 = coord(3.0)
        out.append(
            make_segment(
                oid, 0, t0, t0 + 0.25 + coord(1.0),
                (coord(10.0), coord(10.0)),
                (coord(2.0) - 1.0, coord(2.0) - 1.0),
            )
        )
    return out


class Deployment:
    """A tree of a stream's first ``BASE`` records, with three live PDQ
    engines (rebuild depths 0 and 1) and a listener recording notices."""

    def __init__(self, storage, stream):
        self.index = NativeSpaceIndex(
            dims=2, disk=STORAGE[storage](), page_size=PAGE_SIZE
        )
        for record in stream[:BASE]:
            self.index.insert(record)
        self.notices = []
        self.index.tree.add_listener(self.notices.extend)
        self.engines = [
            PDQEngine(self.index, trajectory, rebuild_depth=depth)
            for trajectory, depth in (
                (QueryTrajectory.linear(0.0, 4.0, (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)), 0),
                (QueryTrajectory.linear(0.0, 4.0, (9.0, 5.0), (-1.5, 0.5), (3.0, 1.5)), 1),
                (
                    QueryTrajectory.through_waypoints(
                        [0.0, 2.0, 4.0], [(5.0, 0.0), (5.0, 10.0), (0.0, 5.0)], (1.5, 1.5)
                    ),
                    0,
                ),
            )
        ]
        for engine in self.engines:
            engine.window(0.0, 1.0)

    def state(self):
        """Everything the two trees must agree on, as plain values."""
        tree, disk = self.index.tree, self.index.tree.disk
        pages = {}
        for page_id in disk.page_ids():
            cell = disk.raw_page(page_id)
            if isinstance(cell, bytes):
                pages[page_id] = cell
                continue
            rows = cell.entries
            segments = rows.segment_batch().records() if rows.is_leaf else None
            pages[page_id] = (
                cell.level,
                cell.timestamp,
                rows.box_batch().records().tobytes(),
                rows.stamps().tobytes(),
                rows.ids().tobytes(),
                None if segments is None else segments.tobytes(),
            )
        engines = [
            (sorted(e._heap), e._expanded, e._reported, e.cost.snapshot(), e._frontier)
            for e in self.engines
        ]
        return pages, tree.root_id, len(tree), tree.clock, self.notices, engines

    def answers(self):
        return [e.window(1.0, 4.0).rows for e in self.engines]


def run_both(storage, seed, count, cuts):
    stream = segments(seed, BASE + count)
    alone, batched = Deployment(storage, stream), Deployment(storage, stream)
    todo, split_root = stream[BASE:], False
    for size in cuts:
        if not todo:
            break
        batch, todo = todo[:size], todo[size:]
        for record in batch:
            alone.index.insert(record)
        notices = batched.index.insert_batch(batch)
        split_root |= any(n.root_changed for n in notices)
        assert alone.state() == batched.state()
    assert alone.answers() == batched.answers()
    return split_root


@pytest.mark.parametrize("storage", sorted(STORAGE))
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(1, 48),
    cuts=st.lists(st.integers(1, 16), min_size=1, max_size=12),
)
@example(seed=3, count=48, cuts=[16, 16, 16])
def test_a_batch_equals_one_insert_at_a_time(storage, seed, count, cuts):
    run_both(storage, seed, count, cuts)


@pytest.mark.parametrize("storage", sorted(STORAGE))
def test_batches_split_leaves_and_the_root(storage):
    # The differential above covers these; this pins that it does.
    assert run_both(storage, 3, 48, [16, 16, 16])


@pytest.mark.parametrize("storage", sorted(STORAGE))
def test_a_failed_batch_rolls_back_whole_and_notifies_nobody(storage):
    stream = segments(5, BASE + 10)
    deployment = Deployment(storage, stream)
    before = deployment.state()
    disk = deployment.index.tree.disk
    writes = disk.stats.writes
    disk.set_faults(FaultInjector().script_write_op(3))  # mid write-back
    with pytest.raises(TransientIOError):
        deployment.index.insert_batch(stream[BASE:])
    disk.set_faults(None)
    assert disk.stats.writes == writes + 2  # two pages of the batch were written
    assert deployment.state() == before
