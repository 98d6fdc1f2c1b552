"""Every R-tree node is its page columns, whoever made it.

Bulk load, inserts that split, deletes that condense and an intent-log
rollback all leave nodes whose ``entries`` is their column view
(:class:`~repro.index.pagearrays.PageRows`) — on a codec-less disk, which
holds each node by reference, and on a checksummed codec disk.  The bulk
load's layout is pinned by a digest of every page's rows, so an STR
regrouping or a leaf box one ULP off fails here in seconds.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache

import pytest

from repro.errors import TransientIOError
from repro.geometry.box import Box
from repro.index.codec import ChecksummedCodec, DualTimeNodeCodec, NativeNodeCodec
from repro.index.dualtime import DualTimeIndex
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import Node
from repro.index.nsi import NativeSpaceIndex
from repro.index.pagearrays import PageRows
from repro.index.psi import ParametricSpaceIndex
from repro.storage.disk import DiskManager
from repro.storage.faults import FaultInjector
from repro.storage.wal import IntentLog
from repro.workload.config import WorkloadConfig
from repro.workload.objects import generate_motion_segments

from _helpers import assert_fsck_clean, make_segment


@lru_cache(maxsize=None)
def tiny_fleet(seed: int):
    return tuple(generate_motion_segments(WorkloadConfig.tiny(seed=seed)))


def layout_digest(index) -> str:
    """SHA-256 of every page: id, level, and per row its key and the
    exact float64 bytes of its box and (on a leaf) its segment."""
    digest = hashlib.sha256()
    disk = index.tree.disk
    for page_id in sorted(disk.page_ids()):
        node = disk.read(page_id)
        digest.update(struct.pack("<qq", page_id, node.level))
        for e in node.entries:
            if node.is_leaf:
                record, segment = e.record, e.record.segment
                digest.update(struct.pack("<qq", *record.key))
                motion = (
                    segment.time.low, segment.time.high,
                    *segment.origin, *segment.velocity,
                )
            else:
                digest.update(struct.pack("<q", e.child_id))
                motion = ()
            box = e.box
            digest.update(struct.pack(f"<{2 * box.dims}d", *box.lows, *box.highs))
            digest.update(struct.pack(f"<{len(motion)}d", *motion))
    return digest.hexdigest()


#: recorded from the entry-object bulk load the column load replaced
LAYOUTS = {
    (NativeSpaceIndex, 11, 0.0): "8adf1c008a082e584f47de53c6d90bad23070d33804ec97da38657a9efeee7ef",
    (DualTimeIndex, 11, 0.0): "bc167219122910fa4220ab6ed84e38f78f419fe71169ef9cf70c8643987320c6",
    (NativeSpaceIndex, 12, 0.0): "6a27c4e6f768fbd2a7980ae30c7492f6c35080dc6ec0acadcc4317674a3f9b3c",
    (DualTimeIndex, 12, 0.0): "5b5913cc78a8d6541b6ae77a5887cf5d66529cb969d864df461023ded2ae75a6",
    (NativeSpaceIndex, 11, 0.75): "1d2ba1fc269fcbee295a4cf66c5da3d59feaedf6ac7d79dd5d0db49bda57f775",
    (DualTimeIndex, 11, 0.75): "cef73012fb4cac81db226231f00e537aa0792ecf51fbbe59f49a404ee78f4086",
    (ParametricSpaceIndex, 11, 0.0): "0c7442f891b591a7fcef5b374cda3aca0447c2a70e767101aac93ec970578d54",
}


class TestBulkLoadLayout:
    @pytest.mark.parametrize(
        "flavour, seed, uncertainty",
        list(LAYOUTS),
        ids=[f"{f.__name__}-{s}-{u}" for f, s, u in LAYOUTS],
    )
    def test_layout_is_pinned(self, flavour, seed, uncertainty):
        extra = {"uncertainty": uncertainty} if uncertainty else {}
        index = flavour(dims=2, **extra)
        index.bulk_load(tiny_fleet(seed))
        assert layout_digest(index) == LAYOUTS[flavour, seed, uncertainty]


def reachable(tree):
    stack, nodes = [tree.root_id], []
    while stack:
        node = tree.disk.read(stack.pop())
        nodes.append(node)
        if not node.is_leaf:
            stack.extend(node.child_ids())
    return nodes


def assert_columns(tree):
    for node in reachable(tree):
        assert isinstance(node.entries, PageRows), node
        assert node.entries.is_leaf == node.is_leaf
        assert node.entries.box_batch().n == len(node.entries)


class TestOneRepresentation:
    @pytest.mark.parametrize("framed", [False, True], ids=["objects", "codec"])
    @pytest.mark.parametrize("flavour", [NativeSpaceIndex, DualTimeIndex])
    def test_every_step_leaves_columns(self, flavour, framed):
        segments = tiny_fleet(11)
        codec = None
        if framed:
            inner = NativeNodeCodec if flavour is NativeSpaceIndex else DualTimeNodeCodec
            codec = ChecksummedCodec(inner(2))
        log = IntentLog()
        disk = DiskManager(codec=codec, intent_log=log)
        index = flavour(dims=2, disk=disk, page_size=512)  # small pages split
        tree = index.tree

        index.bulk_load(segments[:300])
        assert_columns(tree)

        notices = [index.insert(r) for r in segments[300:1000]]
        assert any(n.subtree_id is not None for n in notices), "nothing split"
        assert_columns(tree)

        pages = len(disk.page_ids())
        for r in segments[:150]:
            assert tree.delete(r.key, index._leaf_entry(r).box)
        assert len(disk.page_ids()) < pages, "nothing condensed"
        assert_columns(tree)
        assert_fsck_clean(tree)

        before = layout_digest(index)
        disk.set_faults(FaultInjector(write_error_rate=1.0, seed=0))
        with pytest.raises(TransientIOError):
            index.insert(segments[1000])
        disk.set_faults(None)
        assert log.rollbacks == 1
        assert layout_digest(index) == before
        assert_columns(tree)
        assert_fsck_clean(tree)


def _state(node):
    rows = node.entries
    records = [rows.record(k) for k in range(len(rows))] if node.is_leaf else []
    return node.timestamp, rows.fingerprint(), list(rows), records


class TestClone:
    def test_internal_clone_is_independent(self):
        def box(k):
            return Box.from_bounds([k, k, k], [k + 1.0, k + 2.0, k + 3.0])

        node = Node(3, 1, [InternalEntry(box(k), 10 + k, timestamp=k) for k in range(4)], 5)
        copy = node.clone()
        want = _state(copy)
        node.add(InternalEntry(box(9), 19, timestamp=9), clock=9)
        node.entries.set_box(0, box(7), 9)
        node.update_child_box(12, box(8), clock=9)
        del node.entries[1]
        assert _state(copy) == want
        assert node.child_ids() == (10, 12, 13, 19)

    def test_leaf_clone_is_independent(self):
        def entry(k):
            record = make_segment(k, 0, 0.5 * k, 0.5 * k + 1.0, (k, 2.0), (0.5, 0.0))
            return LeafEntry(record.bounding_box(), record, timestamp=k)

        node = Node(4, 0, [entry(k) for k in range(3)], 2)
        copy = node.clone()
        want = _state(copy)
        node.add(entry(7), clock=9)
        node.entries.set_box(2, entry(9).box, 9)
        del node.entries[1]
        assert _state(copy) == want
        assert [e.record.object_id for e in node.entries] == [0, 2, 7]
