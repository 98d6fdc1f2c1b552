"""A node page's columns: the node's storage and the kernels' view.

``node.entries`` is the float64 columns the batch kernels read.  They
must be exactly the node's floats — also for a page that came back from
the codec, since that is what the file backend evaluates — and every
mutation must land in them (with one evaluation path a stale column is
a wrong answer).
"""

from __future__ import annotations

import pytest

from repro.core.pdq import PDQEngine
from repro.core.trajectory import QueryTrajectory
from repro.errors import DimensionalityError, IndexStructureError
from repro.geometry.box import Box
from repro.index.codec import DualTimeNodeCodec, NativeNodeCodec
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import Node
from repro.index.nsi import NativeSpaceIndex
from repro.index.pagearrays import PageArrays, PageRows
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

from _helpers import make_segment, scalar_box_overlap


def box_columns(arrays):
    batch = arrays.box_batch()
    return [batch.extent_bounds(axis) for axis in range(batch.axes)]


def segment_columns(arrays):
    batch = arrays.segment_batch()
    return (
        batch.time_bounds(),
        [batch.origin(i).tolist() for i in range(batch.dims)],
        [batch.velocity(i).tolist() for i in range(batch.dims)],
    )


def leaf_node(codec, page_id=7, n=5, timestamp=3):
    entries = []
    for k in range(n):
        seg = make_segment(
            100 + k, k, 0.5 * k, 0.5 * k + 2.0, (1.0 * k, 2.0 * k), (0.25, -0.5)
        )
        entries.append(LeafEntry(codec._leaf_box(seg), seg, timestamp=k))
    return Node(page_id, 0, entries, timestamp=timestamp)


def internal_node(page_id=9, n=4, axes=3, timestamp=2):
    entries = []
    for k in range(n):
        lows = [1.0 * k + a for a in range(axes)]
        highs = [v + 1.5 for v in lows]
        entries.append(
            InternalEntry(Box.from_bounds(lows, highs), 50 + k, timestamp=k)
        )
    return Node(page_id, 1, entries, timestamp=timestamp)


@pytest.fixture(params=["native", "dual"])
def codec(request):
    if request.param == "native":
        return NativeNodeCodec(dims=2)
    return DualTimeNodeCodec(dims=2)


class TestCodecRoundTrip:
    """A decoded page evaluates to the very floats the encoded one held."""

    def test_leaf_round_trip_is_byte_identical(self, codec):
        node = leaf_node(codec)
        decoded = codec.decode(codec.encode(node))
        assert box_columns(PageArrays(decoded)) == box_columns(
            PageArrays(node)
        )
        assert segment_columns(PageArrays(decoded)) == segment_columns(
            PageArrays(node)
        )

    def test_internal_round_trip_is_byte_identical(self, codec):
        node = internal_node(axes=codec._axes_count())
        decoded = codec.decode(codec.encode(node))
        assert box_columns(PageArrays(decoded)) == box_columns(
            PageArrays(node)
        )

    def test_empty_page_round_trip(self, codec):
        decoded = codec.decode(codec.encode(Node(11, 0, timestamp=5)))
        arrays = PageArrays(decoded)
        assert arrays.box_batch().n == 0
        assert arrays.segment_batch().n == 0
        assert box_columns(arrays) == []


class TestArrayShapes:
    def test_leaf_fields(self):
        codec = NativeNodeCodec(dims=2)
        node = leaf_node(codec, n=3)
        arrays = PageArrays(node)
        assert arrays.is_leaf
        boxes = arrays.box_batch()
        assert (boxes.n, boxes.axes) == (3, 3)
        assert boxes.extent_bounds(1) == (
            [e.box.lows[1] for e in node.entries],
            [e.box.highs[1] for e in node.entries],
        )
        segs = arrays.segment_batch()
        assert (segs.n, segs.dims) == (3, 2)
        (t_lo, t_hi), origins, velocities = segment_columns(arrays)
        records = [e.record.segment for e in node.entries]
        assert t_lo == [r.time.low for r in records]
        assert t_hi == [r.time.high for r in records]
        assert origins == [[r.origin[i] for r in records] for i in range(2)]
        assert velocities == [
            [r.velocity[i] for r in records] for i in range(2)
        ]

    def test_internal_fields(self):
        node = internal_node(n=4)
        arrays = PageArrays(node)
        assert not arrays.is_leaf
        boxes = arrays.box_batch()
        assert (boxes.n, boxes.axes) == (4, 3)
        assert boxes.extent_bounds(0) == (
            [e.box.lows[0] for e in node.entries],
            [e.box.highs[0] for e in node.entries],
        )

    def test_internal_page_has_no_segment_batch(self):
        arrays = PageArrays(internal_node())
        with pytest.raises(IndexStructureError):
            arrays.segment_batch()


def engine_keys(index, trajectory):
    """Keys a fresh PDQ engine delivers over the whole trajectory."""
    span = trajectory.time_span
    with PDQEngine(index, trajectory, track_updates=False) as engine:
        return sorted(i.key for i in engine.window(span.low, span.high))


def scalar_keys(index, trajectory):
    """The same answer by a scalar walk of the tree as it is now."""
    tree = index.tree
    keys, stack = [], [tree.root_id]
    while stack:
        node = tree.load_node(stack.pop())
        for e in node.entries:
            if not node.is_leaf:
                if scalar_box_overlap(trajectory, e.box):
                    stack.append(e.child_id)
            elif trajectory.segment_overlap(e.record.segment):
                keys.append(e.record.key)
    return sorted(keys)


class TestCaching:
    """Nothing is cached beside a node: its columns are the one state."""

    def test_view_is_cached(self):
        # the name the bench times hands back the node's own columns
        node = leaf_node(NativeNodeCodec(dims=2))
        assert PageArrays(node) is node.entries
        assert isinstance(node.entries, PageRows)

    def test_every_mutation_invalidates(self):
        """Every ``Node`` mutator lands in the columns, and the next
        engine over the tree evaluates the entry set as it is now."""
        # a window wide enough to hold every segment for the whole span
        trajectory = QueryTrajectory.linear(
            0.0, 4.0, (15.0, 2.0), (0.0, 0.0), (40.0, 40.0)
        )
        fresh = make_segment(999, 0, 0.0, 4.0, (5.0, 2.0), (0.0, 0.0))
        far = Box.from_bounds([0.0, 500.0, 500.0], [4.0, 501.0, 501.0])

        def world():
            index = NativeSpaceIndex(dims=2, page_size=512)
            index.bulk_load(
                [
                    make_segment(100 + k, 0, 0.0, 4.0, (1.0 * k, 2.0), (0.25, 0.0))
                    for k in range(30)
                ]
            )
            root = index.tree.load_node(index.tree.root_id)
            assert root.level == 1
            leaf = index.tree.load_node(root.entries[0].child_id)
            return index, root, leaf

        # (which node, mutation) — every mutating method of Node
        mutations = [
            ("leaf", lambda n, index: n.add(index._leaf_entry(fresh), clock=9)),
            ("leaf", lambda n, index: n.replace_entries(n.entries[:2], clock=9)),
            (
                "leaf",
                lambda n, index: n.remove_record(
                    n.entries[0].record.key, clock=9
                ),
            ),
            (
                "root",
                lambda n, index: n.remove_child(n.entries[0].child_id, clock=9),
            ),
            (
                "root",
                lambda n, index: n.update_child_box(
                    n.entries[0].child_id, far, clock=9
                ),
            ),
        ]
        for which, mutate in mutations:
            index, root, leaf = world()
            node = leaf if which == "leaf" else root
            keys_before = engine_keys(index, trajectory)
            assert keys_before == scalar_keys(index, trajectory)
            stale = node.entries.stamps().tolist()
            assert stale == [e.timestamp for e in node.entries]
            mutate(node, index)
            assert PageArrays(node).box_batch().n == len(node.entries)
            stamps = PageArrays(node).stamps().tolist()
            assert stamps == [e.timestamp for e in node.entries]
            assert stamps != stale
            keys_after = engine_keys(index, trajectory)
            assert keys_after == scalar_keys(index, trajectory)
            assert keys_after != keys_before

    def test_rebuilt_view_reflects_mutation(self):
        node = internal_node(n=3, axes=3)
        PageArrays(node).box_batch()
        node.remove_child(51, clock=4)
        assert box_columns(PageArrays(node)) == [
            (
                [e.box.lows[axis] for e in node.entries],
                [e.box.highs[axis] for e in node.entries],
            )
            for axis in range(3)
        ]
        assert PageArrays(node).box_batch().n == 2


class TestPageBackedNode:
    """A decoded node's columns are its state, and its entries are views."""

    def test_view_is_the_storage_and_survives_mutation(self, codec):
        node = codec.decode(codec.encode(internal_node(axes=codec._axes_count())))
        rows = PageArrays(node)
        assert isinstance(rows, PageRows) and rows is node.entries
        far = Box.from_bounds([500.0] * rows.box_batch().axes, [501.0] * rows.box_batch().axes)
        node.update_child_box(51, far, clock=9)
        assert PageArrays(node) is rows
        assert node.entries[1] == InternalEntry(far, 51, timestamp=9)
        assert rows.stamps().tolist() == [2, 9, 2, 2]
        node.remove_child(50, clock=9)
        assert PageArrays(node) is rows and node.child_ids() == (51, 52, 53)
        assert node.entries[0] == InternalEntry(far, 51, timestamp=9)

    def test_entries_are_built_per_row_and_kept(self, codec):
        node = codec.decode(codec.encode(leaf_node(codec)))
        rows = node.entries
        assert len(rows) == 5 and not rows._built
        third = rows[2]
        assert list(rows._built) == [2] and rows[2] is third and rows[-3] is third
        assert [e.record.key for e in rows[1:3]] == [(101, 1), (102, 2)]
        with pytest.raises(IndexError):
            rows[5]
        # a split hands the node entry objects: it gets their rows
        node.replace_entries(rows[:2], clock=4)
        assert isinstance(node.entries, PageRows) and node.entries is not rows
        assert list(node.entries) == rows[:2]

    def test_wrong_shape_is_refused_before_any_row_is_written(self, codec):
        node = codec.decode(codec.encode(leaf_node(codec)))
        seg = make_segment(7, 0)
        with pytest.raises(DimensionalityError):
            node.add(LeafEntry(Box.from_bounds([0.0], [1.0]), seg), clock=9)
        assert len(node.entries) == 5
        assert PageArrays(node).segment_batch().n == 5


class TestUnsplitInsertBuildsNoEntries:
    def test_only_the_stamped_copy_is_constructed(self, monkeypatch):
        """The insert path of a codec-backed tree reads, searches and
        writes columns: over a run of inserts that split nothing the only
        entry object the index layer makes is each record's stamped copy."""
        disk = DiskManager(codec=NativeNodeCodec(2), buffer_pool=BufferPool(64))
        index = NativeSpaceIndex(dims=2, disk=disk)
        index.bulk_load(
            [
                make_segment(k, 0, 0.1 * (k % 40), 0.1 * (k % 40) + 2.0,
                             (1.0 * (k % 97), 1.0 * (k % 89)), (0.25, -0.5))
                for k in range(20_000)
            ]
        )
        assert index.tree.height == 3
        fresh = [
            index._leaf_entry(
                make_segment(90_000 + k, 0, 0.5, 2.5, (3.0 * k, 2.0 * k), (0.5, 0.5))
            )
            for k in range(30)
        ]
        built = {LeafEntry: 0, InternalEntry: 0}
        for cls in built:
            original = cls.__init__

            def counting(self, *args, _cls=cls, _init=original, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        notices = [index.tree.insert(entry) for entry in fresh]
        monkeypatch.undo()
        assert all(n.subtree_id is None for n in notices), "an insert split"
        assert built == {LeafEntry: len(fresh), InternalEntry: 0}
        assert len(index) == 20_030
