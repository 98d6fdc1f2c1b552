"""Tests for R-tree node mechanics."""

import math
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionalityError, IndexStructureError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import Node

from _helpers import make_segment


def leaf_entry(oid=0):
    rec = make_segment(oid)
    return LeafEntry(rec.bounding_box(), rec)


def internal_entry(child=1, lo=0.0, hi=1.0):
    return InternalEntry(Box.from_bounds((lo, lo, lo), (hi, hi, hi)), child)


class TestBasics:
    def test_negative_level_rejected(self):
        with pytest.raises(IndexStructureError):
            Node(0, -1)

    def test_is_leaf(self):
        assert Node(0, 0).is_leaf
        assert not Node(0, 1).is_leaf

    def test_len(self):
        node = Node(0, 0)
        node.add(leaf_entry(), clock=1)
        assert len(node) == 1

    def test_repr(self):
        assert "leaf" in repr(Node(0, 0))
        assert "internal" in repr(Node(0, 2))


class TestMBR:
    def test_empty_mbr_raises(self):
        with pytest.raises(IndexStructureError):
            Node(0, 0).mbr()

    def test_mbr_covers_all_entries(self):
        node = Node(0, 1)
        node.add(internal_entry(1, 0.0, 1.0), clock=1)
        node.add(internal_entry(2, 5.0, 6.0), clock=2)
        mbr = node.mbr()
        assert mbr.extent(0) == Interval(0.0, 6.0)

    def test_mbr_cache_invalidated_on_add(self):
        node = Node(0, 1)
        node.add(internal_entry(1, 0.0, 1.0), clock=1)
        assert node.mbr().extent(0).high == 1.0
        node.add(internal_entry(2, 5.0, 6.0), clock=2)
        assert node.mbr().extent(0).high == 6.0

    def test_mbr_cache_invalidated_on_remove(self):
        node = Node(0, 1)
        node.add(internal_entry(1, 0.0, 1.0), clock=1)
        node.add(internal_entry(2, 5.0, 6.0), clock=2)
        node.mbr()
        node.remove_child(2, clock=3)
        assert node.mbr().extent(0).high == 1.0

    # ±0.0 and repeated values make first-wins ties matter; a > b draws a
    # structurally empty extent, which the fold skips
    _BOUND = st.sampled_from([-0.0, 0.0, -1.0, 1.0, 2.5, math.inf, -math.inf]) | (
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
    )

    @staticmethod
    def _bits(box):
        """Bounds with the sign of zero made visible."""
        return [
            (x, math.copysign(1.0, x)) for e in box.extents for x in (e.low, e.high)
        ]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mbr_equals_the_cover_fold(self, data):
        axes = data.draw(st.integers(min_value=1, max_value=3))
        boxes = [
            Box(
                Interval(data.draw(self._BOUND), data.draw(self._BOUND))
                for _ in range(axes)
            )
            for _ in range(data.draw(st.integers(min_value=1, max_value=12)))
        ]
        node = Node(0, 1, [InternalEntry(b, k) for k, b in enumerate(boxes)])
        want = reduce(Box.cover, boxes)  # what Node.mbr() used to compute
        assert self._bits(node.mbr()) == self._bits(want)
        assert node.mbr().is_empty == want.is_empty

    def test_mbr_refuses_mixed_dimensionalities(self):
        node = Node(0, 1, [internal_entry(1), InternalEntry(Box.from_point((0.0,)), 2)])
        with pytest.raises(DimensionalityError):
            node.mbr()


class TestKindChecks:
    def test_leaf_rejects_internal_entry(self):
        with pytest.raises(IndexStructureError):
            Node(0, 0).add(internal_entry(), clock=1)

    def test_internal_rejects_leaf_entry(self):
        with pytest.raises(IndexStructureError):
            Node(0, 1).add(leaf_entry(), clock=1)

    def test_replace_entries_checks_kind(self):
        with pytest.raises(IndexStructureError):
            Node(0, 0).replace_entries([internal_entry()], clock=1)

    def test_child_ids_on_leaf_raises(self):
        with pytest.raises(IndexStructureError):
            Node(0, 0).child_ids()

    def test_remove_child_on_leaf_raises(self):
        with pytest.raises(IndexStructureError):
            Node(0, 0).remove_child(1, clock=1)

    def test_remove_record_on_internal_raises(self):
        with pytest.raises(IndexStructureError):
            Node(0, 1).remove_record((0, 0), clock=1)

    def test_update_child_box_on_leaf_raises(self):
        with pytest.raises(IndexStructureError):
            Node(0, 0).update_child_box(1, Box.from_point((0.0,)), clock=1)


class TestMutation:
    def test_remove_child_returns_entry(self):
        node = Node(0, 1)
        e = internal_entry(7)
        node.add(e, clock=1)
        assert node.remove_child(7, clock=2) == e
        assert len(node) == 0

    def test_remove_missing_child_raises(self):
        node = Node(0, 1)
        with pytest.raises(IndexStructureError):
            node.remove_child(42, clock=1)

    def test_remove_record(self):
        node = Node(0, 0)
        node.add(leaf_entry(3), clock=1)
        removed = node.remove_record((3, 0), clock=2)
        assert removed.record.object_id == 3

    def test_remove_missing_record_raises(self):
        node = Node(0, 0)
        with pytest.raises(IndexStructureError):
            node.remove_record((9, 9), clock=1)

    def test_update_child_box_replaces_and_stamps(self):
        node = Node(0, 1)
        node.add(internal_entry(5, 0.0, 1.0), clock=1)
        new_box = Box.from_bounds((0.0, 0.0, 0.0), (9.0, 9.0, 9.0))
        node.update_child_box(5, new_box, clock=7)
        assert node.entries[0].box == new_box
        assert node.entries[0].timestamp == 7
        assert node.timestamp == 7

    def test_update_missing_child_raises(self):
        node = Node(0, 1)
        with pytest.raises(IndexStructureError):
            node.update_child_box(5, Box.from_point((0.0,)), clock=1)

    def test_timestamp_monotone(self):
        node = Node(0, 0, timestamp=10)
        node.add(leaf_entry(), clock=3)  # older clock must not regress
        assert node.timestamp == 10
