"""Tests for tree statistics and for the structural checker (fsck) on the
corruptions that matter most to the tests that assert with it."""

import pytest

from repro.geometry.box import Box
from repro.index.check import fsck
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.rtree import RTree
from repro.index.stats import collect_stats

from _helpers import assert_fsck_clean, make_segment, replace_row


def small_tree(n=60, cap=4):
    tree = RTree(axes=3, max_internal=cap, max_leaf=cap)
    for i in range(n):
        rec = make_segment(i, 0, float(i % 10), i % 10 + 1.0, (i % 7 * 10.0, i % 5 * 10.0))
        tree.insert(LeafEntry(rec.bounding_box(), rec))
    return tree


class TestCollectStats:
    def test_counts_match(self):
        tree = small_tree(60)
        stats = collect_stats(tree)
        assert stats.records == 60
        assert stats.height == tree.height
        assert stats.total_nodes == stats.leaf_nodes + stats.internal_nodes
        assert sum(stats.nodes_per_level.values()) == stats.total_nodes

    def test_fill_fractions_bounded(self):
        stats = collect_stats(small_tree(100))
        assert 0.0 < stats.avg_leaf_fill <= 1.0
        assert 0.0 < stats.avg_internal_fill <= 1.0

    def test_single_leaf_tree(self):
        tree = small_tree(2)
        stats = collect_stats(tree)
        assert stats.height == 1
        assert stats.internal_nodes == 0
        assert stats.leaf_nodes == 1


def error_kinds(tree):
    return {v.kind for v in fsck(tree).errors}


class TestVerifyIntegrity:
    """fsck, the one structural checker, on the corruptions tests guard."""

    def test_passes_on_valid_tree(self):
        assert_fsck_clean(small_tree(80))

    def test_detects_size_mismatch(self):
        tree = small_tree(20)
        tree._size += 1
        assert "record-count" in error_kinds(tree)

    def test_detects_box_not_covering_child(self):
        tree = small_tree(60)
        root = tree.disk.read(tree.root_id)
        bad_box = Box.from_bounds((0.0, 0.0, 0.0), (0.1, 0.1, 0.1))
        entry = root.entries[0]
        replace_row(root, 0, InternalEntry(bad_box, entry.child_id))
        assert "mbr-containment" in error_kinds(tree)

    def test_detects_parent_directory_corruption(self):
        tree = small_tree(60)
        root = tree.disk.read(tree.root_id)
        child = root.child_ids()[0]
        tree._parents[child] = 987654
        assert "parent-directory" in error_kinds(tree)

    def test_detects_level_skew(self):
        tree = small_tree(120)
        root = tree.disk.read(tree.root_id)
        assert not root.is_leaf
        mid_id = root.child_ids()[0]
        mid = tree.disk.read(mid_id)
        if mid.is_leaf:
            pytest.skip("tree too shallow for this corruption")
        grandchild = mid.child_ids()[0]
        # Point the root directly at a grandchild: level gap of 2.
        replace_row(root, 0, InternalEntry(root.entries[0].box, grandchild))
        tree._parents[grandchild] = root.page_id
        assert "level-mismatch" in error_kinds(tree)
