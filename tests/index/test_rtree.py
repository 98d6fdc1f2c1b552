"""Tests for the R-tree: structure, search, deletion, update machinery."""

import pytest

from repro.errors import IndexStructureError
from repro.geometry.box import Box
from repro.index.entry import LeafEntry
from repro.index.rtree import RTree
from repro.index.stats import collect_stats, verify_integrity
from repro.storage.metrics import QueryCost

from _helpers import make_segment


def leaf_entry(oid, t0, t1, origin, velocity=(0.0, 0.0)):
    rec = make_segment(oid, 0, t0, t1, origin, velocity)
    return LeafEntry(rec.bounding_box(), rec)


def small_tree(max_entries=4, **kwargs):
    return RTree(axes=3, max_internal=max_entries, max_leaf=max_entries, **kwargs)


def random_entries(rng, n):
    out = []
    for i in range(n):
        t0 = rng.uniform(0, 50)
        out.append(
            leaf_entry(
                i,
                t0,
                t0 + rng.uniform(0.1, 2),
                (rng.uniform(0, 100), rng.uniform(0, 100)),
                (rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
        )
    return out


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(IndexStructureError):
            RTree(axes=0, max_internal=4, max_leaf=4)
        with pytest.raises(IndexStructureError):
            RTree(axes=2, max_internal=1, max_leaf=4)
        with pytest.raises(IndexStructureError):
            RTree(axes=2, max_internal=4, max_leaf=4, fill_factor=0.9)
        with pytest.raises(IndexStructureError):
            RTree(axes=2, max_internal=4, max_leaf=4, split="bogus")

    def test_empty_tree(self):
        tree = small_tree()
        assert len(tree) == 0
        assert tree.height == 1

    def test_wrong_axes_entry_rejected(self):
        tree = RTree(axes=4, max_internal=4, max_leaf=4)
        with pytest.raises(IndexStructureError):
            tree.insert(leaf_entry(0, 0, 1, (0, 0)))


class TestInsertSearch:
    def test_single_insert_and_search(self):
        tree = small_tree()
        tree.insert(leaf_entry(1, 0, 1, (5, 5)))
        hits = list(tree.search(Box.from_bounds((0, 4, 4), (1, 6, 6))))
        assert [e.record.object_id for e in hits] == [1]

    def test_search_misses_disjoint(self):
        tree = small_tree()
        tree.insert(leaf_entry(1, 0, 1, (5, 5)))
        assert not list(tree.search(Box.from_bounds((0, 50, 50), (1, 60, 60))))

    def test_search_wrong_axes_raises(self):
        tree = small_tree()
        with pytest.raises(IndexStructureError):
            list(tree.search(Box.from_bounds((0, 0), (1, 1))))

    def test_growth_and_integrity(self, rng):
        tree = small_tree()
        for e in random_entries(rng, 200):
            tree.insert(e)
        assert len(tree) == 200
        assert tree.height >= 3
        verify_integrity(tree)

    def test_search_equals_linear_scan(self, rng):
        tree = small_tree()
        entries = random_entries(rng, 300)
        for e in entries:
            tree.insert(e)
        for _ in range(25):
            t0 = rng.uniform(0, 50)
            x0, y0 = rng.uniform(0, 100), rng.uniform(0, 100)
            q = Box.from_bounds((t0, x0, y0), (t0 + 3, x0 + 15, y0 + 15))
            expected = {e.record.key for e in entries if e.box.overlaps(q)}
            got = {e.record.key for e in tree.search(q)}
            assert got == expected

    def test_all_leaf_entries_complete(self, rng):
        tree = small_tree()
        entries = random_entries(rng, 120)
        for e in entries:
            tree.insert(e)
        assert {e.record.key for e in tree.all_leaf_entries()} == {
            e.record.key for e in entries
        }

    def test_linear_split_variant_works(self, rng):
        tree = small_tree(split="linear")
        for e in random_entries(rng, 150):
            tree.insert(e)
        verify_integrity(tree)

    def test_cost_counting_during_search(self, rng):
        tree = small_tree()
        for e in random_entries(rng, 100):
            tree.insert(e)
        cost = QueryCost()
        list(tree.search(Box.from_bounds((0, 0, 0), (50, 100, 100)), cost))
        stats = collect_stats(tree)
        assert cost.total_reads == stats.total_nodes  # full coverage query
        assert cost.distance_computations > 0

    def test_leaf_test_filters_and_counts(self, rng):
        tree = small_tree()
        for e in random_entries(rng, 50):
            tree.insert(e)
        cost = QueryCost()
        q = Box.from_bounds((0, 0, 0), (50, 100, 100))
        hits = list(tree.search(q, cost, leaf_test=lambda e: False))
        assert not hits
        assert cost.segment_tests == 50
        assert cost.results == 0


class TestTimestamps:
    def test_clock_advances_per_insert(self):
        tree = small_tree()
        c0 = tree.clock
        tree.insert(leaf_entry(0, 0, 1, (0, 0)))
        tree.insert(leaf_entry(1, 0, 1, (1, 1)))
        assert tree.clock == c0 + 2

    def test_inserted_entry_stamped(self):
        tree = small_tree()
        notice = tree.insert(leaf_entry(0, 0, 1, (0, 0)))
        assert notice.entry.timestamp == tree.clock

    def test_path_entries_stamped(self, rng):
        tree = small_tree()
        for e in random_entries(rng, 60):
            tree.insert(e)
        clock_before = tree.clock
        new = leaf_entry(999, 10, 11, (50, 50))
        tree.insert(new)
        # Walk down from the root following stamped entries; the fresh
        # timestamp must be visible on some root entry.
        root = tree.disk.read(tree.root_id)
        assert any(e.timestamp == clock_before + 1 for e in root.entries)


class TestParents:
    def test_parent_directory_matches_topology(self, rng):
        tree = small_tree()
        for e in random_entries(rng, 150):
            tree.insert(e)
        stack = [tree.root_id]
        while stack:
            pid = stack.pop()
            node = tree.disk.read(pid)
            if not node.is_leaf:
                for child in node.child_ids():
                    assert tree.parent_of(child) == pid
                    stack.append(child)
        assert tree.parent_of(tree.root_id) is None

    def test_depth_of(self, rng):
        tree = small_tree()
        for e in random_entries(rng, 150):
            tree.insert(e)
        assert tree.depth_of(tree.root_id) == 0
        root = tree.disk.read(tree.root_id)
        child = root.child_ids()[0]
        assert tree.depth_of(child) == 1

    def test_depth_of_foreign_page_raises(self, rng):
        tree = small_tree()
        tree.insert(leaf_entry(0, 0, 1, (0, 0)))
        with pytest.raises(IndexStructureError):
            tree.depth_of(123456)


class TestSamePathSplits:
    def test_notice_subtree_contains_inserted_record(self, rng):
        """With forced same-path splits the notified subtree's box always
        contains the record that caused the cascade (Sect. 4.1)."""
        tree = small_tree(same_path_splits=True)
        for e in random_entries(rng, 400):
            notice = tree.insert(e)
            if notice.subtree_id is not None and not notice.root_changed:
                assert notice.subtree_box is not None
                assert notice.subtree_box.contains_box(notice.entry.box)
                # And the record is actually stored under that subtree.
                found = False
                stack = [notice.subtree_id]
                while stack:
                    node = tree.disk.read(stack.pop())
                    if node.is_leaf:
                        found = found or any(
                            le.record.key == notice.entry.record.key
                            for le in node.entries
                        )
                    else:
                        stack.extend(node.child_ids())
                assert found
        verify_integrity(tree)

    def test_root_split_flagged(self):
        tree = small_tree()
        flags = []
        for i in range(6):
            n = tree.insert(leaf_entry(i, i, i + 1, (i * 10.0, 0.0)))
            flags.append(n.root_changed)
        assert any(flags)

    def test_listener_called_per_insert(self):
        tree = small_tree()
        notices = []
        tree.add_listener(notices.append)
        for i in range(10):
            tree.insert(leaf_entry(i, 0, 1, (i, i)))
        assert len(notices) == 10
        tree.remove_listener(notices.append)
        tree.insert(leaf_entry(99, 0, 1, (0, 0)))
        assert len(notices) == 10


class TestDeletion:
    def test_delete_existing(self, rng):
        tree = small_tree()
        entries = random_entries(rng, 120)
        for e in entries:
            tree.insert(e)
        victim = entries[37]
        assert tree.delete(victim.record.key, victim.box)
        assert len(tree) == 119
        assert victim.record.key not in {
            e.record.key for e in tree.all_leaf_entries()
        }
        verify_integrity(tree)

    def test_delete_absent_returns_false(self, rng):
        tree = small_tree()
        for e in random_entries(rng, 20):
            tree.insert(e)
        ghost = leaf_entry(9999, 0, 1, (0, 0))
        assert not tree.delete(ghost.record.key, ghost.box)
        assert len(tree) == 20

    def test_delete_everything(self, rng):
        tree = small_tree()
        entries = random_entries(rng, 60)
        for e in entries:
            tree.insert(e)
        for e in entries:
            assert tree.delete(e.record.key, e.box)
        assert len(tree) == 0
        assert not list(tree.all_leaf_entries())

    def test_delete_then_search_consistent(self, rng):
        tree = small_tree()
        entries = random_entries(rng, 150)
        for e in entries:
            tree.insert(e)
        removed = set()
        for e in entries[::3]:
            tree.delete(e.record.key, e.box)
            removed.add(e.record.key)
        verify_integrity(tree)
        q = Box.from_bounds((0, 0, 0), (50, 100, 100))
        got = {e.record.key for e in tree.search(q)}
        expected = {e.record.key for e in entries} - removed
        assert got == expected
