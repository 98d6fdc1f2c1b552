"""Tests for STR bulk loading (balanced and time-major)."""

import random

import pytest

from repro.errors import IndexStructureError
from repro.geometry.box import Box
from repro.index.bulk import str_bulk_load
from repro.index.entry import LeafEntry
from repro.index.rtree import RTree

from _helpers import assert_fsck_clean, make_segment


def entries(rng, n):
    out = []
    for i in range(n):
        t0 = rng.uniform(0, 50)
        rec = make_segment(
            i, 0, t0, t0 + rng.uniform(0.1, 2),
            (rng.uniform(0, 100), rng.uniform(0, 100)),
            (rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        out.append(LeafEntry(rec.bounding_box(), rec))
    return out


def fresh_tree(cap=8):
    return RTree(axes=3, max_internal=cap, max_leaf=cap)


class TestBalanced:
    def test_loads_all_entries(self, rng):
        tree = fresh_tree()
        es = entries(rng, 500)
        str_bulk_load(tree, es)
        assert len(tree) == 500
        assert_fsck_clean(tree)

    def test_empty_input_is_noop(self):
        tree = fresh_tree()
        str_bulk_load(tree, [])
        assert len(tree) == 0

    def test_single_entry(self, rng):
        tree = fresh_tree()
        str_bulk_load(tree, entries(rng, 1))
        assert len(tree) == 1
        assert tree.height == 1

    def test_non_empty_tree_rejected(self, rng):
        tree = fresh_tree()
        es = entries(rng, 10)
        tree.insert(es[0])
        with pytest.raises(IndexStructureError):
            str_bulk_load(tree, es[1:])

    def test_wrong_axes_rejected(self):
        tree = RTree(axes=4, max_internal=8, max_leaf=8)
        with pytest.raises(IndexStructureError):
            str_bulk_load(tree, entries(random.Random(0), 5))

    def test_search_equals_linear_scan(self, rng):
        tree = fresh_tree()
        es = entries(rng, 400)
        str_bulk_load(tree, es)
        for _ in range(20):
            t0 = rng.uniform(0, 50)
            x0, y0 = rng.uniform(0, 100), rng.uniform(0, 100)
            q = Box.from_bounds((t0, x0, y0), (t0 + 3, x0 + 15, y0 + 15))
            expected = {e.record.key for e in es if e.box.overlaps(q)}
            got = {e.record.key for e in tree.search(q)}
            assert got == expected

    def test_inserts_after_bulk_load_work(self, rng):
        tree = fresh_tree()
        es = entries(rng, 200)
        str_bulk_load(tree, es)
        more = entries(rng, 50)
        for i, e in enumerate(more):
            rec = make_segment(1000 + i, 0, 1, 2, (5, 5))
            tree.insert(LeafEntry(rec.bounding_box(), rec))
        assert len(tree) == 250
        assert_fsck_clean(tree)


class TestTimeMajor:
    def test_loads_all_entries(self, rng):
        tree = fresh_tree()
        es = entries(rng, 500)
        str_bulk_load(tree, es, time_slabs=10, tile_axes=(1, 2))
        assert len(tree) == 500
        assert_fsck_clean(tree)

    def test_leaves_are_time_narrow(self, rng):
        es = entries(rng, 800)
        balanced = fresh_tree()
        str_bulk_load(balanced, es)
        major = fresh_tree()
        str_bulk_load(major, es, time_slabs=25, tile_axes=(1, 2))

        def median_ts_width(tree):
            widths = []
            stack = [tree.root_id]
            while stack:
                node = tree.disk.read(stack.pop())
                if node.is_leaf:
                    widths.append(node.mbr().extent(0).length)
                else:
                    stack.extend(node.child_ids())
            widths.sort()
            return widths[len(widths) // 2]

        assert median_ts_width(major) < median_ts_width(balanced)

    def test_invalid_slab_count_rejected(self, rng):
        with pytest.raises(IndexStructureError):
            str_bulk_load(fresh_tree(), entries(rng, 10), time_slabs=0)

    def test_search_equals_linear_scan(self, rng):
        tree = fresh_tree()
        es = entries(rng, 300)
        str_bulk_load(tree, es, time_slabs=8, tile_axes=(1, 2))
        for _ in range(15):
            t0 = rng.uniform(0, 50)
            x0, y0 = rng.uniform(0, 100), rng.uniform(0, 100)
            q = Box.from_bounds((t0, x0, y0), (t0 + 3, x0 + 15, y0 + 15))
            expected = {e.record.key for e in es if e.box.overlaps(q)}
            got = {e.record.key for e in tree.search(q)}
            assert got == expected
