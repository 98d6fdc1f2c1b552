"""Tests for the fsck-style structural invariant checker."""

import random

from repro.index.bulk import str_bulk_load
from repro.index.check import FsckReport, Violation, fsck
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.pagearrays import PageRows
from repro.index.rtree import RTree
from repro.storage.faults import FaultInjector

from _helpers import make_segment, replace_row


def leaf_entry(oid, t0, t1, origin, velocity=(0.0, 0.0)):
    rec = make_segment(oid, 0, t0, t1, origin, velocity)
    return LeafEntry(rec.bounding_box(), rec)


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


def built_tree(n=40, seed=0, max_entries=4):
    tree = RTree(axes=3, max_internal=max_entries, max_leaf=max_entries)
    for e in random_entries(random.Random(seed), n):
        tree.insert(e)
    return tree


class TestCleanTrees:
    def test_insert_built_tree_is_clean(self):
        report = fsck(built_tree())
        assert report.ok
        assert report.errors == []
        assert report.records_seen == 40
        assert report.pages_checked == len(built_tree().disk.page_ids())
        assert "clean" in report.summary()

    def test_empty_tree_is_clean(self):
        tree = RTree(axes=3, max_internal=4, max_leaf=4)
        report = fsck(tree)
        assert report.ok
        assert report.records_seen == 0

    def test_bulk_loaded_tree_underfill_is_warning_not_error(self):
        tree = RTree(axes=3, max_internal=8, max_leaf=8)
        # 65 records leave a short tail node at some level.
        str_bulk_load(tree, PageRows.of(True, random_entries(random.Random(5), 65)))
        report = fsck(tree)
        assert report.ok  # warnings never flip ok
        for v in report.warnings:
            assert v.kind == "underfull-node"

    def test_tree_survives_heavy_deletes(self):
        tree = RTree(axes=3, max_internal=4, max_leaf=4)
        entries = random_entries(random.Random(6), 50)
        for e in entries:
            tree.insert(e)
        for e in entries[:40]:
            assert tree.delete(e.record.key, e.box)
        report = fsck(tree)
        assert report.ok
        assert report.records_seen == 10


class TestDetection:
    def test_detects_injected_corruption(self):
        tree = built_tree()
        victim = sorted(tree.disk.page_ids())[1]
        tree.disk.set_faults(FaultInjector().script_corruption(victim))
        report = fsck(tree)
        assert not report.ok
        kinds = {v.kind for v in report.errors}
        assert "corrupt-page" in kinds
        assert any(v.page_id == victim for v in report.errors)

    def test_detects_orphan_page(self):
        tree = built_tree()
        orphan = tree.disk.allocate()
        tree.disk.write(orphan, "unreachable")
        report = fsck(tree)
        assert not report.ok
        assert any(
            v.kind == "orphan-page" and v.page_id == orphan
            for v in report.errors
        )

    def test_detects_record_count_drift(self):
        tree = built_tree(n=20)
        # Remove a record behind the tree's back.
        for pid in tree.disk.page_ids():
            node = tree.disk.read(pid)
            if node.is_leaf and node.entries:
                del node.entries[-1]
                tree.disk.write(pid, node)
                break
        report = fsck(tree)
        assert not report.ok
        kinds = {v.kind for v in report.errors}
        assert "record-count" in kinds

    def test_detects_mbr_violation(self):
        tree = built_tree(n=30)
        # Shrink one internal entry's box so it no longer contains its
        # child's MBR.
        for pid in tree.disk.page_ids():
            node = tree.disk.read(pid)
            if not node.is_leaf:
                e = node.entries[0]
                child = tree.disk.read(e.child_id)
                shrunk = child.mbr().extents[0]
                from repro.geometry.box import Box
                from repro.geometry.interval import Interval

                bad_box = Box(
                    [Interval(shrunk.low, shrunk.low)]
                    + list(e.box.extents[1:])
                )
                replace_row(
                    node, 0, InternalEntry(bad_box, e.child_id, timestamp=e.timestamp)
                )
                tree.disk.write(pid, node)
                break
        report = fsck(tree)
        assert not report.ok
        assert "mbr-containment" in {v.kind for v in report.errors}

    def test_detects_duplicate_reference(self):
        tree = built_tree(n=30)
        # Point two internal entries at the same child.
        for pid in tree.disk.page_ids():
            node = tree.disk.read(pid)
            if not node.is_leaf and len(node.entries) >= 2:
                first = node.entries[0]
                second = node.entries[1]
                replace_row(
                    node,
                    1,
                    InternalEntry(second.box, first.child_id, timestamp=second.timestamp),
                )
                tree.disk.write(pid, node)
                break
        report = fsck(tree)
        assert not report.ok
        kinds = {v.kind for v in report.errors}
        assert "duplicate-reference" in kinds

    def test_never_raises_even_with_everything_corrupt(self):
        tree = built_tree()
        injector = FaultInjector()
        for pid in tree.disk.page_ids():
            injector.script_corruption(pid)
        tree.disk.set_faults(injector)
        report = fsck(tree)
        assert not report.ok
        assert report.pages_checked == 0


class TestReportShape:
    def test_violation_str_mentions_location(self):
        v = Violation("error", "orphan-page", 12, "unreachable")
        assert "page 12" in str(v)
        tree_wide = Violation("error", "record-count", None, "drift")
        assert "tree" in str(tree_wide)

    def test_summary_counts(self):
        report = FsckReport(pages_checked=3, records_seen=9)
        report.violations.append(Violation("warning", "underfull-node", 1, "w"))
        assert report.ok
        assert "1 warning(s)" in report.summary()
        report.violations.append(Violation("error", "corrupt-page", 2, "e"))
        assert not report.ok
        assert "CORRUPT" in report.summary()
