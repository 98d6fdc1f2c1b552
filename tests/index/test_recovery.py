"""Crash-consistent index updates: intent log, rollback, recovery."""

import random

import pytest

from repro.errors import TransientIOError
from repro.index.check import fsck
from repro.index.entry import LeafEntry
from repro.index.rtree import RTree
from repro.storage.disk import DiskManager
from repro.storage.faults import FaultInjector
from repro.storage.wal import IntentLog

from _helpers import assert_fsck_clean, make_segment


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


def logged_tree(auto_rollback=True, max_entries=4):
    log = IntentLog(auto_rollback=auto_rollback)
    disk = DiskManager(intent_log=log)
    tree = RTree(
        axes=3, max_internal=max_entries, max_leaf=max_entries, disk=disk
    )
    return tree, log


def tree_image(tree):
    """A comparable snapshot of the whole structure."""
    pages = {}
    for pid in tree.disk.page_ids():
        node = tree.disk.read(pid)
        pages[pid] = (node.level, sorted(repr(e) for e in node.entries))
    return tree.root_id, len(tree), pages


class TestAtomicOperations:
    def test_clean_inserts_commit(self):
        tree, log = logged_tree()
        rng = random.Random(0)
        for e in random_entries(rng, 30):
            tree.insert(e)
        assert log.commits == 30
        assert log.rollbacks == 0
        assert len(tree) == 30
        assert_fsck_clean(tree)

    def test_failed_split_rolls_back_atomically(self):
        tree, log = logged_tree()
        rng = random.Random(1)
        entries = random_entries(rng, 40)
        for e in entries[:-1]:
            tree.insert(e)
        before = tree_image(tree)
        # Every write now fails: the final insert cannot make progress.
        tree.disk.set_faults(FaultInjector(write_error_rate=1.0, seed=0))
        with pytest.raises(TransientIOError):
            tree.insert(entries[-1])
        tree.disk.set_faults(None)
        assert tree_image(tree) == before  # auto rollback restored it all
        assert log.rollbacks == 1
        assert_fsck_clean(tree)
        assert fsck(tree).ok

    def test_failed_delete_rolls_back(self):
        tree, log = logged_tree()
        rng = random.Random(2)
        entries = random_entries(rng, 25)
        for e in entries:
            tree.insert(e)
        before = tree_image(tree)
        victim = entries[7]
        tree.disk.set_faults(FaultInjector().script_write_op(1))
        with pytest.raises(TransientIOError):
            tree.delete(victim.record.key, victim.box)
        tree.disk.set_faults(None)
        assert tree_image(tree) == before
        assert len(tree) == 25
        # The delete still works once the fault is gone.
        assert tree.delete(victim.record.key, victim.box)
        assert_fsck_clean(tree)

    def test_orphan_reinsertion_nests_under_one_transaction(self):
        # Condensing after delete reinserts orphans via insert(); that
        # inner insert must not try to open a second transaction.
        tree, log = logged_tree()
        rng = random.Random(3)
        entries = random_entries(rng, 40)
        for e in entries:
            tree.insert(e)
        commits_before = log.commits
        for e in entries[:20]:
            assert tree.delete(e.record.key, e.box)
        assert log.commits == commits_before + 20  # one txn per delete
        assert_fsck_clean(tree)


class TestCrashAndRecover:
    def crash_mid_insert(self, seed=4, prebuilt=35):
        tree, log = logged_tree(auto_rollback=False)
        rng = random.Random(seed)
        entries = random_entries(rng, prebuilt + 1)
        for e in entries[:prebuilt]:
            tree.insert(e)
        before = tree_image(tree)
        # Fail the *third* physical write of the next operation so the
        # crash lands mid-flight, after some pages are already dirty.
        tree.disk.set_faults(FaultInjector().script_write_op(3))
        with pytest.raises(TransientIOError):
            tree.insert(entries[prebuilt])
        tree.disk.set_faults(None)
        return tree, log, before

    def test_crash_leaves_transaction_pending(self):
        tree, log, _ = self.crash_mid_insert()
        assert log.in_flight
        assert log.rollbacks == 0

    def test_recover_restores_the_exact_pre_crash_image(self):
        tree, log, before = self.crash_mid_insert()
        assert tree.recover()
        assert not log.in_flight
        assert tree_image(tree) == before
        assert_fsck_clean(tree)
        assert fsck(tree).ok

    def test_recover_without_crash_is_a_noop(self):
        tree, log = logged_tree()
        tree.insert(leaf_entry(0, 0.0, 1.0, (5.0, 5.0)))
        assert tree.recover() is False
        assert len(tree) == 1

    def test_recovered_tree_accepts_new_work(self):
        tree, log, _ = self.crash_mid_insert()
        tree.recover()
        tree.insert(leaf_entry(99, 0.0, 1.0, (50.0, 50.0)))
        assert len(tree) == 36
        assert_fsck_clean(tree)

    def test_crash_during_root_split_recovers(self):
        tree, log = logged_tree(auto_rollback=False, max_entries=3)
        for i in range(3):
            tree.insert(leaf_entry(i, float(i), i + 1.0, (i * 10.0, 0.0)))
        before = tree_image(tree)
        # The 4th insert splits the root; kill its second write.
        tree.disk.set_faults(FaultInjector().script_write_op(2))
        with pytest.raises(TransientIOError):
            tree.insert(leaf_entry(3, 3.0, 4.0, (30.0, 0.0)))
        tree.disk.set_faults(None)
        assert tree.recover()
        assert tree_image(tree) == before
        assert fsck(tree).ok

    def test_unlogged_tree_has_no_crash_safety(self):
        # Sanity check on the default: without an intent log, recover()
        # reports nothing to do.
        tree = RTree(axes=3, max_internal=4, max_leaf=4)
        tree.insert(leaf_entry(0, 0.0, 1.0, (1.0, 1.0)))
        assert tree.recover() is False
