"""Runtime sanitizers: each must catch its bug class and stay quiet otherwise."""

import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import runtime
from repro.analysis.sanitizers import (
    ClockSanitizer,
    PinLeakSanitizer,
    SanitizerSuite,
    WallClockGuard,
)
from repro.errors import SanitizerError
from repro.geometry.box import Box
from repro.index.codec import ChecksummedCodec, NativeNodeCodec
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import Node
from repro.index.nsi import NativeSpaceIndex
from repro.index.rtree import RTree
from repro.server.clock import SimulatedClock
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.file import open_durable
from repro.storage.wal import IntentLog

from _helpers import make_segment

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture()
def suite():
    """Enable a fresh suite, restoring whatever was active before.

    Restoration (not plain disable) matters when the whole test run is
    itself sanitized via REPRO_SANITIZE=1: the plugin's suite must come
    back after each of these tests.
    """
    previous = runtime.suite()
    fresh = SanitizerSuite()
    runtime.enable(fresh)
    yield fresh
    if previous is not None:
        runtime.enable(previous)
    else:
        runtime.disable()


def make_disk():
    disk = DiskManager(buffer_pool=BufferPool(8), intent_log=IntentLog())
    pid = disk.allocate()
    disk.write(pid, Node(pid, level=0))
    return disk, pid


class TestPageWriteSanitizer:
    def test_unlogged_mutation_caught_on_reread(self, suite):
        disk, pid = make_disk()
        node = disk.read(pid)
        node.timestamp = 99  # the PR-2 bug: in-place, no pre-image
        with pytest.raises(SanitizerError, match="without a WAL pre-image"):
            disk.read(pid)
        suite.page_writes.reset()

    def test_unlogged_mutation_caught_at_checkpoint(self, suite):
        disk, pid = make_disk()
        node = disk.read(pid)
        rec = make_segment(7)
        node.entries.append(LeafEntry(rec.bounding_box(), rec))  # never re-read
        with pytest.raises(SanitizerError, match="detected at checkpoint"):
            suite.checkpoint_and_reset()

    def test_unlogged_row_write_on_a_file_backed_page_caught(self, suite, tmp_path):
        # The same bug on the file backend, where a cached page is its
        # columns: entry objects are built on demand, so their identities
        # say nothing — the fingerprint has to read the rows.
        disk, log, _ = open_durable(
            str(tmp_path), "native",
            codec=ChecksummedCodec(NativeNodeCodec(2)),
            buffer_pool=BufferPool(8),
        )
        unit = Box.from_bounds([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        pid = disk.allocate()
        disk.write(pid, Node(pid, 1, [InternalEntry(unit, 7)], timestamp=5))
        node = disk.read(pid)
        assert not isinstance(node.entries, list)  # page-backed
        list(node.entries)  # building the views is not a mutation
        disk.read(pid)
        # one row rewritten in place: same count, same page stamp
        node.update_child_box(7, Box.from_bounds([0.0] * 3, [2.0] * 3), clock=1)
        assert node.timestamp == 5 and len(node.entries) == 1
        with pytest.raises(SanitizerError, match="without a WAL pre-image"):
            disk.read(pid)
        suite.page_writes.reset()
        log.close()
        disk.close()

    def test_logged_row_write_on_a_file_backed_page_is_fine(self, suite, tmp_path):
        disk, log, _ = open_durable(
            str(tmp_path), "native",
            codec=ChecksummedCodec(NativeNodeCodec(2)),
            buffer_pool=BufferPool(8),
        )
        unit = Box.from_bounds([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        pid = disk.allocate()
        disk.write(pid, Node(pid, 1, [InternalEntry(unit, 7)], timestamp=5))
        disk.read(pid)
        log.begin()
        node = disk.read(pid)  # the in-flight txn records the pre-image
        node.update_child_box(7, Box.from_bounds([0.0] * 3, [2.0] * 3), clock=6)
        disk.write(pid, node)
        log.commit()
        assert disk.read(pid).mbr() == Box.from_bounds([0.0] * 3, [2.0] * 3)
        suite.checkpoint_and_reset()
        log.close()
        disk.close()

    def test_logged_mutation_is_fine(self, suite):
        disk, pid = make_disk()
        log = disk.intent_log
        log.begin()
        node = disk.read(pid)  # in-flight txn records the pre-image
        node.timestamp = 7
        log.commit()
        disk.read(pid)
        suite.checkpoint_and_reset()

    def test_rollback_rebaselines_touched_pages(self, suite):
        disk, pid = make_disk()
        disk.read(pid)
        log = disk.intent_log
        log.begin()
        node = disk.read(pid)
        node.timestamp = 42
        log.rollback(disk)  # pre-image restored; state re-baselined
        assert disk.read(pid).timestamp == 0
        suite.checkpoint_and_reset()

    def test_full_write_resets_tracking(self, suite):
        disk, pid = make_disk()
        disk.read(pid)
        disk.write(pid, Node(pid, level=0, timestamp=5))  # legitimate path
        disk.read(pid)
        suite.checkpoint_and_reset()

    def test_wal_free_disks_are_out_of_scope(self, suite):
        # Bulk loads and buffer-ablation runs mutate without logging on
        # purpose; with no intent log attached there is nothing to check.
        disk = DiskManager(buffer_pool=BufferPool(8))
        pid = disk.allocate()
        disk.write(pid, Node(pid, level=0))
        node = disk.read(pid)
        node.timestamp = 13
        disk.read(pid)
        suite.checkpoint_and_reset()


def batch_tree():
    """A small-paged native tree on a pooled, logged object-mode disk,
    every page read once since the last write (so every page is tracked)."""
    disk = DiskManager(buffer_pool=BufferPool(64), intent_log=IntentLog())
    index = NativeSpaceIndex(dims=2, disk=disk, page_size=256)
    for oid in range(30):
        index.insert(make_segment(oid, 0, 0.0, 1.0, (oid % 6, oid // 6), (0.1, 0.0)))
    assert sum(1 for _ in index.tree.all_leaf_entries()) == 30
    return index


NEW = [make_segment(100 + k, 0, 0.0, 1.0, (k, 5.0 - k), (0.0, 0.1)) for k in range(4)]


class TestWriteBatches:
    """A write batch reads the nodes it wrote from its dirty map, not
    from ``disk.read``; a node it mutates must still have a pre-image."""

    @pytest.mark.parametrize("size", [1, 4])
    def test_a_batch_is_clean(self, suite, size):
        batch_tree().insert_batch(NEW[:size])
        suite.checkpoint_and_reset()

    @pytest.mark.parametrize("size", [1, 4])
    def test_a_batch_mutating_a_node_it_did_not_read_is_caught(
        self, suite, size, monkeypatch
    ):
        # The bug: the batch takes the root's live node without
        # disk.read, so the transaction records no pre-image before the
        # batch mutates it; its write-back then "legitimises" it.  Caught
        # for the batch of one (a single insert) and for a batch of four.
        index = batch_tree()
        root, read = index.tree.root_id, RTree._read

        def leaky_read(tree, page_id):
            if page_id == root and page_id not in tree._batch:
                return tree.disk.raw_page(page_id)
            return read(tree, page_id)

        monkeypatch.setattr(RTree, "_read", leaky_read)
        with pytest.raises(SanitizerError, match="without a WAL pre-image") as caught:
            index.insert_batch(NEW[:size])
        # First at the write-back (the rollback's re-read then reports it
        # again, with the first error as its context).
        first = caught.value.__context__ or caught.value
        assert "when its pre-image was taken" in str(first)
        suite.page_writes.reset()


class TestPinLeakSanitizer:
    def broker_over(self, disk):
        index = SimpleNamespace(tree=SimpleNamespace(disk=disk))
        return SimpleNamespace(scheduler=None, native=index, dual=None)

    def test_leaked_pin_at_tick_end(self):
        disk, pid = make_disk()
        pool = disk.buffer_pool
        disk.read(pid)
        pool.pin(pid)
        with pytest.raises(SanitizerError, match="still pinned at tick end"):
            PinLeakSanitizer().tick_end(self.broker_over(disk))
        pool.unpin_all()

    def test_unpinned_pool_is_fine(self):
        disk, pid = make_disk()
        disk.read(pid)
        PinLeakSanitizer().tick_end(self.broker_over(disk))


class TestClockSanitizer:
    def test_clean_stream_passes(self, suite):
        clock = SimulatedClock(period=0.25)
        for _ in range(10):
            clock.next_tick()

    def test_index_gap_is_caught(self, suite):
        clock = SimulatedClock()
        clock.next_tick()
        clock._index = 7
        with pytest.raises(SanitizerError, match="gap-free"):
            clock.next_tick()

    def test_period_drift_is_caught(self, suite):
        clock = SimulatedClock(period=0.1)
        clock.next_tick()
        clock.period = 0.3  # boundaries no longer stitch together
        with pytest.raises(SanitizerError):
            clock.next_tick()

    def test_state_lives_on_the_clock(self, suite):
        # Two interleaved clocks with different periods must not cross
        # wires: per-clock state rides on the clock objects themselves,
        # so each stream validates independently.
        a, b = SimulatedClock(period=0.1), SimulatedClock(period=0.5)
        for _ in range(3):
            a.next_tick()
            b.next_tick()
        assert getattr(a, ClockSanitizer._ATTR) == (2, pytest.approx(0.3))
        assert getattr(b, ClockSanitizer._ATTR) == (2, pytest.approx(1.5))


class TestWallClockGuard:
    def test_engine_caller_is_blocked_and_test_caller_is_not(self):
        guard = WallClockGuard()
        guard.install()
        try:
            time.time()  # this module is not repro.*: passes
            namespace = {"__name__": "repro.core.fake", "time": time}
            exec("def stamp():\n    return time.time()\n", namespace)
            with pytest.raises(SanitizerError, match="SimulatedClock"):
                namespace["stamp"]()
            cli_ns = {"__name__": "repro.cli", "time": time}
            exec("def _cmd_figures():\n    return time.time()\n", cli_ns)
            cli_ns["_cmd_figures"]()  # the one allow-listed call site
        finally:
            guard.uninstall()
        assert not guard._originals

    def test_allow_list_is_per_call_site_not_per_module(self):
        # Regression for the ROADMAP nit: the old guard allow-listed
        # repro.cli / repro.analysis / repro.experiments *wholesale*, so
        # a wall-clock read sneaking into any other function there went
        # unguarded.  Only the named sites may pass now.
        guard = WallClockGuard()
        guard.install()
        try:
            cli_ns = {"__name__": "repro.cli", "time": time}
            exec("def _cmd_serve():\n    return time.time()\n", cli_ns)
            with pytest.raises(SanitizerError, match="_cmd_serve"):
                cli_ns["_cmd_serve"]()
            for module in ("repro.experiments.figures", "repro.analysis.engine"):
                ns = {"__name__": module, "time": time}
                exec("def stamp():\n    return time.time()\n", ns)
                with pytest.raises(SanitizerError, match="SimulatedClock"):
                    ns["stamp"]()
        finally:
            guard.uninstall()

    def test_uninstall_restores_originals(self):
        guard = WallClockGuard()
        original = time.time
        guard.install()
        assert time.time is not original
        guard.uninstall()
        assert time.time is original


class TestPytestPluginEndToEnd:
    """REPRO_SANITIZE=1 must catch the PR-2 bug class in a real pytest run."""

    BUGGY_TEST = """
from repro.index.node import Node
from repro.index.nsi import NativeSpaceIndex
from repro.index.rtree import RTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.file import open_durable
from repro.storage.wal import IntentLog


def test_mutates_a_cached_page_without_logging():
    disk = DiskManager(buffer_pool=BufferPool(8), intent_log=IntentLog())
    pid = disk.allocate()
    disk.write(pid, Node(pid, level=0))
    node = disk.read(pid)
    node.timestamp = 99  # unlogged in-place mutation, never re-read
"""

    BUGGY_BATCH_TEST = """
from repro.index.nsi import NativeSpaceIndex
from repro.index.rtree import RTree
from repro.motion.segment import MotionSegment
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.wal import IntentLog


def segment(oid, x, y):
    return MotionSegment(oid, 0, SpaceTimeSegment(Interval(0.0, 1.0), (x, y), (0.1, 0.0)))


def test_a_batch_mutates_a_node_it_did_not_read():
    disk = DiskManager(buffer_pool=BufferPool(64), intent_log=IntentLog())
    index = NativeSpaceIndex(dims=2, disk=disk, page_size=256)
    for oid in range(30):
        index.insert(segment(oid, oid % 6, oid // 6))
    list(index.tree.all_leaf_entries())
    root, read = index.tree.root_id, RTree._read
    # the root's live node, without disk.read: no pre-image
    RTree._read = lambda tree, pid: (
        tree.disk.raw_page(pid) if pid == root and pid not in tree._batch
        else read(tree, pid)
    )
    try:
        index.insert_batch([segment(100 + k, k, 5.0 - k) for k in range(4)])
    finally:
        RTree._read = read
"""

    def run_pytest(self, tmp_path, sanitize, source=BUGGY_TEST):
        test_file = tmp_path / "test_buggy.py"
        test_file.write_text(source)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_SANITIZE", None)
        if sanitize:
            env["REPRO_SANITIZE"] = "1"
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "-q",
                "-p",
                "repro.analysis.pytest_plugin",
                "-p",
                "no:cacheprovider",
                str(test_file),
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_sanitized_run_catches_it(self, tmp_path):
        proc = self.run_pytest(tmp_path, sanitize=True)
        assert proc.returncode != 0
        assert "SanitizerError" in proc.stdout + proc.stderr

    def test_plain_run_misses_it(self, tmp_path):
        # The point of the sanitizer: without it this bug is invisible.
        proc = self.run_pytest(tmp_path, sanitize=False)
        assert proc.returncode == 0

    def test_sanitized_run_catches_a_batch(self, tmp_path):
        proc = self.run_pytest(tmp_path, True, self.BUGGY_BATCH_TEST)
        assert proc.returncode != 0
        assert "when its pre-image was taken" in proc.stdout + proc.stderr

    def test_plain_run_misses_a_batch(self, tmp_path):
        proc = self.run_pytest(tmp_path, False, self.BUGGY_BATCH_TEST)
        assert proc.returncode == 0, proc.stdout + proc.stderr
