"""DurableIntentLog: redo framing, torn tails, group commit, recovery."""

import os

from repro.index.codec import ChecksummedCodec, NativeNodeCodec
from repro.index.nsi import NativeSpaceIndex
from repro.storage.file import FileDiskManager, open_durable, scan_page_file
from repro.storage.wal import (
    REC_BEGIN,
    REC_CHECKPOINT,
    REC_COMMIT,
    REC_TICK,
    REC_WRITE,
    DurableIntentLog,
    read_wal_records,
    replay_wal,
    wal_tail_info,
)

from _helpers import JsonPageCodec, make_segment

SMALL_PAGE = 256  # shrinks fanout to ~8 so a handful of inserts split


def durable_pair(tmp_path, sync_on_commit=True):
    log = DurableIntentLog(str(tmp_path / "t.wal"), sync_on_commit=sync_on_commit)
    disk = FileDiskManager(
        str(tmp_path / "t.pages"), JsonPageCodec(), intent_log=log
    )
    return disk, log


def committed_txn(disk, log, payload, tick=None):
    log.tick = tick
    log.begin()
    pid = disk.allocate()
    disk.write(pid, payload)
    log.commit()
    return pid


class TestFraming:
    def test_commit_frames_post_images(self, tmp_path):
        disk, log = durable_pair(tmp_path)
        pid = committed_txn(disk, log, "payload")
        records, truncated = read_wal_records(log.path)
        assert not truncated
        assert [r.rtype for r in records] == [REC_BEGIN, REC_WRITE, REC_COMMIT]
        assert records[1].page_id == pid
        assert records[2].json()["tick"] is None

    def test_commit_tags_the_current_tick(self, tmp_path):
        disk, log = durable_pair(tmp_path)
        committed_txn(disk, log, "a", tick=4)
        records, _ = read_wal_records(log.path)
        assert records[-1].json()["tick"] == 4

    def test_read_only_touch_produces_no_redo(self, tmp_path):
        disk, log = durable_pair(tmp_path)
        pid = committed_txn(disk, log, "stable")
        log.begin()
        disk.read(pid)
        log.commit()
        records, _ = read_wal_records(log.path)
        assert [r.rtype for r in records[3:]] == [REC_BEGIN, REC_COMMIT]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_wal_records(str(tmp_path / "absent.wal")) == ([], False)


class TestTornTail:
    def test_truncated_frame_is_dropped_earlier_txns_survive(self, tmp_path):
        disk, log = durable_pair(tmp_path)
        committed_txn(disk, log, "first")
        whole = os.path.getsize(log.path)
        committed_txn(disk, log, "second")
        log.close()
        with open(log.path, "r+b") as fh:
            fh.truncate(whole + 7)  # tear the second txn mid-frame
        records, truncated = read_wal_records(log.path)
        assert truncated
        assert [r.rtype for r in records] == [REC_BEGIN, REC_WRITE, REC_COMMIT]

    def test_uncommitted_tail_is_not_replayed(self, tmp_path):
        disk, log = durable_pair(tmp_path)
        committed_txn(disk, log, "kept")
        committed_txn(disk, log, "torn")
        log.close()
        # Cut the COMMIT off the second transaction: replay must treat
        # it as if it never happened (no-steal — the page file has
        # nothing of it either).
        with open(log.path, "rb") as fh:
            data = fh.read()
        applied = []
        # chop final COMMIT frame: find size by re-reading up to 5 records
        for cut in range(len(data) - 1, 0, -1):
            with open(tmp_path / "cut.wal", "wb") as fh:
                fh.write(data[:cut])
            recs, _ = read_wal_records(str(tmp_path / "cut.wal"))
            if [r.rtype for r in recs] == [
                REC_BEGIN, REC_WRITE, REC_COMMIT, REC_BEGIN, REC_WRITE,
            ]:
                break
        report = replay_wal(
            str(tmp_path / "cut.wal"), lambda rec: applied.append(rec.rtype)
        )
        assert report.committed == 1
        assert applied == [REC_WRITE]


class TestTickCut:
    def test_transactions_beyond_the_cut_are_discarded(self, tmp_path):
        disk, log = durable_pair(tmp_path)
        committed_txn(disk, log, "t0", tick=0)
        log.append_tick(0)
        committed_txn(disk, log, "t1", tick=1)
        log.append_tick(1)
        log.close()
        applied = []
        report = replay_wal(
            log.path, lambda rec: applied.append(rec.page_id), through_tick=0
        )
        assert report.committed == 1
        assert report.discarded == 1
        assert report.last_tick == 0

    def test_tail_info_reports_last_complete_tick(self, tmp_path):
        disk, log = durable_pair(tmp_path)
        committed_txn(disk, log, "t0", tick=0)
        log.append_tick(0, meta={"root_id": 9})
        committed_txn(disk, log, "t1", tick=1)  # tick 1 never completed
        log.close()
        report = wal_tail_info(log.path)
        assert report.last_tick == 0
        assert report.last_meta == {"root_id": 9}


class TestGroupCommit:
    def test_commits_buffer_until_the_tick_record(self, tmp_path):
        disk, log = durable_pair(tmp_path, sync_on_commit=False)
        committed_txn(disk, log, "a", tick=0)
        committed_txn(disk, log, "b", tick=0)
        assert os.path.getsize(log.path) == 0
        syncs_before = log.syncs
        log.append_tick(0)
        assert log.syncs == syncs_before + 1
        records, _ = read_wal_records(log.path)
        assert [r.rtype for r in records] == [
            REC_BEGIN, REC_WRITE, REC_COMMIT,
            REC_BEGIN, REC_WRITE, REC_COMMIT,
            REC_TICK,
        ]

    def test_reset_truncates_to_one_checkpoint_record(self, tmp_path):
        disk, log = durable_pair(tmp_path)
        committed_txn(disk, log, "gone", tick=3)
        log.append_tick(3)
        log.reset(meta={"root_id": 7}, tick=3)
        records, truncated = read_wal_records(log.path)
        assert not truncated
        assert [r.rtype for r in records] == [REC_CHECKPOINT]
        report = wal_tail_info(log.path)
        assert report.last_tick == 3
        assert report.last_meta == {"root_id": 7}

    def test_reset_leaves_no_sidecar(self, tmp_path):
        disk, log = durable_pair(tmp_path)
        committed_txn(disk, log, "x", tick=0)
        log.append_tick(0)
        log.reset(meta={"root_id": 1}, tick=0)
        assert not os.path.exists(log.path + ".tmp")
        committed_txn(disk, log, "y", tick=1)  # handle still appends

    def test_kill_during_reset_keeps_the_old_tail(self, tmp_path, monkeypatch):
        """Reset must be atomic: a crash at the most hostile instant —
        new log written but not yet renamed over the old one — leaves
        the old replayable tail, never an empty or torn log (the
        CHECKPOINT record is the only durable copy of the recovery
        metadata after a checkpoint)."""
        disk, log = durable_pair(tmp_path)
        committed_txn(disk, log, "survivor", tick=2)
        log.append_tick(2, meta={"root_id": 42})

        def die(src, dst):
            raise RuntimeError("killed between sidecar write and rename")

        monkeypatch.setattr(os, "replace", die)
        try:
            log.reset(meta={"root_id": 42}, tick=2)
        except RuntimeError:
            pass
        records, truncated = read_wal_records(log.path)
        assert not truncated
        assert [r.rtype for r in records] == [
            REC_BEGIN, REC_WRITE, REC_COMMIT, REC_TICK,
        ]
        report = wal_tail_info(log.path)
        assert report.last_tick == 2
        assert report.last_meta == {"root_id": 42}


class TestOpenDurable:
    def _codec(self):
        return ChecksummedCodec(NativeNodeCodec(2))

    def _segments(self, count, base=0):
        return [
            make_segment(
                oid=base + i, seq=1, t0=0.0, t1=5.0,
                origin=(float(i % 10), float(i // 10)), velocity=(0.5, -0.25),
            )
            for i in range(count)
        ]

    def _keys(self, tree):
        out = set()
        stack = [tree.root_id]
        while stack:
            node = tree.disk.read(stack.pop())
            if node.is_leaf:
                out.update((e.record.object_id, e.record.seq) for e in node.entries)
            else:
                stack.extend(e.child_id for e in node.entries)
        return frozenset(out)

    def test_crash_before_checkpoint_replays_committed_inserts(self, tmp_path):
        data_dir = str(tmp_path)
        disk, log, _ = open_durable(
            data_dir, "native", codec=self._codec(), page_size=SMALL_PAGE
        )
        nsi = NativeSpaceIndex(dims=2, disk=disk, page_size=SMALL_PAGE)
        for seg in self._segments(25):
            nsi.insert(seg)
        expected = self._keys(nsi.tree)
        assert len(expected) == 25
        # Crash: no checkpoint — the page file never saw these inserts.
        disk.close()
        log.close()

        disk2, log2, report = open_durable(
            data_dir, "native", codec=self._codec(), page_size=SMALL_PAGE
        )
        assert report.committed == 25
        nsi2 = NativeSpaceIndex(
            dims=2, disk=disk2, page_size=SMALL_PAGE,
            restore_meta=dict(report.last_meta),
        )
        assert self._keys(nsi2.tree) == expected
        disk2.close()
        log2.close()

    def test_fresh_open_discards_prepin_leftovers(self, tmp_path):
        """A store dir whose config was never pinned may still hold the
        partially flushed page/WAL files of a bulk load that crashed
        mid-checkpoint; ``fresh=True`` must start from empty files
        instead of adopting those slots as orphans."""
        data_dir = str(tmp_path)
        disk, log, _ = open_durable(
            data_dir, "native", codec=self._codec(), page_size=SMALL_PAGE
        )
        nsi = NativeSpaceIndex(dims=2, disk=disk, page_size=SMALL_PAGE)
        for seg in self._segments(10):
            nsi.insert(seg)
        disk.checkpoint(meta=nsi.tree.recovery_meta())
        # Crash here, before store.json would have been written.
        disk.close()
        log.close()

        disk2, log2, report = open_durable(
            data_dir, "native", codec=self._codec(), page_size=SMALL_PAGE,
            fresh=True,
        )
        assert report.committed == 0
        assert report.last_meta == {}
        assert disk2.stats.live_pages == 0
        scan, _ = scan_page_file(os.path.join(data_dir, "native.pages"))
        assert scan.slot_count == 0
        disk2.close()
        log2.close()

    def test_recovery_checkpoint_prevents_double_replay(self, tmp_path):
        data_dir = str(tmp_path)
        disk, log, _ = open_durable(
            data_dir, "native", codec=self._codec(), page_size=SMALL_PAGE
        )
        nsi = NativeSpaceIndex(dims=2, disk=disk, page_size=SMALL_PAGE)
        for seg in self._segments(10):
            nsi.insert(seg)
        expected = self._keys(nsi.tree)
        disk.close()
        log.close()

        disk2, log2, report2 = open_durable(
            data_dir, "native", codec=self._codec(), page_size=SMALL_PAGE
        )
        assert report2.committed == 10
        disk2.close()
        log2.close()
        # The first recovery checkpointed, so a second restart finds a
        # truncated log: nothing replays, the page file alone suffices.
        disk3, log3, report3 = open_durable(
            data_dir, "native", codec=self._codec(), page_size=SMALL_PAGE
        )
        assert report3.committed == 0
        nsi3 = NativeSpaceIndex(
            dims=2, disk=disk3, page_size=SMALL_PAGE,
            restore_meta=dict(report3.last_meta),
        )
        assert self._keys(nsi3.tree) == expected
        disk3.close()
        log3.close()
