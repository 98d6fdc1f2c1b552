"""FileDiskManager: page-file format, deferred writes, verification."""

import os

import pytest

from repro.errors import StorageError
from repro.storage.file import (
    FileDiskManager,
    scan_page_file,
)
from repro.storage.wal import DurableIntentLog

from _helpers import JsonPageCodec

_FILE_HEADER_BYTES = 32
_SLOT_HEADER_BYTES = 16


def _slot_payload_offset(disk, page_id):
    slot = _SLOT_HEADER_BYTES + disk.page_size
    return _FILE_HEADER_BYTES + page_id * slot + _SLOT_HEADER_BYTES


def _flip_payload_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestFileFormat:
    def test_fresh_file_is_header_only(self, tmp_path):
        path = tmp_path / "t.pages"
        disk = FileDiskManager(str(path), JsonPageCodec())
        disk.close()
        assert os.path.getsize(path) == _FILE_HEADER_BYTES

    def test_page_size_is_adopted_from_the_file(self, tmp_path):
        path = tmp_path / "t.pages"
        disk = FileDiskManager(str(path), JsonPageCodec(), page_size=512)
        pid = disk.allocate()
        disk.write(pid, {"k": 1})
        disk.checkpoint()
        disk.close()
        # A different constructor default must not re-frame the store.
        reopened = FileDiskManager(str(path), JsonPageCodec(), page_size=4096)
        assert reopened.page_size == 512
        assert reopened.read(pid) == {"k": 1}
        reopened.close()

    def test_scan_reports_live_and_free_slots(self, tmp_path):
        path = tmp_path / "t.pages"
        disk = FileDiskManager(str(path), JsonPageCodec())
        keep = disk.allocate()
        drop = disk.allocate()
        disk.write(keep, "keep")
        disk.write(drop, "drop")
        disk.free(drop)
        disk.checkpoint()
        disk.close()
        report, page_size = scan_page_file(str(path))
        assert page_size == disk.page_size
        assert keep in report.cells
        assert drop not in report.cells
        assert report.problems == []


class TestDeferredWrites:
    def test_mutations_survive_only_via_checkpoint(self, tmp_path):
        path = tmp_path / "t.pages"
        disk = FileDiskManager(str(path), JsonPageCodec())
        pid = disk.allocate()
        disk.write(pid, "durable")
        assert disk.checkpoint() == 1
        disk.write(pid, "volatile")
        assert disk.dirty_pages == (pid,)
        disk.close()  # close never flushes: crashes must not half-persist
        reopened = FileDiskManager(str(path), JsonPageCodec())
        assert reopened.read(pid) == "durable"
        reopened.close()

    def test_free_persists_as_tombstone(self, tmp_path):
        path = tmp_path / "t.pages"
        disk = FileDiskManager(str(path), JsonPageCodec())
        pid = disk.allocate()
        disk.write(pid, "x")
        disk.checkpoint()
        disk.free(pid)
        disk.checkpoint()
        disk.close()
        reopened = FileDiskManager(str(path), JsonPageCodec())
        assert pid not in reopened
        reopened.close()

    def test_checkpoint_rejects_in_flight_transaction(self, tmp_path):
        log = DurableIntentLog(str(tmp_path / "t.wal"))
        disk = FileDiskManager(
            str(tmp_path / "t.pages"), JsonPageCodec(), intent_log=log
        )
        log.begin()
        with pytest.raises(StorageError):
            disk.checkpoint()
        log.commit()
        disk.close()
        log.close()

    def test_checkpoint_counts_flushed_slots(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "t.pages"), JsonPageCodec())
        pids = [disk.allocate() for _ in range(3)]
        for i, pid in enumerate(pids):
            disk.write(pid, i)
        assert disk.checkpoint() == 3
        assert disk.checkpoint() == 0
        assert disk.checkpoints == 2
        disk.close()


class TestVerification:
    def test_clean_store_verifies(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "t.pages"), JsonPageCodec())
        pid = disk.allocate()
        disk.write(pid, ["payload"])
        disk.checkpoint()
        assert disk.verify_pages() == []
        disk.close()

    def test_flipped_payload_byte_is_reported(self, tmp_path):
        path = tmp_path / "t.pages"
        disk = FileDiskManager(str(path), JsonPageCodec())
        pid = disk.allocate()
        disk.write(pid, ["payload"])
        disk.checkpoint()
        disk.close()
        _flip_payload_byte(path, _slot_payload_offset(disk, pid))
        reopened = FileDiskManager(str(path), JsonPageCodec())
        problems = reopened.verify_pages()
        assert [p for p, _ in problems] == [pid]
        reopened.close()

    def test_dirty_slots_are_skipped(self, tmp_path):
        path = tmp_path / "t.pages"
        disk = FileDiskManager(str(path), JsonPageCodec())
        pid = disk.allocate()
        disk.write(pid, "old")
        disk.checkpoint()
        # A pending rewrite makes the file image stale by design.
        disk.write(pid, "new")
        _flip_payload_byte(path, _slot_payload_offset(disk, pid))
        assert disk.verify_pages() == []
        disk.close()

    def test_quarantine_moves_damage_aside(self, tmp_path):
        path = tmp_path / "t.pages"
        disk = FileDiskManager(str(path), JsonPageCodec())
        bad = disk.allocate()
        good = disk.allocate()
        disk.write(bad, "doomed")
        disk.write(good, "fine")
        disk.checkpoint()
        disk.close()
        _flip_payload_byte(path, _slot_payload_offset(disk, bad))
        reopened = FileDiskManager(str(path), JsonPageCodec())
        qdir = tmp_path / "quarantine"
        assert reopened.quarantine(str(qdir)) == [bad]
        assert bad not in reopened
        assert reopened.read(good) == "fine"
        assert reopened.verify_pages() == []
        assert os.listdir(qdir) == [f"t.page{bad:06d}.bin"]
        reopened.close()

    def test_quarantine_on_clean_store_is_a_noop(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "t.pages"), JsonPageCodec())
        pid = disk.allocate()
        disk.write(pid, "fine")
        disk.checkpoint()
        assert disk.quarantine(str(tmp_path / "q")) == []
        assert not os.path.exists(tmp_path / "q")
        disk.close()
