"""The durable backend: a slot-framed page file plus snapshots.

:class:`FileDiskManager` subclasses the simulated
:class:`~repro.storage.disk.DiskManager` and keeps all of its
behaviour — codec framing, fault gates, retry accounting, buffer
coherence, intent-log pre-images — while persisting page cells to one
file per tree:

``header · slot 0 · slot 1 · …``

The 32-byte header records the page size; each fixed-size slot is a
16-byte CRC32-framed header followed by the page payload, and the page
id *is* the slot index (ids are dense: the allocation cursor only moves
forward, rollback rewinds it).  Writes are **deferred** (no-steal): a
mutation lands in the in-memory cell map and a dirty set, and reaches
the file only at :meth:`FileDiskManager.checkpoint`, which flushes the
dirty slots, ``fsync``\\ s, and truncates the attached
:class:`~repro.storage.wal.DurableIntentLog`.  Between checkpoints the
redo log is the durable truth: :func:`open_durable` replays its
committed tail over the page file on restart.

Snapshots follow SNIPPETS.md snippet 3 (keboola-duckdb ADR-004):
point-in-time recovery ships per-tree compressed page files plus a
``metadata.json`` manifest (snapshot id, tick, tree roots, page counts,
CRC32 checksums) instead of copying a whole database directory.

This module and :mod:`repro.storage.wal` are the only places outside
the CLI allowed to touch the filesystem (lint rule DQL05).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.constants import PAGE_SIZE
from repro.storage.disk import DiskManager, PageCodec
from repro.storage.faults import FaultInjector, RetryPolicy, TornPage
from repro.storage.wal import (
    REC_ALLOC,
    REC_FREE,
    REC_WRITE,
    DurableIntentLog,
    IntentLog,
    ReplayReport,
    WalRecord,
    replay_wal,
)

__all__ = [
    "FileDiskManager",
    "PageScanReport",
    "scan_page_file",
    "open_durable",
    "TickDurability",
    "write_store_config",
    "read_store_config",
    "write_snapshot",
    "verify_snapshot",
    "restore_snapshot",
    "list_snapshots",
]

_FILE_MAGIC = b"RDQPAGE1"
#: file header: magic, version, flags, page size, reserved.
_FILE_HEADER = struct.Struct("<8sHHI16x")
_FILE_VERSION = 1

_SLOT_MAGIC = b"RPSL"
#: slot header: magic, status, pad, payload length, CRC32(payload).
_SLOT_HEADER = struct.Struct("<4sB3xII")

_STATUS_FREE = 0
_STATUS_LIVE = 1
_STATUS_UNWRITTEN = 2


class _Freed:
    """Dirty-map sentinel: the slot must become a tombstone on flush."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<freed>"


_FREED = _Freed()


@dataclass
class PageScanReport:
    """Outcome of walking a page file's slots on disk."""

    slot_count: int = 0
    live: int = 0
    unwritten: int = 0
    free: int = 0
    holes: int = 0
    problems: List[Tuple[int, str]] = field(default_factory=list)
    cells: Dict[int, Optional[bytes]] = field(default_factory=dict)


def _read_file_header(data: bytes, path: str) -> int:
    if len(data) < _FILE_HEADER.size:
        raise StorageError(f"{path} is too short to be a page file")
    magic, version, _flags, page_size = _FILE_HEADER.unpack_from(data, 0)
    if magic != _FILE_MAGIC:
        raise StorageError(f"{path} is not a repro page file (bad magic)")
    if version != _FILE_VERSION:
        raise StorageError(f"{path} has unsupported page-file version {version}")
    return page_size


def scan_page_file(path: str) -> Tuple[PageScanReport, int]:
    """Walk every slot of a page file; returns ``(report, page_size)``.

    ``report.cells`` maps page id to payload bytes (live slots) or
    ``None`` (allocated-but-unwritten); damaged slots — bad CRC,
    payload longer than a page, unknown status — are reported and left
    out of the cell map.  Zeroed regions (file extension holes) count
    as ``holes``, not damage.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    page_size = _read_file_header(data, path)
    slot_size = _SLOT_HEADER.size + page_size
    report = PageScanReport()
    # Slots are not padded to full size — the last one ends right after
    # its payload — so a slot "exists" as soon as its 16-byte header is
    # complete.  A header torn mid-append is ignored, same as a hole.
    report.slot_count = max(0, len(data) - _FILE_HEADER.size + page_size) // slot_size
    for pid in range(report.slot_count):
        offset = _FILE_HEADER.size + pid * slot_size
        magic, status, length, crc = _SLOT_HEADER.unpack_from(data, offset)
        if magic != _SLOT_MAGIC:
            report.holes += 1
            continue
        if status == _STATUS_FREE:
            report.free += 1
        elif status == _STATUS_UNWRITTEN:
            report.unwritten += 1
            report.cells[pid] = None
        elif status == _STATUS_LIVE:
            if length > page_size:
                report.problems.append(
                    (pid, f"slot {pid}: payload length {length} exceeds page size")
                )
                continue
            payload = data[
                offset + _SLOT_HEADER.size : offset + _SLOT_HEADER.size + length
            ]
            if len(payload) < length:
                report.problems.append((pid, f"slot {pid}: truncated payload"))
                continue
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                report.problems.append((pid, f"slot {pid}: CRC32 mismatch"))
                continue
            report.live += 1
            report.cells[pid] = bytes(payload)
        else:
            report.problems.append((pid, f"slot {pid}: unknown status {status}"))
    return report, page_size


class FileDiskManager(DiskManager):
    """A :class:`~repro.storage.disk.DiskManager` backed by a page file.

    Parameters mirror the base class; ``path`` names the page file
    (created with an fsynced header if absent, scanned and adopted if
    present) and ``codec`` is required — the backend is always binary,
    there is no object mode on disk, and what decodes a page file's
    bytes is the caller's choice, never a default.

    Mutations are deferred: cells live in memory and in a dirty map
    until :meth:`checkpoint` flushes them.  Crash recovery is the
    attached :class:`~repro.storage.wal.DurableIntentLog`'s job — see
    :func:`open_durable` for the restart sequence.
    """

    __slots__ = ("path", "checkpoints", "_dirty", "_fh")

    def __init__(
        self,
        path: str,
        codec: PageCodec,
        buffer_pool: Optional[BufferPool] = None,
        page_size: int = PAGE_SIZE,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        intent_log: Optional[IntentLog] = None,
    ):
        super().__init__(
            codec=codec,
            buffer_pool=buffer_pool,
            page_size=page_size,
            faults=faults,
            retry=retry,
        )
        self.path = str(path)
        self.checkpoints = 0
        self._dirty: Dict[int, Any] = {}
        self._fh = None
        self._open_file()
        if intent_log is not None:
            self.set_intent_log(intent_log)

    # -- file plumbing ------------------------------------------------------

    def _open_file(self) -> None:
        if os.path.exists(self.path):
            self._load()
            self._fh = open(self.path, "r+b")
            return
        self._fh = open(self.path, "w+b")
        self._fh.write(
            _FILE_HEADER.pack(_FILE_MAGIC, _FILE_VERSION, 0, self.page_size)
        )
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _load(self) -> None:
        report, page_size = scan_page_file(self.path)
        # The file's layout wins over the constructor default so a store
        # written with one page size cannot be silently re-framed.
        self.page_size = page_size
        for pid, cell in report.cells.items():
            self._pages[pid] = cell
        for pid, _message in report.problems:
            # Keep the damaged page *visible*: reading it must raise
            # CorruptPageError (torn-write semantics), and fsck must see
            # it so --repair can quarantine the slot.
            self._pages[pid] = TornPage(pid)
        self._next_id = report.slot_count
        self.stats.allocated = len(self._pages)

    def _slot_offset(self, page_id: int) -> int:
        return _FILE_HEADER.size + page_id * (_SLOT_HEADER.size + self.page_size)

    def _write_slot(self, page_id: int, status: int, payload: bytes) -> None:
        header = _SLOT_HEADER.pack(
            _SLOT_MAGIC, status, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
        )
        self._fh.seek(self._slot_offset(page_id))
        self._fh.write(header + payload)

    # -- cell primitives (dirty tracking) -----------------------------------

    def _cell_set(self, page_id: int, value: Any) -> None:
        self._pages[page_id] = value
        self._dirty[page_id] = value

    def _cell_del(self, page_id: int) -> None:
        del self._pages[page_id]
        self._dirty[page_id] = _FREED

    @property
    def dirty_pages(self) -> Tuple[int, ...]:
        """Page ids whose file slots are stale (pending checkpoint)."""
        return tuple(self._dirty)

    # -- WAL wiring ---------------------------------------------------------

    def set_intent_log(self, log: Optional[IntentLog]) -> None:
        super().set_intent_log(log)
        bind = getattr(log, "bind", None)
        if bind is not None:
            bind(self)

    def _apply_redo(self, record: WalRecord) -> None:
        """Replay callback: install a committed redo record's post-image."""
        pid = record.page_id
        if record.rtype == REC_WRITE:
            if pid not in self._pages:
                self.stats.allocated += 1
            self._cell_set(pid, record.payload)
        elif record.rtype == REC_ALLOC:
            if pid not in self._pages:
                self.stats.allocated += 1
            self._cell_set(pid, None)
        elif record.rtype == REC_FREE:
            if pid in self._pages:
                self._cell_del(pid)
                self.stats.freed += 1
        else:  # pragma: no cover - replay_wal only forwards redo types
            raise StorageError(f"unexpected redo record type {record.rtype}")
        if pid >= self._next_id:
            self._next_id = pid + 1

    # -- checkpoint ---------------------------------------------------------

    def checkpoint(
        self, meta: Optional[Dict[str, Any]] = None, tick: Optional[int] = None
    ) -> int:
        """Flush dirty slots, ``fsync`` the page file, truncate the log.

        Returns the number of slots written.  ``meta``/``tick`` seed the
        fresh log's ``CHECKPOINT`` record so a restart that finds an
        empty redo tail still learns the tree's committed state.
        """
        if self._wal is not None and self._wal.in_flight:
            raise StorageError("cannot checkpoint with a transaction in flight")
        flushed = 0
        for page_id in sorted(self._dirty):
            value = self._dirty[page_id]
            if value is _FREED:
                self._write_slot(page_id, _STATUS_FREE, b"")
            elif value is None:
                self._write_slot(page_id, _STATUS_UNWRITTEN, b"")
            elif isinstance(value, (bytes, bytearray)):
                self._write_slot(page_id, _STATUS_LIVE, bytes(value))
            else:
                raise StorageError(
                    f"page {page_id} holds a non-binary cell "
                    f"({type(value).__name__}); cannot persist"
                )
            flushed += 1
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._dirty.clear()
        self.checkpoints += 1
        reset = getattr(self._wal, "reset", None)
        if reset is not None:
            reset(meta=meta, tick=tick)
        return flushed

    def close(self) -> None:
        """Release the file handle (dirty cells are *not* flushed)."""
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    # -- verification / repair ---------------------------------------------

    def verify_pages(self, check_decode: bool = True) -> List[Tuple[int, str]]:
        """Validate the on-disk slots against their CRCs (and the codec).

        Slots with a pending dirty cell are skipped — their file image
        is stale by design until the next checkpoint.  With
        ``check_decode`` every live payload is also run through the
        codec, which catches torn writes whose slot frame is intact but
        whose content is mangled (the injector's tear model).
        """
        problems: List[Tuple[int, str]] = []
        report, _page_size = scan_page_file(self.path)
        for pid, message in report.problems:
            if pid not in self._dirty:
                problems.append((pid, message))
        if check_decode:
            for pid, payload in report.cells.items():
                if payload is None or pid in self._dirty:
                    continue
                try:
                    self._codec.decode(payload)
                except Exception as exc:
                    problems.append((pid, f"slot {pid}: payload undecodable: {exc}"))
        return problems

    def quarantine(self, directory: str) -> List[int]:
        """Move damaged slots' raw payloads aside and free the slots.

        Each quarantined page lands in ``directory`` as
        ``<file-stem>.page<NNNNNN>.bin``; the slot becomes a tombstone
        (fsynced) and the in-memory cell is dropped, so a subsequent
        fsck pass sees a consistent — if lossy — store.  Returns the
        quarantined page ids.
        """
        problems = self.verify_pages(check_decode=True)
        if not problems:
            return []
        os.makedirs(directory, exist_ok=True)
        stem = os.path.splitext(os.path.basename(self.path))[0]
        with open(self.path, "rb") as fh:
            data = fh.read()
        quarantined: List[int] = []
        slot_size = _SLOT_HEADER.size + self.page_size
        for pid, _message in sorted(problems):
            if pid in quarantined:
                continue
            offset = _FILE_HEADER.size + pid * slot_size
            raw = data[offset : offset + slot_size]
            with open(os.path.join(directory, f"{stem}.page{pid:06d}.bin"), "wb") as out:
                out.write(raw)
                out.flush()
                os.fsync(out.fileno())
            self._write_slot(pid, _STATUS_FREE, b"")
            if pid in self._pages:
                del self._pages[pid]
                self.stats.freed += 1
            self._dirty.pop(pid, None)
            if self._buffer is not None:
                self._buffer.invalidate(pid)
            quarantined.append(pid)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return quarantined


# ---------------------------------------------------------------------------
# Store lifecycle helpers
# ---------------------------------------------------------------------------


def open_durable(
    data_dir: str,
    name: str,
    codec: PageCodec,
    page_size: int = PAGE_SIZE,
    buffer_pool: Optional[BufferPool] = None,
    retry: Optional[RetryPolicy] = None,
    auto_rollback: bool = True,
    sync_on_commit: bool = True,
    through_tick: Optional[int] = None,
    fresh: bool = False,
) -> Tuple[FileDiskManager, DurableIntentLog, ReplayReport]:
    """Open (or create) one tree's durable store and recover it.

    The restart sequence, in order: (1) scan ``<name>.pages`` into the
    cell map, (2) replay the committed tail of ``<name>.wal`` forward —
    discarding transactions tagged beyond ``through_tick`` — and
    (3) checkpoint, so the page file absorbs the replayed state and the
    log restarts from a single ``CHECKPOINT`` record (a stale tail must
    not survive, or a later crash would replay discarded ticks).

    ``fresh=True`` deletes any existing page file and WAL first.  Pass
    it when the store was never pinned (no ``store.json``): files found
    then are the leavings of a bulk load that crashed before the pin,
    and adopting their slots would leak orphan pages into the new store
    and every snapshot taken of it.
    """
    os.makedirs(data_dir, exist_ok=True)
    pages_path = os.path.join(data_dir, f"{name}.pages")
    wal_path = os.path.join(data_dir, f"{name}.wal")
    if fresh:
        for stale in (pages_path, wal_path, pages_path + ".tmp", wal_path + ".tmp"):
            if os.path.exists(stale):
                os.remove(stale)
    disk = FileDiskManager(
        pages_path,
        codec=codec,
        page_size=page_size,
        buffer_pool=buffer_pool,
        retry=retry,
    )
    report = replay_wal(wal_path, disk._apply_redo, through_tick=through_tick)
    log = DurableIntentLog(
        wal_path, auto_rollback=auto_rollback, sync_on_commit=sync_on_commit
    )
    disk.set_intent_log(log)
    disk.checkpoint(meta=report.last_meta or None, tick=report.last_tick)
    return disk, log, report


class TickDurability:
    """Group-commit driver the broker calls once per tick.

    Holds ``(disk, log, meta_fn)`` triples — ``meta_fn`` is a callable
    returning the tree's current recovery metadata, supplied by the CLI
    so this layer never imports the index.  ``begin_tick`` stamps the
    tick number onto every log (commits within the tick carry the tag);
    ``commit_tick`` appends a ``TICK`` record and fsyncs each log — one
    fsync per tree per tick — and every ``checkpoint_every`` ticks
    flushes the page files and truncates the logs.
    """

    def __init__(
        self,
        stores: Sequence[Tuple[FileDiskManager, DurableIntentLog, Callable[[], Dict[str, Any]]]],
        checkpoint_every: int = 0,
    ):
        self._stores = tuple(stores)
        self.checkpoint_every = checkpoint_every
        self.ticks = 0
        #: optional callable run before the TICK records are appended —
        #: the serve loop flushes its answer stream here, so a durable
        #: tick implies durable answers.
        self.pre_commit: Optional[Callable[[Any], None]] = None

    def begin_tick(self, tick: Any) -> None:
        for _disk, log, _meta_fn in self._stores:
            log.tick = tick.index

    def commit_tick(self, tick: Any) -> None:
        if self.pre_commit is not None:
            self.pre_commit(tick)
        for _disk, log, meta_fn in self._stores:
            log.append_tick(tick.index, meta=meta_fn())
        self.ticks += 1
        if self.checkpoint_every and (tick.index + 1) % self.checkpoint_every == 0:
            for disk, _log, meta_fn in self._stores:
                disk.checkpoint(meta=meta_fn(), tick=tick.index)

    def close(self) -> None:
        """Final checkpoint + log close (clean shutdown)."""
        for disk, log, meta_fn in self._stores:
            disk.checkpoint(meta=meta_fn(), tick=log.tick)
            log.close()
            disk.close()


# ---------------------------------------------------------------------------
# Store config
# ---------------------------------------------------------------------------

_STORE_CONFIG = "store.json"


def _write_json_atomic(path: str, obj: Any) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_store_config(data_dir: str, config: Dict[str, Any]) -> None:
    """Persist the workload/layout parameters a resume must reuse."""
    os.makedirs(data_dir, exist_ok=True)
    _write_json_atomic(os.path.join(data_dir, _STORE_CONFIG), config)


def read_store_config(data_dir: str) -> Optional[Dict[str, Any]]:
    """Load the store's pinned configuration, or ``None`` if absent."""
    path = os.path.join(data_dir, _STORE_CONFIG)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

_SNAPSHOT_DIR = "snapshots"
_MANIFEST = "metadata.json"
_SNAPSHOT_FORMAT = 1


def _snapshot_dir(data_dir: str, snapshot_id: str) -> str:
    return os.path.join(data_dir, _SNAPSHOT_DIR, snapshot_id)


def list_snapshots(data_dir: str) -> List[str]:
    """Snapshot ids present under ``data_dir`` (sorted)."""
    root = os.path.join(data_dir, _SNAPSHOT_DIR)
    if not os.path.isdir(root):
        return []
    return sorted(
        entry
        for entry in os.listdir(root)
        if os.path.exists(os.path.join(root, entry, _MANIFEST))
    )


def write_snapshot(
    data_dir: str,
    snapshot_id: str,
    stores: Sequence[Tuple[str, FileDiskManager, Dict[str, Any]]],
    tick: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write a point-in-time snapshot; returns the manifest.

    Each store is checkpointed first (page file == live state), then its
    page file is zlib-compressed into ``<name>.pages.z`` next to a
    ``metadata.json`` manifest carrying the snapshot id, tick, per-tree
    recovery metadata, page counts and CRC32 checksums of both the raw
    and the compressed image — enough for :func:`verify_snapshot` to
    prove integrity without opening a single page.
    """
    target = _snapshot_dir(data_dir, snapshot_id)
    if os.path.exists(os.path.join(target, _MANIFEST)):
        raise StorageError(f"snapshot {snapshot_id!r} already exists")
    os.makedirs(target, exist_ok=True)
    manifest: Dict[str, Any] = {
        "snapshot_id": snapshot_id,
        "format": _SNAPSHOT_FORMAT,
        "tick": tick,
        "trees": {},
    }
    if extra:
        manifest.update(extra)
    for name, disk, meta in stores:
        disk.checkpoint(meta=meta, tick=tick)
        with open(disk.path, "rb") as fh:
            raw = fh.read()
        compressed = zlib.compress(raw, 6)
        filename = f"{name}.pages.z"
        tmp = os.path.join(target, filename + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(compressed)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, os.path.join(target, filename))
        manifest["trees"][name] = {
            "file": filename,
            "meta": dict(meta),
            "page_size": disk.page_size,
            "slot_count": disk._next_id,
            "live_pages": disk.stats.live_pages,
            "raw_bytes": len(raw),
            "raw_crc32": zlib.crc32(raw) & 0xFFFFFFFF,
            "compressed_crc32": zlib.crc32(compressed) & 0xFFFFFFFF,
        }
    _write_json_atomic(os.path.join(target, _MANIFEST), manifest)
    return manifest


def verify_snapshot(
    data_dir: str, snapshot_id: str
) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    """Check a snapshot's manifest checksums; returns ``(manifest, problems)``."""
    target = _snapshot_dir(data_dir, snapshot_id)
    manifest_path = os.path.join(target, _MANIFEST)
    problems: List[str] = []
    if not os.path.exists(manifest_path):
        return None, [f"snapshot {snapshot_id!r}: no {_MANIFEST}"]
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        return None, [f"snapshot {snapshot_id!r}: unreadable manifest: {exc}"]
    for name, entry in sorted(manifest.get("trees", {}).items()):
        path = os.path.join(target, entry["file"])
        if not os.path.exists(path):
            problems.append(f"{name}: missing column file {entry['file']}")
            continue
        with open(path, "rb") as fh:
            compressed = fh.read()
        if zlib.crc32(compressed) & 0xFFFFFFFF != entry["compressed_crc32"]:
            problems.append(f"{name}: compressed checksum mismatch")
            continue
        try:
            raw = zlib.decompress(compressed)
        except zlib.error as exc:
            problems.append(f"{name}: undecompressable column file: {exc}")
            continue
        if len(raw) != entry["raw_bytes"]:
            problems.append(
                f"{name}: raw size {len(raw)} != manifest {entry['raw_bytes']}"
            )
        if zlib.crc32(raw) & 0xFFFFFFFF != entry["raw_crc32"]:
            problems.append(f"{name}: raw checksum mismatch")
    return manifest, problems


def restore_snapshot(
    data_dir: str, snapshot_id: str
) -> Dict[str, Any]:
    """Rewrite the live page files from a verified snapshot.

    Every tree's page file is replaced atomically (temp file +
    ``os.replace``) with the snapshot's raw image and its redo log is
    reset to a single ``CHECKPOINT`` record carrying the manifest's
    recovery metadata, so the next :func:`open_durable` reattaches the
    tree exactly at the snapshot tick.  Raises on any checksum mismatch
    — a damaged snapshot must never replace a live store.
    """
    manifest, problems = verify_snapshot(data_dir, snapshot_id)
    if manifest is None or problems:
        raise StorageError(
            f"snapshot {snapshot_id!r} failed verification: " + "; ".join(problems)
        )
    target = _snapshot_dir(data_dir, snapshot_id)
    for name, entry in sorted(manifest["trees"].items()):
        with open(os.path.join(target, entry["file"]), "rb") as fh:
            raw = zlib.decompress(fh.read())
        pages_path = os.path.join(data_dir, f"{name}.pages")
        tmp = pages_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, pages_path)
        log = DurableIntentLog(os.path.join(data_dir, f"{name}.wal"))
        log.reset(meta=entry.get("meta") or {}, tick=manifest.get("tick"))
        log.close()
    return manifest
