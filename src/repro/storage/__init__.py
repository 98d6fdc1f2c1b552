"""Simulated paged storage with faithful I/O accounting.

The paper measures *number of disk accesses* and *number of distance
computations*, not wall-clock time, so the storage substrate's job is to
(1) lay index nodes out on 4 KB pages with realistic fanout — 145 entries
for internal nodes and 127 for leaves at d = 2, matching Sect. 5 — and
(2) count every page fetch.  :class:`DiskManager` does both; an optional
:class:`BufferPool` (LRU) reproduces the paper's discussion of why
server-side buffering does not substitute for dynamic-query processing.
"""

from typing import TYPE_CHECKING

from repro.storage.constants import (
    DEFAULT_FILL_FACTOR,
    PAGE_HEADER_BYTES,
    PAGE_SIZE,
    internal_entry_bytes,
    internal_fanout,
    leaf_entry_bytes,
    leaf_fanout,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, StorageStats
from repro.storage.faults import FaultInjector, FaultStats, RetryPolicy, TornPage
from repro.storage.metrics import CostSnapshot, QueryCost
from repro.storage.wal import DurableIntentLog, IntentLog, ReplayReport, replay_wal, wal_tail_info

if TYPE_CHECKING:
    from repro.storage.file import (  # noqa: F401
        FileDiskManager,
        TickDurability,
        list_snapshots,
        open_durable,
        restore_snapshot,
        scan_page_file,
        verify_snapshot,
        write_snapshot,
    )

__all__ = [
    "PAGE_SIZE",
    "PAGE_HEADER_BYTES",
    "DEFAULT_FILL_FACTOR",
    "internal_entry_bytes",
    "leaf_entry_bytes",
    "internal_fanout",
    "leaf_fanout",
    "DiskManager",
    "StorageStats",
    "BufferPool",
    "QueryCost",
    "CostSnapshot",
    "FaultInjector",
    "FaultStats",
    "RetryPolicy",
    "TornPage",
    "IntentLog",
    "DurableIntentLog",
    "ReplayReport",
    "replay_wal",
    "wal_tail_info",
    "FileDiskManager",
    "TickDurability",
    "open_durable",
    "scan_page_file",
    "write_snapshot",
    "verify_snapshot",
    "restore_snapshot",
    "list_snapshots",
]

# The durable file-backed layer is deferred: ``repro.storage`` sits on
# every engine import path, and eagerly importing ``storage.file`` here
# would hand the whole library a transitive dependency on real
# filesystem I/O (the lint's DQG01/DQG03 would rightly flag it).
# Consumers still get ``from repro.storage import open_durable`` — the
# import happens when the name is first touched.
_LAZY = {
    "FileDiskManager": ("repro.storage.file", "FileDiskManager"),
    "TickDurability": ("repro.storage.file", "TickDurability"),
    "list_snapshots": ("repro.storage.file", "list_snapshots"),
    "open_durable": ("repro.storage.file", "open_durable"),
    "restore_snapshot": ("repro.storage.file", "restore_snapshot"),
    "scan_page_file": ("repro.storage.file", "scan_page_file"),
    "verify_snapshot": ("repro.storage.file", "verify_snapshot"),
    "write_snapshot": ("repro.storage.file", "write_snapshot"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
