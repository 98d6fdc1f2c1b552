"""The simulated disk: a page store that counts every access.

:class:`DiskManager` hands out page ids, stores one payload (an index
node) per page and counts physical reads and writes.  Two storage modes:

* **object mode** (default, ``codec=None``): payloads are kept as Python
  objects.  Fast; used by benchmarks, where only the *count* of page
  accesses matters.
* **binary mode** (``codec`` given): payloads are round-tripped through a
  codec into at-most-:data:`~repro.storage.constants.PAGE_SIZE` byte
  strings on every write/read, proving that nodes genuinely fit the
  claimed page layout.  Used by the storage test-suite.

An optional :class:`~repro.storage.buffer.BufferPool` can be attached;
buffered hits are *not* counted as physical reads, which is exactly what
the buffering ablation needs.

Fault tolerance (see :mod:`repro.storage.faults`): an optional
:class:`~repro.storage.faults.FaultInjector` is consulted on every
physical access and may raise transient errors, tear writes, or mark
pages rotten; an optional :class:`~repro.storage.faults.RetryPolicy`
retries transient faults with bounded exponential backoff (simulated
latency is accumulated, never slept).  An optional
:class:`~repro.storage.wal.IntentLog` records page pre-images so a
multi-page index operation that dies mid-flight can be rolled back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Protocol

from repro.analysis import runtime as _sanitize
from repro.errors import (
    CorruptPageError,
    PageNotFoundError,
    PageOverflowError,
    StorageError,
    TransientIOError,
)
from repro.storage.buffer import BufferPool
from repro.storage.constants import PAGE_SIZE
from repro.storage.faults import FaultInjector, RetryPolicy, TornPage
from repro.storage.wal import IntentLog

__all__ = ["PageCodec", "DiskManager", "StorageStats"]


class PageCodec(Protocol):
    """Serializer turning node payloads into on-page byte strings."""

    def encode(self, payload: Any) -> bytes:
        """Serialize; the result must fit in a page."""

    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`."""


@dataclass
class StorageStats:
    """Physical access counters for a :class:`DiskManager`."""

    reads: int = 0
    writes: int = 0
    buffered_reads: int = 0
    allocated: int = 0
    freed: int = 0
    read_faults: int = 0
    write_faults: int = 0
    retries: int = 0
    torn_writes: int = 0
    corrupt_detected: int = 0
    sim_latency: float = 0.0

    @property
    def live_pages(self) -> int:
        """Pages currently allocated."""
        return self.allocated - self.freed

    @property
    def faults(self) -> int:
        """All injected transient faults (reads + writes)."""
        return self.read_faults + self.write_faults


def _snapshot(stored: Any) -> Any:
    """Pre-image copy of a raw page cell.

    Bytes, ``None`` and sentinels are immutable; an object-mode cell is
    the node itself, handed out *by reference* and mutated in place by
    the index, so it is cloned (a copy of its columns) or the pre-image
    would alias the post-image.
    """
    clone = getattr(stored, "clone", None)
    if clone is not None:
        return clone()
    return stored


class DiskManager:
    """A page-granular object store with access accounting.

    Parameters
    ----------
    codec:
        Optional :class:`PageCodec`; when given, every write serializes
        and every read deserializes, enforcing the page-size limit.
    buffer_pool:
        Optional LRU buffer; hits skip the physical read counter.
    page_size:
        Page capacity in bytes for binary mode.
    faults:
        Optional :class:`~repro.storage.faults.FaultInjector` consulted
        on every physical access (can also be armed later via
        :meth:`set_faults`, e.g. after a clean index build).
    retry:
        Optional :class:`~repro.storage.faults.RetryPolicy` applied to
        transient faults; without one the first fault propagates.
    intent_log:
        Optional :class:`~repro.storage.wal.IntentLog` recording page
        pre-images for crash-consistent multi-page updates.
    """

    __slots__ = (
        "stats",
        "page_size",
        "retry",
        "_codec",
        "_buffer",
        "_pages",
        "_next_id",
        "_faults",
        "_wal",
    )

    def __init__(
        self,
        codec: Optional[PageCodec] = None,
        buffer_pool: Optional[BufferPool] = None,
        page_size: int = PAGE_SIZE,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        intent_log: Optional[IntentLog] = None,
    ):
        self.stats = StorageStats()
        self.page_size = page_size
        self.retry = retry
        self._codec = codec
        self._buffer = buffer_pool
        self._pages: Dict[int, Any] = {}
        self._next_id = 0
        self._faults = faults
        self._wal = intent_log

    # -- page lifecycle -----------------------------------------------------

    def allocate(self) -> int:
        """Reserve a fresh page id (no content yet)."""
        page_id = self._next_id
        self._next_id += 1
        if self._wal is not None and self._wal.in_flight:
            self._wal.record_next_id(page_id)
            self._wal.record_absent(page_id)
        self._cell_set(page_id, None)
        self.stats.allocated += 1
        return page_id

    def free(self, page_id: int) -> None:
        """Release a page."""
        if page_id not in self._pages:
            raise PageNotFoundError(f"page {page_id} is not allocated")
        if self._wal is not None and self._wal.in_flight:
            self._wal.record(page_id, _snapshot(self._pages[page_id]))
            _sanitize.page_logged(self, page_id)
        self._cell_del(page_id)
        self.stats.freed += 1
        _sanitize.page_freed(self, page_id)
        if self._buffer is not None:
            self._buffer.invalidate(page_id)

    # -- access ---------------------------------------------------------------

    def write(self, page_id: int, payload: Any) -> None:
        """Store ``payload`` on ``page_id``; counts one physical write.

        Transient injected faults are retried per the attached
        :class:`~repro.storage.faults.RetryPolicy`; when the budget is
        exhausted the fault propagates, with any buffered copy of the
        page invalidated so a later read cannot be served stale content.
        A *torn* write persists corrupt content silently — detection is
        deferred to the next read of the page.
        """
        if page_id not in self._pages:
            raise PageNotFoundError(f"page {page_id} is not allocated")
        if self._codec is not None:
            data = self._codec.encode(payload)
            if len(data) > self.page_size:
                raise PageOverflowError(
                    f"payload of {len(data)} B exceeds page size {self.page_size}"
                )
        else:
            data = None
        if self._wal is not None and self._wal.in_flight:
            self._wal.record(page_id, _snapshot(self._pages[page_id]))
            _sanitize.page_logged(self, page_id)
        torn = False
        if self._faults is not None:
            torn = self._retry_gate(
                page_id, lambda: self._faults.before_write(page_id), "write"
            )
        if torn:
            # The write "succeeds" from the caller's perspective but the
            # persisted content is damaged: truncated, mangled bytes in
            # binary mode, a sentinel in object mode.
            self.stats.torn_writes += 1
            if self._codec is not None:
                half = max(1, len(data) // 2)  # type: ignore[arg-type]
                self._cell_set(
                    page_id,
                    bytes([data[0] ^ 0xFF]) + data[1:half],  # type: ignore[index]
                )
            else:
                self._cell_set(page_id, TornPage(page_id))
        else:
            self._cell_set(page_id, data if self._codec is not None else payload)
            if self._faults is not None:
                self._faults.on_rewrite(page_id)
        self.stats.writes += 1
        _sanitize.page_write(self, page_id)
        if self._buffer is not None:
            # Keep the buffer coherent: a rewritten page must not be served
            # stale.  We invalidate rather than refresh so that writes do
            # not warm the read cache.
            self._buffer.invalidate(page_id)

    def as_written(self, payload: Any) -> Any:
        """What :meth:`read` would hand out once ``payload`` is written:
        the payload itself in object mode, the codec's decoding of its
        encoding in binary mode.  Nothing is stored or counted; a writer
        that defers its writes reads its own pending pages through this.
        """
        if self._codec is None:
            return payload
        return self._codec.decode(self._codec.encode(payload))

    def read(self, page_id: int) -> Any:
        """Fetch the payload of ``page_id``.

        A buffer hit counts as ``buffered_reads`` (no physical I/O); a
        miss counts as one physical read and populates the buffer.
        Transient injected faults are retried per the attached policy;
        corrupt content (torn page, checksum mismatch, undecodable
        bytes) raises :class:`~repro.errors.CorruptPageError`, which is
        *not* retried — the damage is persistent.
        """
        if self._buffer is not None:
            cached = self._buffer.get(page_id)
            if cached is not None:
                # Sanitizer check first: a pre-image recorded below must
                # not excuse a mutation that happened before this read.
                _sanitize.page_read(self, page_id, cached)
                if self._wal is not None and self._wal.in_flight:
                    # A buffer hit hands out the same mutable reference a
                    # physical read would; the pre-image must be captured
                    # here too or an in-place mutation of a cached page
                    # becomes unrecoverable.
                    self._wal.record(page_id, _snapshot(self._pages[page_id]))
                    _sanitize.page_logged(self, page_id)
                self.stats.buffered_reads += 1
                return cached
        try:
            stored = self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(f"page {page_id} is not allocated") from None
        if stored is None:
            raise StorageError(f"page {page_id} was allocated but never written")
        if self._faults is not None:
            try:
                self._retry_gate(
                    page_id, lambda: self._faults.before_read(page_id), "read"
                )
            except CorruptPageError:
                self.stats.corrupt_detected += 1
                if self._buffer is not None:
                    self._buffer.invalidate(page_id)
                raise
        if isinstance(stored, TornPage):
            self.stats.corrupt_detected += 1
            raise CorruptPageError(
                f"page {page_id} holds a torn write (detected on read)"
            )
        _sanitize.page_read(self, page_id, stored)
        if self._wal is not None and self._wal.in_flight:
            # Object-mode reads hand out mutable references; capture the
            # pre-image before the caller can mutate in place.
            self._wal.record(page_id, _snapshot(stored))
            _sanitize.page_logged(self, page_id)
        if self._codec is not None:
            try:
                payload = self._codec.decode(stored)
            except CorruptPageError:
                self.stats.corrupt_detected += 1
                raise
            except Exception as exc:
                self.stats.corrupt_detected += 1
                raise CorruptPageError(
                    f"page {page_id} bytes are undecodable: {exc}"
                ) from exc
        else:
            payload = stored
        self.stats.reads += 1
        if self._buffer is not None:
            self._buffer.put(page_id, payload)
        return payload

    # -- cell primitives -------------------------------------------------------
    #
    # Every *mutation* of the page map funnels through these two hooks so
    # a durable backend can observe dirtiness without re-implementing the
    # fault/WAL/buffer logic above.  The contract: ``self._pages`` always
    # holds the authoritative live cells (reads stay direct dict lookups),
    # and a subclass that persists cells elsewhere keeps the two in step
    # inside its overrides.

    def _cell_set(self, page_id: int, value: Any) -> None:
        """Install ``value`` as the stored cell for ``page_id``."""
        self._pages[page_id] = value

    def _cell_del(self, page_id: int) -> None:
        """Drop the stored cell for ``page_id``."""
        del self._pages[page_id]

    def _retry_gate(self, page_id: int, gate, kind: str) -> Any:
        """Run a fault gate, retrying transient faults per the policy.

        Backoff delays are *simulated*: accumulated into
        ``stats.sim_latency`` rather than slept, so chaos tests run at
        full speed.
        """
        attempt = 1
        while True:
            try:
                return gate()
            except TransientIOError:
                if kind == "read":
                    self.stats.read_faults += 1
                else:
                    self.stats.write_faults += 1
                if self._buffer is not None:
                    # Error path must not leave a copy behind that a
                    # later read could hit while the page is in doubt.
                    self._buffer.invalidate(page_id)
                if self.retry is None or attempt >= self.retry.attempts:
                    raise
                self.stats.retries += 1
                self.stats.sim_latency += self.retry.delay(page_id, attempt)
                attempt += 1

    # -- fault/WAL plumbing ----------------------------------------------------

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The attached fault injector, if any."""
        return self._faults

    def set_faults(self, faults: Optional[FaultInjector]) -> None:
        """Arm (or disarm, with ``None``) fault injection.

        Typically called *after* a clean index build so chaos applies to
        the query phase only.
        """
        self._faults = faults

    @property
    def intent_log(self) -> Optional[IntentLog]:
        """The attached intent log, if any."""
        return self._wal

    def set_intent_log(self, log: Optional[IntentLog]) -> None:
        """Attach (or detach) an intent log for crash-consistent updates."""
        if self._wal is not None and self._wal.in_flight:
            raise StorageError("cannot swap the intent log mid-transaction")
        self._wal = log

    # Rollback callbacks used by IntentLog.rollback(); they compensate
    # the lifecycle counters so ``live_pages`` stays truthful.

    def _rollback_remove(self, page_id: int) -> None:
        if page_id in self._pages:
            self._cell_del(page_id)
            self.stats.freed += 1
        if self._buffer is not None:
            self._buffer.invalidate(page_id)

    def _rollback_restore(self, page_id: int, pre_image: Any) -> None:
        if page_id not in self._pages:
            self.stats.allocated += 1  # compensates the mid-txn free()
        self._cell_set(page_id, pre_image)
        if self._buffer is not None:
            self._buffer.invalidate(page_id)

    def _rollback_next_id(self, next_id: int) -> None:
        self._next_id = next_id

    # -- inspection ------------------------------------------------------------

    @property
    def buffer_pool(self) -> Optional[BufferPool]:
        """The attached buffer pool, if any."""
        return self._buffer

    def set_buffer_pool(self, pool: Optional[BufferPool]) -> None:
        """Attach (or detach, with ``None``) a buffer pool.

        Used by the serving layer to interpose its shared-scan pool in
        front of an index that was built bufferless.  Detaching keeps no
        stale state: the outgoing pool is cleared so a later re-attach
        cannot serve pages that were rewritten meanwhile.
        """
        if self._buffer is not None and self._buffer is not pool:
            self._buffer.clear()
        self._buffer = pool

    def page_ids(self) -> "tuple[int, ...]":
        """All allocated page ids (for integrity checks)."""
        return tuple(self._pages)

    def raw_page(self, page_id: int) -> Any:
        """The stored cell for ``page_id`` without counting an access.

        Inspection-only (sanitizer checkpoints, debugging): no fault
        gate, no buffer traffic, no stats.  Returns ``None`` for pages
        that are unallocated or allocated-but-unwritten.
        """
        return self._pages.get(page_id)

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages
