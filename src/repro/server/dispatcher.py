"""The single-writer update stream feeding every live query.

The paper's update management (Sect. 4.1, Fig. 4) assumes one insert
stream and *many* live PDQs: each successful insert notifies every
registered engine with the lowest common ancestor of the freshly created
nodes, so each live priority queue learns about the new motion segment
without a rescan.  The repo's :class:`~repro.index.RTree` already
implements the LCA notice and the listener registry; the dispatcher adds
the serving-side half:

* a **time-ordered op stream** (:class:`UpdateOp`) applied *between*
  ticks — the simulated analogue of a single writer thread that never
  races the readers (ticks see a frozen index; updates land at tick
  boundaries, stamped by the tree's operation clock for NPDQ);
* **dual-index fan-out** — an insert lands in the native-space index
  (PDQ clients get the LCA push) and the dual-time index (NPDQ clients
  see the timestamp), keeping the two flavours answer-consistent;
* **expire handling** — physical deletion under live queries is unsafe
  (a freed page may still sit in a live priority queue), so expire ops
  are *deferred* while any tracked query is live and applied by
  :meth:`flush_expired` once the broker quiesces;
* **write batches** — a tick's due inserts go to each index as one
  :meth:`~repro.index.RTree.insert_batch`;
* **writer-crash recovery** — a mid-insert storage fault with an
  intent log attached leaves the tree half-updated; the dispatcher rolls
  it back via :meth:`RTree.recover` (page ids are stable across
  rollback, so live engines' queues and expanded sets remain valid).  A
  batch that fails is rolled back whole — no engine heard any of it —
  and its inserts are applied again one at a time, each retried once.
  An update dropped after retry shrinks answers to a well-flagged
  subset — never corrupts them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ServerError, StorageError
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.motion.segment import MotionSegment

__all__ = ["UpdateOp", "DispatchStats", "UpdateDispatcher"]


@dataclass(frozen=True)
class UpdateOp:
    """One element of the writer's stream.

    ``kind`` is ``"insert"`` (a new motion segment becomes live) or
    ``"expire"`` (a stored segment should eventually be deleted).
    """

    time: float
    kind: str
    segment: MotionSegment

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "expire"):
            raise ServerError(f"unknown update op kind {self.kind!r}")


@dataclass
class DispatchStats:
    """What the writer has done so far."""

    inserts_applied: int = 0
    expires_applied: int = 0
    expires_deferred: int = 0
    crashes_recovered: int = 0
    updates_dropped: int = 0
    dropped_keys: List[Tuple[int, int]] = field(default_factory=list)


class UpdateDispatcher:
    """Applies a motion-segment insert/expire stream between ticks.

    Parameters
    ----------
    native:
        The native-space index every PDQ client reads.
    dual:
        Optional dual-time index for NPDQ/auto clients; inserts are
        mirrored into it so both flavours stay answer-consistent.
    retry_crashed:
        Retry an insert once after a writer crash was rolled back (a
        transient fault usually clears; a persistent one drops the op).
    """

    def __init__(
        self,
        native: NativeSpaceIndex,
        dual: Optional[DualTimeIndex] = None,
        retry_crashed: bool = True,
    ):
        self.native = native
        self.dual = dual
        self.retry_crashed = retry_crashed
        self.stats = DispatchStats()
        self._tie = itertools.count()
        self._stream: List[tuple] = []  # heap of (time, tie, UpdateOp)
        self._deferred: List[UpdateOp] = []

    # -- stream management --------------------------------------------------

    def submit(self, op: UpdateOp) -> None:
        """Queue one op; the stream stays time-ordered regardless of
        submission order."""
        heapq.heappush(self._stream, (op.time, next(self._tie), op))

    def submit_inserts(self, segments, times=None) -> None:
        """Queue an insert per segment (due at its own start time by
        default — the instant the motion update would be reported)."""
        for i, segment in enumerate(segments):
            due = segment.time.low if times is None else times[i]
            self.submit(UpdateOp(due, "insert", segment))

    @property
    def pending(self) -> int:
        """Ops still queued (not yet due)."""
        return len(self._stream)

    @property
    def deferred_expires(self) -> Tuple[UpdateOp, ...]:
        """Expire ops awaiting a quiesced broker."""
        return tuple(self._deferred)

    # -- application ----------------------------------------------------------

    def apply_until(self, t: float, live_queries: bool = True) -> int:
        """Apply every op due at or before ``t``; returns ops applied.

        Called by the broker between ticks.  The due inserts go to each
        index as one write batch, in stream order; an expire that is
        applied, not deferred, ends a batch.  ``live_queries`` gates
        physical deletion: with any tracked query alive, expires are
        deferred instead of freeing pages out from under live priority
        queues.
        """
        applied = 0
        batch: List[UpdateOp] = []
        while self._stream and self._stream[0][0] <= t:
            _, _, op = heapq.heappop(self._stream)
            if op.kind == "insert":
                batch.append(op)
            elif live_queries:
                self._deferred.append(op)
                self.stats.expires_deferred += 1
            else:
                applied += self._insert(batch)
                batch = []
                self._delete(op.segment)
                self.stats.expires_applied += 1
                applied += 1
        return applied + self._insert(batch)

    def flush_expired(self) -> int:
        """Physically delete every deferred expire (broker quiesced)."""
        flushed = 0
        for op in self._deferred:
            self._delete(op.segment)
            self.stats.expires_applied += 1
            flushed += 1
        self._deferred = []
        return flushed

    # -- single-writer fault handling -------------------------------------------

    def _insert(self, ops: List[UpdateOp]) -> int:
        """Insert ``ops`` into both indexes as one batch each; returns
        how many landed in every index.

        A failed batch is rolled back, then its ops go in one at a time
        (:meth:`_insert_one`), so a crash can leave one index ahead of
        the other only by whole dropped updates (a subset of answers),
        never by a half-applied split.  An op one index dropped is not
        offered to the next.
        """
        for index in self._indexes():
            if not ops:
                break
            if len(ops) > 1:
                try:
                    index.insert_batch([op.segment for op in ops])
                    continue
                except StorageError:
                    if self._recover(index):
                        self.stats.crashes_recovered += 1
            ops = [op for op in ops if self._insert_one(index, op)]
        self.stats.inserts_applied += len(ops)
        return len(ops)

    def _insert_one(self, index, op: UpdateOp) -> bool:
        """Insert one op, retried once after a rolled-back crash."""
        attempts = 2 if self.retry_crashed else 1
        for _ in range(attempts):
            try:
                index.insert(op.segment)
                return True
            except StorageError:
                if self._recover(index):
                    self.stats.crashes_recovered += 1
        self.stats.updates_dropped += 1
        self.stats.dropped_keys.append(op.segment.key)
        return False

    def _delete(self, segment: MotionSegment) -> None:
        # Each flavour stores its own box geometry for the same record;
        # rebuilding the leaf entry recovers the exact stored box.
        self.native.tree.delete(
            segment.key, self.native._leaf_entry(segment).box
        )
        if self.dual is not None:
            self.dual.tree.delete(
                segment.key, self.dual._leaf_entry(segment).box
            )

    def _indexes(self):
        return (self.native,) if self.dual is None else (self.native, self.dual)

    @staticmethod
    def _recover(index) -> bool:
        """Roll back a half-applied insert if an intent log is attached."""
        try:
            return index.tree.recover()
        except StorageError:
            # Recovery itself hit an injected fault; the intent log still
            # holds the pre-images, so a later recover() can finish.
            return False
