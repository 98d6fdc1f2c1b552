"""Answer types shared by every evaluator.

The paper's incremental evaluators return, with each object, "how long
that object will stay in the view so that [the application] will know how
long the object should be kept in the application's cache".
:class:`AnswerItem` is exactly that pair.
A frame's answers travel as one :class:`AnswerBlock` (DESIGN.md, "A
tick's answers are columns").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.core.query import KNNAnswer
from repro.geometry.interval import Interval
from repro.motion.segment import MotionSegment
from repro.storage.metrics import CostSnapshot

__all__ = ["AnswerItem", "AnswerBlock", "NeighborBlock", "SnapshotResult"]


@dataclass(frozen=True)
class AnswerItem:
    """One delivered answer: a motion segment plus its visibility.

    Attributes
    ----------
    record:
        The motion segment satisfying the query.
    visibility:
        The time interval during which the object is (or, for NPDQ,
        remains under the current window) inside the query; the client
        caches the object until ``visibility.high``.
    """

    record: MotionSegment
    visibility: Interval

    @property
    def object_id(self) -> int:
        """Identifier of the mobile object."""
        return self.record.object_id

    @property
    def appears_at(self) -> float:
        """Instant the object enters the view."""
        return self.visibility.low

    @property
    def disappears_at(self) -> float:
        """Instant the object leaves the view (cache-eviction key)."""
        return self.visibility.high

    @property
    def key(self) -> Tuple[int, int]:
        """Identity of the underlying segment."""
        return self.record.key


class AnswerBlock(Sequence):
    """One client's answers of one frame, as columns.

    ``rows`` holds one tuple of atomics per answer, ``(object_id, seq,
    low, high)``: the key the reported sets and the shard merge dedup
    on, which the collector stops tracking.  The record column holds
    the leaf's own records, or off the wire packed segment rows
    ``(t0, t1, *origin, *velocity)`` until :attr:`records` is read.  As
    a sequence the block is its :class:`AnswerItem` objects, built on
    first iteration and kept; ``len()`` builds nothing.
    """

    __slots__ = ("rows", "_records", "_resolved", "_built")

    EMPTY: "AnswerBlock"

    def __init__(self, rows: tuple = (), records: list = (), resolved: bool = True):
        self.rows, self._records, self._resolved = rows, records, resolved
        self._built: Optional[list] = None if rows else []

    @classmethod
    def of(cls, rows: Iterable[tuple], records: Iterable) -> "AnswerBlock":
        """The block of ``rows`` and their records (:attr:`EMPTY` if none)."""
        rows = tuple(rows)
        return cls(rows, list(records)) if rows else cls.EMPTY

    def _item(self, row: tuple, record: MotionSegment) -> "AnswerItem":
        return AnswerItem(record, Interval(row[2], row[3]))

    @classmethod
    def concat(cls, blocks: Sequence["AnswerBlock"], key: Callable = None) -> "AnswerBlock":
        """The rows of ``blocks`` in order, the first per ``key(row)``
        (the row itself by default) kept; one non-empty block is itself."""
        full = [b for b in blocks if b.rows]
        if len(full) <= 1:
            return full[0] if full else cls.EMPTY
        kept: dict = {}
        for block in full:
            for row, record in zip(block.rows, block._records):
                kept.setdefault(row if key is None else key(row), (row, record))
        rows, records = zip(*kept.values())
        return cls(rows, list(records), all(b._resolved for b in full))

    def take(self, order: List[int]) -> "AnswerBlock":
        """The block of rows ``order``, in that order."""
        rows, records = self.rows, self._records
        return type(self)(
            tuple(rows[k] for k in order), [records[k] for k in order], self._resolved
        ) if order else self.EMPTY

    @property
    def records(self) -> List[MotionSegment]:
        """The record column, rebuilt from packed rows on first read."""
        if not self._resolved:
            self._records = [
                r if isinstance(r, MotionSegment) else MotionSegment.from_row(row[0], row[1], r)
                for row, r in zip(self.rows, self._records)
            ]
            self._resolved = True
        return self._records

    def _items(self) -> list:
        if self._built is None:
            self._built = list(map(self._item, self.rows, self.records))
        return self._built

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        return self._items()[k]

    def __iter__(self):
        return iter(self._items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AnswerBlock):
            return type(self) is type(other) and (self.rows, self.records) == (
                other.rows, other.records
            )
        return self._items() == list(other) if isinstance(other, (list, tuple)) else NotImplemented

    def __hash__(self) -> int:  # a dataclass field default must hash
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.rows)} rows)"


class NeighborBlock(AnswerBlock):
    """A kNN frame's answers: rows ``(object_id, seq, distance)`` in rank
    order, read as :class:`~repro.core.KNNAnswer` objects."""

    __slots__ = ()

    def _item(self, row: tuple, record: MotionSegment) -> KNNAnswer:
        return KNNAnswer(record, row[2])


AnswerBlock.EMPTY, NeighborBlock.EMPTY = AnswerBlock(), NeighborBlock()


@dataclass
class SnapshotResult:
    """Answers and cost of evaluating one snapshot of a dynamic query.

    ``items`` are the snapshot's *exact* answers.  ``prefetched`` (used
    by NPDQ) carries segments whose bounding box satisfied the query but
    whose exact trajectory does not (yet): the incremental protocol must
    hand them to the client anyway, because the next snapshot's
    discardability test will assume the client has everything the
    current query's boxes covered.  Their ``visibility`` is a retention
    hint (how long the client should keep the record available), not an
    exactness claim.

    Graceful degradation: when an engine runs with a fault budget and a
    node load keeps failing, the node's subtree is skipped instead of
    aborting the query.  ``degraded`` is then ``True`` and
    ``skipped_subtrees`` counts the abandoned subtree roots, so callers
    can distinguish a *partial* answer (guaranteed subset of the
    fault-free answer) from a complete one.
    """

    query_time: Interval
    items: Sequence[AnswerItem] = field(default_factory=list)
    cost: CostSnapshot = field(default_factory=CostSnapshot)
    prefetched: Sequence[AnswerItem] = field(default_factory=list)
    degraded: bool = False
    skipped_subtrees: int = 0

    def __len__(self) -> int:
        return len(self.items)
