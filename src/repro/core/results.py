"""Answer types shared by every evaluator.

The paper's incremental evaluators return, with each object, "how long
that object will stay in the view so that [the application] will know how
long the object should be kept in the application's cache".
:class:`AnswerItem` is exactly that pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.geometry.interval import Interval
from repro.motion.segment import MotionSegment
from repro.storage.metrics import CostSnapshot

__all__ = ["AnswerItem", "SnapshotResult"]


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
    items: List[AnswerItem] = field(default_factory=list)
    cost: CostSnapshot = field(default_factory=CostSnapshot)
    prefetched: List[AnswerItem] = field(default_factory=list)
    degraded: bool = False
    skipped_subtrees: int = 0

    def __len__(self) -> int:
        return len(self.items)
