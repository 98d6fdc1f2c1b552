"""Continuous aggregation over dynamic queries — future-work item (ii).

"Generalizing dynamic queries to include ... aggregation."  Because the
incremental evaluators tag every answer with its visibility interval,
time-varying aggregates over the observer's view are computable *client
side* with no further disk accesses:

* :func:`count_timeline` — the piecewise-constant number of visible
  objects over time (an interval-endpoint sweep);
* :func:`max_concurrent` / :func:`time_weighted_average` — summary
  statistics of that timeline;
* :class:`ContinuousCount` — convenience wrapper driving a
  :class:`~repro.core.PDQEngine` and exposing the timeline, with a
  ``verify_against_naive`` hook used by the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.pdq import PDQEngine
from repro.core.results import AnswerItem
from repro.core.trajectory import QueryTrajectory
from repro.errors import QueryError
from repro.geometry.interval import Interval
from repro.index.nsi import NativeSpaceIndex

__all__ = [
    "count_timeline",
    "visible_part",
    "timeline_of",
    "max_concurrent",
    "time_weighted_average",
    "ContinuousCount",
]


def count_timeline(
    items: Sequence[AnswerItem], span: Interval
) -> List[Tuple[float, int]]:
    """Piecewise-constant visible-object count over ``span``.

    Returns breakpoints ``(t, count)``: the count holds on ``[t, t')``
    until the next breakpoint ``t'``.  Appearances take effect at their
    instant; disappearances drop the count at their instant (visibility
    is treated as right-open for counting, so a zero-length visibility
    contributes nothing).
    """
    if span.is_empty:
        raise QueryError("aggregation span is empty")
    return timeline_of(
        ((i.visibility.low, i.visibility.high) for i in items), span.low, span.high
    )


def visible_part(
    low: float, high: float, start: float, end: float
) -> Optional[Tuple[float, float]]:
    """``[low, high] ∩ [start, end]`` in ``Interval.intersect``'s floats,
    or ``None`` when that is empty or of zero length (``Interval.length``)."""
    low = low if low >= start else start
    high = high if high <= end else end
    return (low, high) if high - low > 0.0 else None


def timeline_of(
    visibilities: Iterable[Tuple[float, float]], start: float, end: float
) -> List[Tuple[float, int]]:
    """:func:`count_timeline` of visibility ``(low, high)`` pairs over
    the non-empty span ``[start, end]``, with no answer object built."""
    deltas: dict = {}
    for low, high in visibilities:
        visible = visible_part(low, high, start, end)
        if visible is None:
            continue
        low, high = visible
        deltas[low] = deltas.get(low, 0) + 1
        deltas[high] = deltas.get(high, 0) - 1
    timeline: List[Tuple[float, int]] = []
    count = 0
    for t in sorted(deltas):
        count += deltas[t]
        if timeline and timeline[-1][0] == t:
            timeline[-1] = (t, count)
        else:
            timeline.append((t, count))
    if not timeline or timeline[0][0] > start:
        timeline.insert(0, (start, 0))
    return timeline


def max_concurrent(timeline: Sequence[Tuple[float, int]]) -> int:
    """Largest simultaneous count in a timeline."""
    return max((count for _, count in timeline), default=0)


def time_weighted_average(
    timeline: Sequence[Tuple[float, int]], span: Interval
) -> float:
    """Average visible-object count over ``span``, weighted by duration."""
    if span.is_empty or span.length == 0.0:
        raise QueryError("need a positive-length span")
    if not timeline:
        return 0.0
    total = 0.0
    for (t0, count), (t1, _) in zip(timeline, timeline[1:]):
        width = min(t1, span.high) - max(t0, span.low)
        if width > 0:
            total += count * width
    last_t, last_count = timeline[-1]
    if last_t < span.high:
        total += last_count * (span.high - max(last_t, span.low))
    return total / span.length


@dataclass
class ContinuousCount:
    """COUNT(*) of the observer's view, maintained incrementally.

    One PDQ traversal produces the exact time-varying count for the
    whole trajectory — the aggregation analogue of the paper's
    late-retrieval argument.
    """

    index: NativeSpaceIndex
    trajectory: QueryTrajectory

    def compute(self) -> List[Tuple[float, int]]:
        """Timeline of the visible-object count along the trajectory."""
        span = self.trajectory.time_span
        with PDQEngine(self.index, self.trajectory, track_updates=False) as pdq:
            items = pdq.window(span.low, span.high)
        return count_timeline(items, span)

    def verify_against_naive(self, at: float) -> Tuple[int, int]:
        """(timeline count, exact count) at instant ``at`` — test hook.

        :func:`count_timeline` counts visibility *right-open*: an object
        appearing at ``at`` counts, one disappearing exactly at ``at``
        does not.  A closed point snapshot at ``at`` legitimately
        disagrees at those instants (it still contains the departing
        object), so the naive side applies the same rule: a candidate
        from the snapshot counts only if some component of its overlap
        with the trajectory, clipped to the span, satisfies
        ``low <= at < high`` — i.e. it remains visible immediately
        after ``at``.
        """
        timeline = self.compute()
        current = 0
        for t, count in timeline:
            if t > at:
                break
            current = count
        span = self.trajectory.time_span
        window = self.trajectory.window_at(at)
        exact = 0
        for record, _ in self.index.snapshot_search(Interval.point(at), window):
            overlap = self.trajectory.segment_overlap(record.segment)
            visible = (c.intersect(span) for c in overlap)
            if any(
                iv.low <= at < iv.high
                for iv in visible
                if not iv.is_empty and iv.length > 0.0
            ):
                exact += 1
        return current, exact
