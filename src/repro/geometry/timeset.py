"""Unions of disjoint closed time intervals.

The PDQ algorithm computes, for each R-tree node, the time during which the
node's box overlaps the moving query.  Over a multi-segment trajectory this
is a *union* of intervals (Sect. 4.1: ``T_{Q,R} = ∪_j T^j``), which may be
disconnected: a node can enter the view, leave it, and re-enter later.

:class:`TimeSet` stores such unions normalised (sorted, coalesced).  The
PDQ priority queue enqueues one entry per connected component so that
visibility intervals delivered to the client are exact.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.errors import GeometryError
from repro.geometry.interval import EMPTY_INTERVAL, Interval

__all__ = ["TimeSet"]


def _coalesce(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort non-empty intervals and merge any that touch or overlap."""
    live = sorted((i for i in intervals if not i.is_empty), key=lambda i: i.low)
    if not live:
        return ()
    merged: List[Interval] = [live[0]]
    for cur in live[1:]:
        last = merged[-1]
        if cur.low <= last.high:  # closed intervals: touching counts as merged
            if cur.high > last.high:
                merged[-1] = Interval(last.low, cur.high)
        else:
            merged.append(cur)
    return tuple(merged)


class TimeSet:
    """An immutable, normalised union of disjoint closed intervals."""

    __slots__ = ("_components",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._components = _coalesce(intervals)

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls) -> "TimeSet":
        """The empty set of times."""
        return cls(())

    @classmethod
    def of(cls, *intervals: Interval) -> "TimeSet":
        """Convenience variadic constructor."""
        return cls(intervals)

    # -- accessors ---------------------------------------------------------

    @property
    def components(self) -> Tuple[Interval, ...]:
        """The disjoint intervals, sorted by start."""
        return self._components

    @property
    def is_empty(self) -> bool:
        """True iff the set contains no time instant."""
        return not self._components

    @property
    def start(self) -> float:
        """Earliest instant; raises on empty set."""
        if self.is_empty:
            raise GeometryError("empty TimeSet has no start")
        return self._components[0].low

    @property
    def end(self) -> float:
        """Latest instant; raises on empty set."""
        if self.is_empty:
            raise GeometryError("empty TimeSet has no end")
        return self._components[-1].high

    @property
    def span(self) -> Interval:
        """Smallest single interval covering the whole set."""
        if self.is_empty:
            return EMPTY_INTERVAL
        return Interval(self.start, self.end)

    def measure(self) -> float:
        """Total length of all components."""
        return sum(c.length for c in self._components)

    def contains(self, t: float) -> bool:
        """Membership test (binary search over components)."""
        lo, hi = 0, len(self._components) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            c = self._components[mid]
            if t < c.low:
                hi = mid - 1
            elif t > c.high:
                lo = mid + 1
            else:
                return True
        return False

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "TimeSet") -> "TimeSet":
        """Set union."""
        return TimeSet(self._components + other._components)

    def add(self, interval: Interval) -> "TimeSet":
        """Set union with a single interval."""
        if interval.is_empty:
            return self
        return TimeSet(self._components + (interval,))

    def intersect_interval(self, window: Interval) -> "TimeSet":
        """Restrict the set to ``window``."""
        if window.is_empty:
            return TimeSet.empty()
        return TimeSet(c.intersect(window) for c in self._components)

    def overlaps_interval(self, window: Interval) -> bool:
        """True iff any component overlaps ``window``."""
        return any(c.overlaps(window) for c in self._components)

    def first_component_overlapping(self, window: Interval) -> Interval:
        """The earliest component overlapping ``window`` (or empty)."""
        for c in self._components:
            if c.overlaps(window):
                return c
        return EMPTY_INTERVAL

    # -- dunder ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __bool__(self) -> bool:
        return not self.is_empty

    def __contains__(self, t: float) -> bool:
        return self.contains(t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSet):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(("TimeSet", self._components))

    def __repr__(self) -> str:
        inner = ", ".join(f"[{c.low}, {c.high}]" for c in self._components)
        return f"TimeSet({{{inner}}})"
