"""A TPR-tree and predictive dynamic queries over it (future work iii).

The TPR-tree (Šaltenis et al. [19]) indexes the *current and
anticipated* positions of moving objects: one entry per object holding
its last-reported motion, bounded by time-parameterized rectangles
(:class:`~repro.index.tpbox.TPBox`) whose edges move at the extreme
member velocities.  Subtree choice minimises the增 *integrated volume*
over a lookahead horizon ``H`` rather than the instantaneous volume.

This module provides a compact TPR-tree — insertion, motion update
(delete + reinsert, as in the original proposal), timeslice range
search — and :class:`TPRPDQEngine`: the paper's PDQ algorithm running
over the TPR-tree.  The adaptation is exactly the one the paper
anticipates: the only geometry PDQ needs is "when does this bounding
region overlap the moving query window", and for time-parameterized
rectangles that remains a conjunction of linear inequalities
(:meth:`TPBox.overlap_interval_with_moving_window`).

Scope notes (documented limitations vs a production TPR-tree):
bounding boxes are tightened on update/delete only along the affected
path, and concurrent-insert notification into live TPR queries is not
implemented (the paper's update-management protocol is demonstrated on
the native-space index).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import IndexStructureError, QueryError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.geometry.timeset import TimeSet
from repro.geometry.trapezoid import moving_window_segment_overlap
from repro.core.results import AnswerItem
from repro.core.trajectory import QueryTrajectory
from repro.index.split import quadratic_split
from repro.index.tpbox import TPBox
from repro.motion.linear import LinearMotion
from repro.motion.segment import MotionSegment
from repro.storage.disk import DiskManager
from repro.storage.metrics import QueryCost

__all__ = ["CurrentMotion", "TPRTree", "TPRPDQEngine"]


@dataclass(frozen=True)
class CurrentMotion:
    """One object's last-reported motion (what a TPR-tree indexes)."""

    object_id: int
    motion: LinearMotion

    @property
    def dims(self) -> int:
        """Spatial dimensionality."""
        return self.motion.dims

    def tpbox(self) -> TPBox:
        """The degenerate time-parameterized box of this point."""
        return TPBox.for_point(
            self.motion.start_time, self.motion.origin, self.motion.velocity
        )

    def as_segment(self, until: float) -> MotionSegment:
        """A motion segment view valid to ``until`` (for exact tests)."""
        return MotionSegment(self.object_id, 0, self.motion.segment(until))


@dataclass
class _TPRNode:
    page_id: int
    level: int
    entries: List["_TPREntry"]

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def mbr(self) -> TPBox:
        box = self.entries[0].box
        for e in self.entries[1:]:
            box = box.cover(e.box)
        return box


@dataclass(frozen=True)
class _TPREntry:
    box: TPBox
    child_id: int = -1  # >= 0 for internal entries
    record: Optional[CurrentMotion] = None

    @property
    def key(self) -> tuple:
        if self.record is not None:
            return ("object", self.record.object_id)
        return ("node", self.child_id)


class _SplitBoxAdapter:
    """Presents a TPBox materialised at a probe time to the splitters."""

    __slots__ = ("box", "key", "entry")

    def __init__(self, entry: _TPREntry, probe_time: float):
        self.entry = entry
        self.box = entry.box.box_at(probe_time)
        self.key = entry.key


class TPRTree:
    """A TPR-tree over the current motions of a moving-object population.

    Parameters
    ----------
    dims:
        Spatial dimensionality.
    horizon:
        Lookahead ``H``: insertion optimises the volume integral over
        ``[now, now + H]`` and splits are probed at ``now + H/2``.
    max_entries:
        Node fanout.
    disk:
        Optional counting page store.
    """

    def __init__(
        self,
        dims: int = 2,
        horizon: float = 5.0,
        max_entries: int = 32,
        disk: Optional[DiskManager] = None,
    ):
        if dims < 1:
            raise IndexStructureError("dims must be >= 1")
        if horizon <= 0:
            raise IndexStructureError("horizon must be positive")
        if max_entries < 4:
            raise IndexStructureError("max_entries must be >= 4")
        self.dims = dims
        self.horizon = horizon
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 3)
        self.disk = disk if disk is not None else DiskManager()
        self._locations: Dict[int, int] = {}  # object id -> leaf page id
        self._parents: Dict[int, int] = {}
        root = _TPRNode(self.disk.allocate(), 0, [])
        self.disk.write(root.page_id, root)
        self._root_id = root.page_id
        self._size = 0

    # -- accessors ---------------------------------------------------------

    @property
    def root_id(self) -> int:
        """Root page id."""
        return self._root_id

    def __len__(self) -> int:
        return self._size

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._locations

    # -- insertion -----------------------------------------------------------

    def insert(self, record: CurrentMotion) -> None:
        """Index an object's current motion.

        Raises
        ------
        IndexStructureError
            If the object is already present (use :meth:`update`).
        """
        if record.dims != self.dims:
            raise IndexStructureError(
                f"record has {record.dims} dims, tree has {self.dims}"
            )
        if record.object_id in self._locations:
            raise IndexStructureError(
                f"object {record.object_id} already indexed; use update()"
            )
        self._insert_entry(_TPREntry(record.tpbox(), record=record))
        self._size += 1

    def update(self, record: CurrentMotion) -> None:
        """Replace an object's motion (the TPR-tree's delete+reinsert)."""
        self.delete(record.object_id)
        self.insert(record)

    def delete(self, object_id: int) -> bool:
        """Remove an object; returns False if absent."""
        leaf_id = self._locations.pop(object_id, None)
        if leaf_id is None:
            return False
        leaf = self.disk.read(leaf_id)
        leaf.entries = [
            e for e in leaf.entries if e.record.object_id != object_id
        ]
        self.disk.write(leaf_id, leaf)
        self._size -= 1
        if not leaf.entries and leaf_id != self._root_id:
            self._detach_empty(leaf_id)
        return True

    def _detach_empty(self, page_id: int) -> None:
        parent_id = self._parents.pop(page_id)
        parent = self.disk.read(parent_id)
        parent.entries = [e for e in parent.entries if e.child_id != page_id]
        self.disk.write(parent_id, parent)
        self.disk.free(page_id)
        if not parent.entries and parent_id != self._root_id:
            self._detach_empty(parent_id)

    def _choose_path(self, box: TPBox) -> List[_TPRNode]:
        path = [self.disk.read(self._root_id)]
        node = path[0]
        while not node.is_leaf:
            best = min(
                node.entries,
                key=lambda e: (
                    e.box.cover(box).integrated_volume(self.horizon)
                    - e.box.integrated_volume(self.horizon)
                ),
            )
            node = self.disk.read(best.child_id)
            path.append(node)
        return path

    def _insert_entry(self, entry: _TPREntry) -> None:
        path = self._choose_path(entry.box)
        leaf = path[-1]
        leaf.entries.append(entry)
        self._locations[entry.record.object_id] = leaf.page_id  # type: ignore[union-attr]
        node = leaf
        idx = len(path) - 1
        while True:
            if len(node.entries) <= self.max_entries:
                self.disk.write(node.page_id, node)
                break
            keep, new = self._split(node)
            node.entries = [a.entry for a in keep]
            sibling = _TPRNode(
                self.disk.allocate(), node.level, [a.entry for a in new]
            )
            self.disk.write(node.page_id, node)
            self.disk.write(sibling.page_id, sibling)
            self._reparent(sibling)
            if idx == 0:
                new_root = _TPRNode(
                    self.disk.allocate(),
                    node.level + 1,
                    [
                        _TPREntry(node.mbr(), child_id=node.page_id),
                        _TPREntry(sibling.mbr(), child_id=sibling.page_id),
                    ],
                )
                self.disk.write(new_root.page_id, new_root)
                self._parents[node.page_id] = new_root.page_id
                self._parents[sibling.page_id] = new_root.page_id
                self._root_id = new_root.page_id
                return
            parent = path[idx - 1]
            parent.entries = [
                e if e.child_id != node.page_id
                else _TPREntry(node.mbr(), child_id=node.page_id)
                for e in parent.entries
            ]
            parent.entries.append(
                _TPREntry(sibling.mbr(), child_id=sibling.page_id)
            )
            self._parents[sibling.page_id] = parent.page_id
            node = parent
            idx -= 1
        # Tighten/grow ancestor boxes.
        for i in range(idx, 0, -1):
            child = path[i]
            parent = path[i - 1]
            parent.entries = [
                e if e.child_id != child.page_id
                else _TPREntry(child.mbr(), child_id=child.page_id)
                for e in parent.entries
            ]
            self.disk.write(parent.page_id, parent)

    def _split(self, node: _TPRNode):
        probe = max(e.box.ref for e in node.entries) + self.horizon / 2.0
        adapters = [_SplitBoxAdapter(e, probe) for e in node.entries]
        return quadratic_split(adapters, self.min_entries, None)

    def _reparent(self, node: _TPRNode) -> None:
        if node.is_leaf:
            for e in node.entries:
                self._locations[e.record.object_id] = node.page_id  # type: ignore[union-attr]
        else:
            for e in node.entries:
                self._parents[e.child_id] = node.page_id

    # -- queries -------------------------------------------------------------------

    def timeslice_search(
        self,
        t: float,
        window: Box,
        cost: Optional[QueryCost] = None,
    ) -> List[CurrentMotion]:
        """Objects anticipated inside ``window`` at future instant ``t``."""
        if window.dims != self.dims:
            raise QueryError(
                f"window has {window.dims} dims, tree has {self.dims}"
            )
        results: List[CurrentMotion] = []
        stack = [self._root_id]
        while stack:
            node = self.disk.read(stack.pop())
            if cost is not None:
                cost.count_node_read(node.is_leaf)
            for e in node.entries:
                if cost is not None:
                    cost.count_distance_computations()
                if not e.box.overlap_interval_with_box(
                    window, Interval.point(t)
                ):
                    continue
                if node.is_leaf:
                    if cost is not None:
                        cost.count_results()
                    results.append(e.record)  # type: ignore[arg-type]
                else:
                    stack.append(e.child_id)
        return results

    def all_records(self) -> Iterator[CurrentMotion]:
        """Uncounted full scan (test oracle)."""
        stack = [self._root_id]
        while stack:
            node = self.disk.read(stack.pop())
            if node.is_leaf:
                for e in node.entries:
                    yield e.record  # type: ignore[misc]
            else:
                stack.extend(e.child_id for e in node.entries)


class TPRPDQEngine:
    """The paper's PDQ algorithm running over a TPR-tree.

    Same contract as :class:`~repro.core.PDQEngine` (priority queue
    ordered by appearance time, each node read at most once, answers
    tagged with visibility intervals), but bounding regions are
    time-parameterized and answers are the objects' *anticipated*
    appearances based on their current motions.
    """

    def __init__(self, tree: TPRTree, trajectory: QueryTrajectory):
        if trajectory.dims != tree.dims:
            raise QueryError(
                f"trajectory has {trajectory.dims} dims, tree {tree.dims}"
            )
        self.tree = tree
        self.trajectory = trajectory
        self.cost = QueryCost()
        self._heap: List[tuple] = []
        self._tie = itertools.count()
        self._expanded: set = set()
        self._frontier = trajectory.time_span.low
        heapq.heappush(
            self._heap,
            (trajectory.time_span.low, next(self._tie), tree.root_id, None, None),
        )

    def _segment_view(self, record: CurrentMotion) -> SpaceTimeSegment:
        span = self.trajectory.time_span
        start = max(record.motion.start_time, span.low)
        return SpaceTimeSegment(
            Interval(start, span.high),
            record.motion.location(start),
            record.motion.velocity,
        )

    def _push_record(self, record: CurrentMotion) -> None:
        timeset = TimeSet(
            moving_window_segment_overlap(mw, self._segment_view(record))
            for mw in self.trajectory.segments
        )
        for component in timeset:
            if component.high >= self._frontier:
                heapq.heappush(
                    self._heap,
                    (component.low, next(self._tie), -1, record, component),
                )

    def get_next(self, t_start: float, t_end: float) -> Optional[AnswerItem]:
        """Next anticipated appearance during ``[t_start, t_end]``."""
        if t_end < t_start:
            raise QueryError("t_end must be >= t_start")
        self._frontier = max(self._frontier, t_start)
        while self._heap:
            start, _, page_id, record, component = self._heap[0]
            if start > t_end:
                return None
            heapq.heappop(self._heap)
            if record is not None:
                if component.high < t_start:
                    continue
                self.cost.count_results()
                return AnswerItem(
                    record.as_segment(self.trajectory.time_span.high),
                    component,
                )
            if page_id in self._expanded:
                continue
            self._expanded.add(page_id)
            node = self.tree.disk.read(page_id)
            self.cost.count_node_read(node.is_leaf)
            if node.is_leaf:
                for e in node.entries:
                    self.cost.count_distance_computations()
                    self.cost.count_segment_tests()
                    self._push_record(e.record)  # type: ignore[arg-type]
            else:
                for e in node.entries:
                    self.cost.count_distance_computations()
                    intervals = [
                        e.box.overlap_interval_with_moving_window(mw)
                        for mw in self.trajectory.segments
                    ]
                    for component in TimeSet(intervals):
                        if component.high >= self._frontier:
                            heapq.heappush(
                                self._heap,
                                (
                                    component.low,
                                    next(self._tie),
                                    e.child_id,
                                    None,
                                    None,
                                ),
                            )
        return None

    def window(self, t_start: float, t_end: float) -> List[AnswerItem]:
        """All anticipated appearances during ``[t_start, t_end]``."""
        out: List[AnswerItem] = []
        while True:
            item = self.get_next(t_start, t_end)
            if item is None:
                return out
            out.append(item)
