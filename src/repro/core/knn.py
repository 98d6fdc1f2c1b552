"""Moving-query nearest neighbours — the paper's future-work item (i).

"Generalizing the concept of dynamic queries to nearest neighbor
searches as well, similar to moving-query point of [24]."  We provide
the building block: an incremental (best-first, Hjaltason-Samet style)
k-NN search over the native-space index *at a time instant*, plus a
:class:`MovingKNN` driver that follows a moving query point across
frames, reusing the previous frame's k-th distance as a pruning bound.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import CorruptPageError, QueryError, TransientIOError
from repro.index.nsi import NativeSpaceIndex
from repro.index.pagearrays import page_arrays
from repro.motion.segment import MotionSegment
from repro.storage.metrics import QueryCost

__all__ = ["incremental_knn", "knn_frontier_pages", "MovingKNN"]


def _spatial_min_dist_sq(
    lows: Sequence[float], highs: Sequence[float], point: Sequence[float]
) -> float:
    """Min squared distance from ``point`` to the spatial part of a
    native-space box given by its corners (axes 1..d)."""
    total = 0.0
    for i, c in enumerate(point):
        low, high = lows[i + 1], highs[i + 1]
        if c < low:
            d = low - c
        elif c > high:
            d = c - high
        else:
            d = 0.0
        total += d * d
    return total


def _children_in_reach(
    node, t: float, point: Sequence[float], bound_sq: float
) -> Iterator[Tuple[float, int]]:
    """``(min squared distance, child page)`` of the internal entries alive
    at ``t`` and within ``bound_sq`` of ``point``, in entry order.

    The rows are masked on the page's columns; the distances stay scalar
    expressions over the surviving rows' floats — they order the answer
    stream, and an array form rounds differently.
    """
    arrays = page_arrays(node)
    boxes = arrays.box_batch()
    rows = boxes.rows_containing(0, t)
    for row, lows, highs in zip(rows, *boxes.bounds(rows)):
        d_sq = _spatial_min_dist_sq(lows, highs, point)
        if d_sq <= bound_sq:
            yield d_sq, arrays.child_id(row)


def incremental_knn(
    index: NativeSpaceIndex,
    t: float,
    point: Sequence[float],
    cost: Optional[QueryCost] = None,
    max_distance: float = math.inf,
) -> Iterator[Tuple[MotionSegment, float]]:
    """Yield segments valid at time ``t`` by increasing distance to
    ``point`` — stop consuming whenever enough neighbours were seen.

    Parameters
    ----------
    index:
        The native-space index.
    t:
        Query instant; only segments whose validity contains ``t`` are
        candidates.
    point:
        Query location (must match the index dimensionality).
    cost:
        Optional accumulator for disk/CPU accounting.
    max_distance:
        Prune subtrees farther than this (used by :class:`MovingKNN`).
    """
    if len(point) != index.dims:
        raise QueryError(
            f"point has {len(point)} dims, index has {index.dims}"
        )
    tree = index.tree
    dims = index.dims
    tie = itertools.count()
    bound_sq = max_distance * max_distance
    heap: List[tuple] = [(0.0, next(tie), tree.root_id, None)]
    while heap:
        dist_sq, _, page_id, record = heapq.heappop(heap)
        if dist_sq > bound_sq:
            return
        if record is not None:
            yield record, math.sqrt(dist_sq)
            continue
        node = tree.load_node(page_id, cost)
        if cost is not None:
            cost.count_distance_computations(len(node.entries))
        if not node.is_leaf:
            for d_sq, child_id in _children_in_reach(node, t, point, bound_sq):
                heapq.heappush(heap, (d_sq, next(tie), child_id, None))
            continue
        arrays = page_arrays(node)
        segments = arrays.segment_batch()
        rows = segments.rows_valid_at(t)
        for row, (t_lo, _, *motion) in zip(rows, segments.values(rows)):
            # MotionSegment.position_at(t), on the row's own floats
            dt = t - t_lo
            pos = [o + v * dt for o, v in zip(motion[:dims], motion[dims:])]
            d_sq = sum((a - b) ** 2 for a, b in zip(pos, point))
            if d_sq <= bound_sq:
                heapq.heappush(heap, (d_sq, next(tie), -1, arrays.record(row)))


def knn_frontier_pages(
    index: NativeSpaceIndex,
    t: float,
    point: Sequence[float],
    bound: float,
    cost: Optional[QueryCost] = None,
    failed: Optional[List[int]] = None,
) -> List[int]:
    """Pages a kNN at ``(t, point)`` bounded by ``bound`` may load.

    The shared-scan hook for continuous-kNN sessions: a best-first walk
    over a priority queue keyed by *distance to the query point* (not
    overlap time, which orders range-query frontiers) enumerating every
    node whose minimum distance is within ``bound`` — a superset of the
    pages a bounded :func:`incremental_knn` pass will touch, exactly
    like NPDQ's prediction walk over-approximates its snapshot.  The
    walk reads internal nodes while enumerating (charged to ``cost``,
    typically a session's ``prediction_cost``); an infinite bound (cold
    start) predicts nothing rather than enumerating the whole tree.

    Storage faults never propagate: a failing page is included in the
    result (and in ``failed``) but its subtree stays unenumerated, so a
    faulty walk only under-predicts — costing demand fetches, never
    answers.
    """
    if math.isinf(bound):
        return []
    tree = index.tree
    tie = itertools.count()
    bound_sq = bound * bound
    pages: List[int] = []
    heap: List[tuple] = [(0.0, next(tie), tree.root_id)]
    while heap:
        _, _, page_id = heapq.heappop(heap)
        pages.append(page_id)
        try:
            node = tree.load_node(page_id, cost)
        except (TransientIOError, CorruptPageError):
            if failed is not None:
                failed.append(page_id)
            continue
        if node.is_leaf:
            continue
        for d_sq, child_id in _children_in_reach(node, t, point, bound_sq):
            heapq.heappush(heap, (d_sq, next(tie), child_id))
    return sorted(set(pages))


class MovingKNN:
    """k nearest neighbours of a moving query point, frame by frame.

    Between frames the query point moves at most ``max_step`` (observer
    speed x frame period) and objects move at most ``max_object_step``;
    the previous frame's k-th distance plus both bounds is therefore a
    valid pruning radius for the next frame — a simple instance of the
    moving-query-point optimization of Song & Roussopoulos [24].

    Parameters
    ----------
    index:
        The native-space index.
    k:
        Number of neighbours per frame (>= 1).
    max_step:
        Upper bound on query-point movement between frames.
    max_object_step:
        Upper bound on any object's movement between frames.
    """

    def __init__(
        self,
        index: NativeSpaceIndex,
        k: int,
        max_step: float = math.inf,
        max_object_step: float = 0.0,
    ):
        if k < 1:
            raise QueryError("k must be >= 1")
        self.index = index
        self.k = k
        self.max_step = max_step
        self.max_object_step = max_object_step
        self.cost = QueryCost()
        self.discarded_cost = QueryCost()
        self._last_kth: float = math.inf

    @property
    def prune_bound(self) -> float:
        """Pruning radius the next :meth:`query` will start from.

        Infinite on a cold start (no previous frame) or when the query
        point's motion is unbounded; the serving layer uses this to
        enumerate the next frame's page frontier
        (:func:`knn_frontier_pages`) ahead of evaluation.
        """
        if math.isinf(self._last_kth) or math.isinf(self.max_step):
            return math.inf
        return self._last_kth + self.max_step + self.max_object_step

    def query(
        self, t: float, point: Sequence[float]
    ) -> List[Tuple[MotionSegment, float]]:
        """The k nearest segments valid at ``t``.

        Each pass runs against a scratch accumulator: only the pass that
        produces the answer is charged to :attr:`cost`, so ``results``
        counts exactly the answers returned.  A bounded pass that proves
        too tight (possible right after a teleport) is folded into
        :attr:`discarded_cost` instead and retried unbounded.

        Ties at the k-th distance are broken by segment key, which makes
        the answer a deterministic function of the record *set* — a
        sharded server can merge per-shard top-k lists under the same
        ``(distance, key)`` order and reproduce the unsharded answer
        byte for byte.
        """
        bound = self.prune_bound
        while True:
            scratch = QueryCost()
            candidates: List[Tuple[MotionSegment, float]] = []
            for rec, dist in incremental_knn(
                self.index, t, point, cost=scratch, max_distance=bound
            ):
                # Yields are non-decreasing in distance, so once k
                # candidates are in hand and a strictly farther one
                # arrives, every tie at the k-th distance has been seen.
                if len(candidates) >= self.k and dist > candidates[-1][1]:
                    break
                candidates.append((rec, dist))
            if len(candidates) < self.k and not math.isinf(bound):
                # The pruning bound was too tight; the partial pass is
                # wasted work, not answer cost.
                self.discarded_cost.absorb(scratch)
                bound = math.inf
                continue
            results = sorted(
                candidates, key=lambda pair: (pair[1], pair[0].key)
            )[: self.k]
            scratch.count_results(len(results))
            self.cost.absorb(scratch)
            if results:
                self._last_kth = results[-1][1]
            else:
                self._last_kth = math.inf
            return results
