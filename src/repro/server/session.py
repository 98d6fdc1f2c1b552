"""Client sessions hosted by the broker.

A :class:`ClientSession` wraps one dynamic-query consumer — a raw
:class:`~repro.core.PDQEngine`, a raw :class:`~repro.core.NPDQEngine`,
or a full auto-mode :class:`~repro.core.DynamicQuerySession` — behind a
uniform per-tick interface:

* :meth:`serve` evaluates the session's slice of one tick and returns a
  :class:`TickResult` (or ``None`` when a shed session is coasting on a
  previous conservative answer);
* :meth:`frontier_demand` names the pages that evaluation will read,
  per index tree, so the shared-scan scheduler can batch page reads
  across clients;
* :meth:`deliver` / :meth:`poll` implement the bounded result queue that
  admission control and slow-client shedding are built on.

Shedding (PDQ sessions only): instead of letting one slow client stall
the tick, the broker degrades it — the exact PDQ engine is swapped for
an :class:`~repro.core.SPDQEngine` whose window is inflated by
``delta = observer_speed_bound * stride * period``, and the session is
then evaluated only every ``stride`` ticks, each evaluation covering the
whole stride conservatively.  Results are flagged ``degraded``; the
client can refine them locally with :meth:`SPDQEngine.refine`.

Shedding is reversible: when the broker's hysteresis (``promote_after``
in :class:`~repro.server.broker.ServerConfig`) sees the shed client's
queue stay shallow for enough consecutive strides — the client caught
up and is draining faster than the strided evaluations arrive —
:meth:`PDQSession.promote` rebuilds an exact PDQ engine and the session
returns to per-tick exact service.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.aggregate import count_timeline
from repro.core.joins import snapshot_distance_join
from repro.core.knn import MovingKNN, knn_frontier_pages
from repro.core.npdq import NPDQEngine
from repro.core.pdq import PDQEngine
from repro.core.query import JoinAnswer, KNNAnswer
from repro.core.results import AnswerItem
from repro.core.session import DynamicQuerySession
from repro.core.snapshot import SnapshotQuery
from repro.core.spdq import SPDQEngine
from repro.core.trajectory import QueryTrajectory
from repro.errors import CorruptPageError, ServerError, TransientIOError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.server.clock import Tick
from repro.server.metrics import ClientMetrics
from repro.storage.metrics import QueryCost

__all__ = [
    "SessionState",
    "TickResult",
    "PredictionRecord",
    "ClientSession",
    "PDQSession",
    "NPDQSession",
    "KNNSession",
    "JoinSession",
    "AggregateSession",
    "AutoSession",
]


class SessionState(enum.Enum):
    """Lifecycle of a hosted client session."""

    ACTIVE = "active"
    SHED = "shed"
    CLOSED = "closed"


@dataclass(frozen=True)
class TickResult:
    """What one client received for one serving tick.

    ``covers_until`` normally equals ``end``; for a shed session's
    strided evaluation it extends to the end of the covered stride, and
    the items are a conservative (δ-inflated) superset for that span.

    The zoo kinds fill their own carriers and leave ``items`` to the
    range family: ``neighbors`` (kNN answers ranked by ``(distance,
    key)``, with ``k`` the session's target so a sharded merge knows
    where to truncate), ``pairs`` (join answers sorted by unordered pair
    key), and ``aggregate`` (the ``(t, count)`` breakpoints of the
    visible-object timeline over ``[start, horizon]``, recomputable from
    ``items`` — which an aggregate result *does* carry, so cross-shard
    merges can rebuild the timeline from the deduplicated union).
    """

    index: int
    start: float
    end: float
    mode: str
    items: Tuple[AnswerItem, ...]
    prefetched: Tuple[AnswerItem, ...] = ()
    degraded: bool = False
    covers_until: Optional[float] = None
    neighbors: Tuple[KNNAnswer, ...] = ()
    pairs: Tuple[JoinAnswer, ...] = ()
    aggregate: Tuple[Tuple[float, int], ...] = ()
    k: int = 0

    @property
    def horizon(self) -> float:
        """Time through which this result is valid."""
        return self.covers_until if self.covers_until is not None else self.end


@dataclass
class _ResultQueue:
    """Bounded FIFO of undelivered tick results (drop-oldest on overflow)."""

    depth: int
    items: Deque[TickResult] = field(default_factory=deque)
    dropped: int = 0

    def push(self, result: TickResult) -> bool:
        """Enqueue; returns ``False`` when the oldest result was dropped."""
        overflow = len(self.items) >= self.depth
        if overflow:
            self.items.popleft()
            self.dropped += 1
        self.items.append(result)
        return not overflow

    def drain(self, limit: Optional[int] = None) -> List[TickResult]:
        """Pop up to ``limit`` results (all of them by default)."""
        n = len(self.items) if limit is None else min(limit, len(self.items))
        return [self.items.popleft() for _ in range(n)]

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class PredictionRecord:
    """One tick's prediction walk and, after evaluation, its outcome.

    The walk descends for the very frame :meth:`NPDQSession.serve`
    evaluates, so ``set(actual) == pages`` whenever the walk read every
    page it reached (``walk_faults == 0``) — the invariant the test
    suite's checking wrapper asserts.  ``mispredicted`` is what
    evaluation loaded beyond ``pages``: the subtrees under a page the
    walk could not read, never a bad guess.
    """

    tick_index: int
    pages: FrozenSet[int]
    walk_faults: int
    actual: Tuple[int, ...] = ()
    mispredicted: Tuple[int, ...] = ()
    served: bool = False


class ClientSession:
    """Common state and queue plumbing for every session kind."""

    kind = "abstract"
    #: The kind's evaluator, where it has one: :attr:`logical_reads`
    #: reads its ``cost`` and :meth:`close` closes it.
    engine = None
    #: End of the trajectory's span, set by the kinds whose queries are
    #: defined only inside it: a window past the span has no answers,
    #: and ``[tick.start, span_end]`` would be inverted.
    span_end = math.inf

    def __init__(self, client_id: str, queue_depth: int):
        if queue_depth < 1:
            raise ServerError("queue_depth must be >= 1")
        self.client_id = client_id
        self.state = SessionState.ACTIVE
        self.queue = _ResultQueue(queue_depth)
        self.metrics = ClientMetrics(client_id)
        self._shallow_strides = 0  # consecutive shallow-queue strides

    # -- the per-tick contract (overridden per kind) -----------------------

    def will_serve(self, tick: Tick) -> bool:
        """Does this session need evaluation work during ``tick``?"""
        return (
            self.state is not SessionState.CLOSED
            and tick.start <= self.span_end
        )

    def frontier_demand(self, tick: Tick) -> List[Tuple[object, List[int]]]:
        """``(tree, page ids)`` demand pairs for the batch phase.

        Each pair names the R-tree the pages belong to, so the shared
        scan can batch sessions over different indexes (native-space for
        PDQ/auto frontiers, dual-time for NPDQ/auto walks) without
        conflating the two trees' page-id namespaces.
        """
        if not self.will_serve(tick):
            return []
        return [
            (tree, pages) for tree, pages in self._frontiers(tick) if pages
        ]

    def _frontiers(self, tick: Tick) -> Iterable[Tuple[object, List[int]]]:
        """Per kind: each tree the evaluation of ``tick`` will read,
        with the page ids it will read there."""
        return ()

    def serve(self, tick: Tick) -> Optional[TickResult]:
        """Evaluate this session's slice of ``tick``."""
        raise NotImplementedError

    @property
    def logical_reads(self) -> int:
        """Cumulative node reads this session's engine has *demanded*
        (possibly served from the shared buffer without physical I/O)."""
        if self.engine is None:
            return 0
        cost = self.engine.cost
        return cost.internal_reads + cost.leaf_reads

    # -- queue -----------------------------------------------------------------

    def deliver(self, result: TickResult) -> bool:
        """Queue a result for the client; ``False`` flags a slow client."""
        self.metrics.ticks_served += 1
        self.metrics.items_delivered += (
            len(result.items) + len(result.neighbors) + len(result.pairs)
        )
        if result.degraded:
            self.metrics.degraded_ticks += 1
        ok = self.queue.push(result)
        self.metrics.dropped_results = self.queue.dropped
        self.metrics.queue_peak = max(self.metrics.queue_peak, len(self.queue))
        return ok

    def poll(self, limit: Optional[int] = None) -> List[TickResult]:
        """Client-side consumption: drain queued results."""
        return self.queue.drain(limit)

    def observe_queue(self, promote_after: int, promote_depth: int) -> bool:
        """Hysteresis step after one successfully delivered shed stride
        (sheddable kinds only — nothing else is ever ``SHED``).

        Counts consecutive strides whose post-delivery queue length is at
        most ``promote_depth`` (the client is draining as fast as the
        broker produces); ``promote_after`` such strides trigger
        :meth:`promote`.  A deep queue resets the streak — one good
        stride must not flap a still-struggling client back to exact
        service.  Returns ``True`` when this call promoted.
        """
        if self.state is not SessionState.SHED or promote_after < 1:
            return False
        if len(self.queue) <= promote_depth:
            self._shallow_strides += 1
        else:
            self._shallow_strides = 0
        if self._shallow_strides >= promote_after:
            self.promote()
            return True
        return False

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release engine resources; the session stops being served."""
        release = getattr(self.engine, "close", None)
        if release is not None and self.state is not SessionState.CLOSED:
            release()
        self.state = SessionState.CLOSED


class PDQSession(ClientSession):
    """A predictive client: one PDQ (or, after shedding, SPDQ) engine."""

    kind = "pdq"

    def __init__(
        self,
        client_id: str,
        index,
        trajectory: QueryTrajectory,
        queue_depth: int,
        rebuild_depth: int = 0,
        track_updates: bool = True,
        fault_budget: Optional[int] = None,
    ):
        super().__init__(client_id, queue_depth)
        self.index = index
        self.trajectory = trajectory
        self.span_end = trajectory.time_span.high
        self.track_updates = track_updates
        self.rebuild_depth = rebuild_depth
        self.fault_budget = fault_budget
        self.engine = PDQEngine(
            index,
            trajectory,
            rebuild_depth=rebuild_depth,
            track_updates=track_updates,
            fault_budget=fault_budget,
        )
        self._shed_stride = 1
        self._next_eval = 0  # tick index of the next evaluation
        # Reads demanded by engines this session has already retired
        # (shed/promote swaps); keeps ``logical_reads`` monotonic across
        # engine replacements so the broker's per-tick deltas stay >= 0.
        self._retired_reads = 0

    def will_serve(self, tick: Tick) -> bool:
        return super().will_serve(tick) and tick.index >= self._next_eval

    def _horizon(self, tick: Tick) -> float:
        """End of the stride an evaluation at ``tick`` covers."""
        return min(
            tick.start + self._shed_stride * tick.duration, self.span_end
        )

    def _frontiers(self, tick: Tick):
        yield self.index.tree, self.engine.frontier_pages(self._horizon(tick))

    def serve(self, tick: Tick) -> Optional[TickResult]:
        if not self.will_serve(tick):
            return None
        horizon = self._horizon(tick)
        items = self.engine.window(tick.start, horizon)
        self._next_eval = tick.index + self._shed_stride
        shed = self.state is SessionState.SHED
        degraded = shed or getattr(self.engine, "degraded", False)
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode="spdq" if shed else "pdq",
            items=tuple(items),
            degraded=degraded,
            covers_until=horizon if shed else None,
        )

    @property
    def logical_reads(self) -> int:
        return self._retired_reads + super().logical_reads

    def _retire_engine(self) -> None:
        """Close the current engine, folding its reads into the total."""
        cost = self.engine.cost
        self._retired_reads += cost.internal_reads + cost.leaf_reads
        self.engine.close()

    def shed(self, delta: float, stride: int) -> None:
        """Degrade to strided SPDQ evaluation with a δ-inflated window.

        The exact engine is dropped and replaced by an
        :class:`~repro.core.SPDQEngine` over the same trajectory;
        already-reported answers are re-deliverable (the fresh engine has
        an empty reported set), which is the conservative direction.
        """
        if self.state is not SessionState.ACTIVE:
            return
        if delta < 0 or stride < 1:
            raise ServerError("shed delta must be >= 0 and stride >= 1")
        self._retire_engine()
        self.engine = SPDQEngine(
            self.index,
            self.trajectory,
            delta=delta,
            track_updates=self.track_updates,
        )
        self._shed_stride = stride
        self._shallow_strides = 0
        self.state = SessionState.SHED

    def promote(self) -> None:
        """Return a shed session to exact per-tick PDQ service.

        The δ-inflated SPDQ engine is dropped and a fresh exact
        :class:`~repro.core.PDQEngine` is built with the session's
        original parameters.  Like :meth:`shed` in reverse, the fresh
        engine's empty reported set may re-deliver already-seen answers
        — the conservative direction.  Evaluation resumes on the very
        next tick, even mid-stride: the client is keeping up, so the
        sooner it sees exact answers the better.
        """
        if self.state is not SessionState.SHED:
            return
        self._retire_engine()
        self.engine = PDQEngine(
            self.index,
            self.trajectory,
            rebuild_depth=self.rebuild_depth,
            track_updates=self.track_updates,
            fault_budget=self.fault_budget,
        )
        self._shed_stride = 1
        self._next_eval = 0
        self._shallow_strides = 0
        self.state = SessionState.ACTIVE


class NPDQSession(ClientSession):
    """A non-predictive client: per-tick snapshots with NPDQ memory.

    *Non-predictive* means the server cannot know the client's **next**
    frame — not the one it is serving: in the closed tick the frame of
    tick *t* has been submitted before the batch phase runs.  So the
    session joins the shared scan with that very frame
    (:meth:`~repro.core.QueryTrajectory.frame_query` over the tick,
    built once and read by both phases): the engine's coverage-pruned
    prediction walk (:meth:`~repro.core.NPDQEngine.predict_pages`) turns
    it into the page set :meth:`serve` is about to load.  The session
    keeps serving past the trajectory's span, over the clamped window.

    The walk is read-only and replays the evaluation's own pruning over
    the evaluation's own query, so its page set *is* the set
    :meth:`serve` loads — unless a storage fault stops the walk short of
    a subtree, whose pages evaluation then demand-fetches and
    ``mispredicted_pages`` counts; answers never change.  Walk I/O is
    charged to :attr:`prediction_cost`, never to the engine's own
    :class:`~repro.storage.metrics.QueryCost`, so per-client logical
    accounting stays identical to isolated execution.
    """

    kind = "npdq"

    def __init__(
        self,
        client_id: str,
        index,
        trajectory: QueryTrajectory,
        queue_depth: int,
        exact: bool = True,
        fault_budget: Optional[int] = None,
    ):
        super().__init__(client_id, queue_depth)
        self.trajectory = trajectory
        self.engine = NPDQEngine(index, exact=exact, fault_budget=fault_budget)
        self.prediction_cost = QueryCost()
        self.last_prediction: Optional[PredictionRecord] = None
        self._frame: Optional[Tuple[Tick, SnapshotQuery]] = None

    def _frame_query(self, tick: Tick) -> SnapshotQuery:
        """The frame the client submitted for ``tick``."""
        if self._frame is None or self._frame[0] != tick:
            query = self.trajectory.frame_query(tick.start, tick.end)
            self._frame = (tick, query)
        return self._frame[1]

    def _frontiers(self, tick: Tick):
        failed: List[int] = []
        pages = self.engine.predict_pages(
            self._frame_query(tick), cost=self.prediction_cost, failed=failed
        )
        self.last_prediction = PredictionRecord(
            tick_index=tick.index,
            pages=frozenset(pages),
            walk_faults=len(failed),
        )
        yield self.engine.index.tree, pages

    def serve(self, tick: Tick) -> Optional[TickResult]:
        result = self.engine.snapshot(self._frame_query(tick))
        record = self.last_prediction
        if record is not None and record.tick_index == tick.index:
            actual = tuple(self.engine.last_loaded_pages)
            record.actual = actual
            record.mispredicted = tuple(
                p for p in actual if p not in record.pages
            )
            record.served = True
            self.metrics.predicted_pages += len(record.pages)
            self.metrics.actual_pages += len(actual)
            self.metrics.mispredicted_pages += len(record.mispredicted)
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode="npdq",
            items=tuple(result.items),
            prefetched=tuple(result.prefetched),
            degraded=result.degraded,
        )


class KNNSession(ClientSession):
    """A continuous-kNN client: the k nearest objects of a moving point.

    The query point is the centre of the client trajectory's window at
    each tick's end; a :class:`~repro.core.MovingKNN` engine carries the
    previous frame's k-th distance as the next frame's pruning bound.
    The session joins the shared scan through
    :func:`~repro.core.knn_frontier_pages` — a best-first page
    enumeration keyed by *distance to the query point* rather than the
    overlap time that orders range-query frontiers — so kNN clients
    batch their reads with everyone else's.  Cold-start frames
    (infinite bound) contribute no frontier and demand-fetch instead.

    Results are ranked by ``(distance, key)`` and carry their distances,
    making the answer a deterministic function of the record set: a
    sharded front-end re-ranks the union of per-shard top-k lists under
    the same order and reproduces the unsharded answer byte for byte.
    """

    kind = "knn"

    def __init__(
        self,
        client_id: str,
        index,
        trajectory: QueryTrajectory,
        k: int,
        queue_depth: int,
        max_step: float = math.inf,
        max_object_step: float = 0.0,
    ):
        super().__init__(client_id, queue_depth)
        self.index = index
        self.trajectory = trajectory
        self.span_end = trajectory.time_span.high
        self.engine = MovingKNN(
            index, k, max_step=max_step, max_object_step=max_object_step
        )
        self.prediction_cost = QueryCost()

    def _point(self, tick: Tick) -> Tuple[float, ...]:
        return self.trajectory.window_at(tick.end).center

    def _frontiers(self, tick: Tick):
        yield self.index.tree, knn_frontier_pages(
            self.index,
            tick.end,
            self._point(tick),
            self.engine.prune_bound,
            cost=self.prediction_cost,
        )

    def serve(self, tick: Tick) -> Optional[TickResult]:
        if not self.will_serve(tick):
            return None
        results = self.engine.query(tick.end, self._point(tick))
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode="knn",
            items=(),
            neighbors=tuple(
                KNNAnswer(rec, dist) for rec, dist in results
            ),
            k=self.engine.k,
        )


class JoinSession(ClientSession):
    """A moving-join client: all object pairs within δ during each tick.

    The join is population-wide (the trajectory only scopes the
    session's lifetime), evaluated per tick by a synchronous pair
    traversal (:func:`~repro.core.snapshot_distance_join`) over the
    whole tick interval — deliberately unclipped to any shard's
    sub-population so per-shard answers stay comparable.  Answers are
    normalized (sides swapped into key order — the sub-δ interval is
    bit-symmetric under operand swap) and sorted by unordered pair key,
    so any two evaluations over the same record set agree byte for byte
    and a sharded merge is a plain key dedup.
    """

    kind = "join"

    def __init__(
        self,
        client_id: str,
        index,
        trajectory: QueryTrajectory,
        delta: float,
        queue_depth: int,
    ):
        if delta < 0:
            raise ServerError("join distance must be non-negative")
        super().__init__(client_id, queue_depth)
        self.index = index
        self.trajectory = trajectory
        self.span_end = trajectory.time_span.high
        self.delta = delta
        self.cost = QueryCost()

    def serve(self, tick: Tick) -> Optional[TickResult]:
        if not self.will_serve(tick):
            return None
        found = snapshot_distance_join(
            self.index,
            self.index,
            Interval(tick.start, tick.end),
            self.delta,
            cost=self.cost,
        )
        answers = []
        for a, b, interval in found:
            if b.key < a.key:
                a, b = b, a
            answers.append(JoinAnswer(a, b, interval))
        answers.sort(key=lambda ans: ans.key)
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode="join",
            items=(),
            pairs=tuple(answers),
        )

    @property
    def logical_reads(self) -> int:
        return self.cost.internal_reads + self.cost.leaf_reads


class AggregateSession(ClientSession):
    """A windowed-aggregate client: the visible-object count timeline.

    One exact PDQ traversal feeds a live set of answer items keyed by
    segment and visibility component; each tick reports the items
    visible during the tick and the piecewise-constant count timeline
    over it
    (:func:`~repro.core.count_timeline`'s right-open rule).  Carrying
    the contributing items alongside the timeline is what makes the
    sharded merge exact: per-shard timelines cannot be summed (replicas
    double-count), but the deduplicated union of per-shard items recounts
    to the unsharded timeline.  Never shed: the timeline is derived from
    exact visibility intervals and a δ-inflated superset would corrupt
    the counts.
    """

    kind = "aggregate"

    def __init__(
        self,
        client_id: str,
        index,
        trajectory: QueryTrajectory,
        queue_depth: int,
        track_updates: bool = True,
        fault_budget: Optional[int] = None,
    ):
        super().__init__(client_id, queue_depth)
        self.index = index
        self.trajectory = trajectory
        self.span_end = trajectory.time_span.high
        self.engine = PDQEngine(
            index,
            trajectory,
            track_updates=track_updates,
            fault_budget=fault_budget,
        )
        # One entry per visibility component: a segment that leaves and
        # re-enters a bending observer's window is live once per stay.
        self._live: Dict[Tuple[Tuple[int, int], float], AnswerItem] = {}

    def _horizon(self, tick: Tick) -> float:
        return min(tick.end, self.span_end)

    def _frontiers(self, tick: Tick):
        yield self.index.tree, self.engine.frontier_pages(self._horizon(tick))

    def serve(self, tick: Tick) -> Optional[TickResult]:
        if not self.will_serve(tick):
            return None
        horizon = self._horizon(tick)
        for item in self.engine.window(tick.start, horizon):
            self._live[(item.record.key, item.visibility.low)] = item
        gone = [
            key
            for key, item in self._live.items()
            if item.visibility.high < tick.start
        ]
        for key in gone:
            del self._live[key]
        span = Interval(tick.start, horizon)
        relevant = []
        for item in self._live.values():
            visible = item.visibility.intersect(span)
            if not visible.is_empty and visible.length > 0.0:
                relevant.append(item)
        relevant.sort(key=lambda item: (item.record.key, item.visibility.low))
        timeline = count_timeline(relevant, span)
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode="aggregate",
            items=tuple(relevant),
            aggregate=tuple(timeline),
            covers_until=horizon,
            degraded=getattr(self.engine, "degraded", False),
        )


class AutoSession(ClientSession):
    """An auto-mode client: the Sect. 4 mode hand-off session.

    ``path`` maps a tick-boundary time to the observer's window centre;
    the broker observes the session once per tick at the tick's end.
    Teleports and PDQ/NPDQ hand-offs happen inside
    :class:`~repro.core.DynamicQuerySession` exactly as they would for a
    privately driven session.

    Both trees contribute to the shared scan's batch phase: the live
    predictive engine's priority-queue frontier over the native tree,
    and — while no predictive engine is live — the dual-tree pages of
    the frame the inner session is about to pose
    (:meth:`~repro.core.DynamicQuerySession.npdq_frontier_pages` at the
    tick's end), enumerated by its read-only prediction walk.  A first
    frame and a teleport contribute no dual pages (the inner session
    resets its NPDQ memory before evaluating them, so there is nothing
    to walk against); batching resumes on the very next frame.

    ``route_refresh > 0`` enables *ghost frames*: before evaluating a
    tick, the session proves the frame query can match nothing — its
    geometric cover (actual windows, plus the predicted trajectory's
    δ-inflated windows while a predictive engine is live) misses the
    root MBR of **both** trees.  The dual-tree check matters: a frame
    empty in native space can still make box-only dual admissions,
    which feed NPDQ's suppression memory — only double emptiness
    leaves the skipped frame without a trace on later answers.  A
    proven-empty frame is observed with ``assume_empty=True`` (no index
    work, geometry state advances normally), and a *dormancy lease*
    amortizes the proof itself: when the cover inflated by
    ``route_refresh`` worth of worst-observed motion is also clear, the
    next ``route_refresh`` ticks skip even the root-page probe as long
    as each tick's cover stays inside the leased envelope and no update
    has touched either tree.  Answers are invariant — only I/O and the
    ``dormant_ticks`` metric change.
    """

    kind = "auto"

    def __init__(
        self,
        client_id: str,
        session: DynamicQuerySession,
        path: Callable[[float], Sequence[float]],
        queue_depth: int,
        route_refresh: int = 0,
    ):
        if route_refresh < 0:
            raise ServerError("route_refresh must be >= 0")
        super().__init__(client_id, queue_depth)
        self.session = session
        self.path = path
        self.prediction_cost = QueryCost()
        self.route_refresh = route_refresh
        self._last_window: Optional[Box] = None
        self._last_center: Optional[Tuple[float, ...]] = None
        self._prev_end: Optional[float] = None
        self._max_step: Optional[List[float]] = None
        self._ghost_memo: Tuple[int, bool] = (-1, False)
        self._lease_until = -1
        self._lease_cover: Optional[Box] = None
        self._lease_time: Optional[Interval] = None
        self._lease_records: Tuple[int, int] = (-1, -1)

    # -- ghost frames ------------------------------------------------------

    def _frame_geometry(self, tick: Tick) -> Tuple[Interval, Box]:
        """Time interval and spatial cover bounding this tick's frame query.

        A superset of whatever the inner session would actually query:
        the cover of the current and previous observed windows (the NPDQ
        span rule), plus — while a prediction is live — the predicted
        trajectory's windows at the frame endpoints (predictive answers
        are defined over *those*; by convexity their cover contains the
        whole swept window region).  Everything is inflated by the SPDQ
        δ, which also absorbs the window a prediction started this very
        frame would use.
        """
        center = tuple(self.path(tick.end))
        window = self.session.window_for(center)
        cover = (
            window
            if self._last_window is None
            else window.cover(self._last_window)
        )
        start = tick.start if self._prev_end is None else self._prev_end
        time = Interval(min(start, tick.end), tick.end)
        predicted = self.session.predicted_trajectory
        if predicted is not None:
            cover = cover.cover(predicted.window_at(time.low))
            cover = cover.cover(predicted.window_at(time.high))
        pad = self.session.spdq_delta
        if pad > 0.0:
            cover = cover.inflate([pad] * cover.dims)
        return time, cover

    def _index_clear(self, index, box: Box) -> bool:
        """True when ``box`` provably misses every entry of ``index``."""
        if len(index) == 0:
            return True
        tree = index.tree
        try:
            root = tree.load_node(tree.root_id, self.prediction_cost)
        except (TransientIOError, CorruptPageError):
            return False  # can't prove emptiness; evaluate normally
        return not root.mbr().overlaps(box)

    def _unreachable(self, time: Interval, cover: Box) -> bool:
        session = self.session
        native_box = Box([time] + list(cover))
        if not self._index_clear(session.native_index, native_box):
            return False
        dual_box = session.dual_index.query_box(time, cover)
        return self._index_clear(session.dual_index, dual_box)

    def _record_counts(self) -> Tuple[int, int]:
        return (len(self.session.native_index), len(self.session.dual_index))

    def _should_ghost(self, tick: Tick) -> bool:
        if self.route_refresh <= 0:
            return False
        index, flag = self._ghost_memo
        if index != tick.index:
            flag = self._decide_ghost(tick)
            self._ghost_memo = (tick.index, flag)
        return flag

    def _decide_ghost(self, tick: Tick) -> bool:
        time, cover = self._frame_geometry(tick)
        counts = self._record_counts()
        lease_cover = self._lease_cover
        lease_time = self._lease_time
        if (
            tick.index < self._lease_until
            and counts == self._lease_records
            and lease_cover is not None
            and lease_time is not None
            and lease_cover.contains_box(cover)
            and lease_time.low <= time.low
            and time.high <= lease_time.high
        ):
            return True
        self._lease_until = -1
        if not self._unreachable(time, cover):
            return False
        if self._max_step is not None:
            # Amortize the proof: if the worst observed per-tick motion
            # cannot escape an inflated envelope within route_refresh
            # ticks, grant an I/O-free lease for them.  Containment is
            # still re-checked every tick, so the envelope only gates
            # how long the root probes are skipped, never soundness.
            slack = [self.route_refresh * m for m in self._max_step]
            envelope = cover.inflate(slack)
            horizon = Interval(
                time.low, time.high + self.route_refresh * tick.duration
            )
            if self._unreachable(horizon, envelope):
                self._lease_until = tick.index + self.route_refresh
                self._lease_cover = envelope
                self._lease_time = horizon
                self._lease_records = counts
        return True

    # -- the per-tick contract ---------------------------------------------

    def _frontiers(self, tick: Tick):
        if self._should_ghost(tick):
            return
        session = self.session
        yield session.native_index.tree, session.frontier_pages(tick.end)
        yield session.dual_index.tree, session.npdq_frontier_pages(
            tick.end, tuple(self.path(tick.end)), cost=self.prediction_cost
        )

    @property
    def logical_reads(self) -> int:
        # The session folds a predictive engine's cost into its own only
        # at hand-off; count the live engine separately until then.
        cost = self.session.cost
        total = cost.internal_reads + cost.leaf_reads
        live = self.session.predictive_engine
        if live is not None:
            total += live.cost.internal_reads + live.cost.leaf_reads
        return total

    def serve(self, tick: Tick) -> Optional[TickResult]:
        center = tuple(self.path(tick.end))
        window = self.session.window_for(center)
        ghost = self._should_ghost(tick)
        report = self.session.observe(tick.end, center, assume_empty=ghost)
        if ghost:
            self.metrics.dormant_ticks += 1
        if self._last_center is not None:
            steps = [abs(c - p) for c, p in zip(center, self._last_center)]
            if self._max_step is None:
                self._max_step = steps
            else:
                self._max_step = [
                    max(m, s) for m, s in zip(self._max_step, steps)
                ]
        self._last_window = window
        self._last_center = center
        self._prev_end = tick.end
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode=report.mode.value,
            items=tuple(report.new_items),
        )

    def close(self) -> None:
        if self.state is not SessionState.CLOSED:
            self.session.close()
        super().close()
