"""Client sessions hosted by the broker.

A :class:`ClientSession` wraps one dynamic-query consumer — a raw
:class:`~repro.core.PDQEngine`, a raw :class:`~repro.core.NPDQEngine`,
or a full auto-mode :class:`~repro.core.DynamicQuerySession` — behind a
uniform per-tick interface:

* :meth:`serve` evaluates the session's slice of one tick and returns a
  :class:`TickResult` (or ``None`` when a shed session is coasting on a
  previous conservative answer);
* :meth:`frontier_demand` runs the tick's batch phase for the kinds
  that have one and names the pages it read, per index tree — for PDQ,
  aggregate and NPDQ clients the first such session's demand runs the
  :class:`PDQSweep` (resp. :class:`NPDQSweep`) that evaluates all of
  them in one page-major pass, so the sweeps' reads are the batch.  A
  kind whose pages are decided during evaluation (kNN, join, auto)
  names none and reads through the tick's held pool in :meth:`serve`;
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
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.aggregate import timeline_of, visible_part
from repro.core.joins import snapshot_distance_join
from repro.core.knn import MovingKNN
from repro.core.npdq import NPDQEngine, snapshot_block
from repro.core.pdq import PDQEngine, sweep_windows
from repro.core.query import JoinAnswer
from repro.core.results import AnswerBlock, NeighborBlock, SnapshotResult
from repro.core.session import DynamicQuerySession
from repro.core.spdq import SPDQEngine
from repro.core.trajectory import QueryTrajectory
from repro.errors import ServerError
from repro.geometry.interval import Interval
from repro.geometry.kernels import QueryBlock, TrajectoryTable
from repro.server.clock import Tick
from repro.server.metrics import ClientMetrics
from repro.storage.metrics import QueryCost

__all__ = [
    "SessionState",
    "TickResult",
    "PDQSweep",
    "NPDQSweep",
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

    ``items``, ``prefetched`` and ``neighbors`` are column blocks
    (:class:`~repro.core.results.AnswerBlock`), built into answer objects
    only when read.
    """

    index: int
    start: float
    end: float
    mode: str
    items: AnswerBlock = AnswerBlock.EMPTY
    prefetched: AnswerBlock = AnswerBlock.EMPTY
    degraded: bool = False
    covers_until: Optional[float] = None
    neighbors: NeighborBlock = NeighborBlock.EMPTY
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

        Each pair names the R-tree the pages belong to (native-space
        for the PDQ sweep, dual-time for the NPDQ sweep), so the two
        trees' page-id namespaces are never conflated.
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

    def observe_queue(self, promote_after: int) -> bool:
        """Hysteresis step after one successfully delivered shed stride
        (sheddable kinds only — nothing else is ever ``SHED``).

        Counts consecutive strides whose post-delivery queue holds at
        most one result (the client is draining as fast as the broker
        produces); ``promote_after`` such strides trigger
        :meth:`promote`.  A deep queue resets the streak — one good
        stride must not flap a still-struggling client back to exact
        service.  Returns ``True`` when this call promoted.
        """
        if self.state is not SessionState.SHED or promote_after < 1:
            return False
        if len(self.queue) <= 1:
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


class _Sweep:
    """Sessions of one broker evaluated together, once a tick.

    The first :meth:`run` of a tick evaluates every member that serves
    it — in the scheduler's batch phase that is the first member's
    :meth:`~ClientSession.frontier_demand`, without a scheduler its
    ``serve``.  Members are held weakly (each holds its sweep): the
    broker's session book owns them, and a torn-down broker's indexes
    are freed at once, not at the next cycle collection.
    """

    def __init__(self) -> None:
        self._members: List["weakref.ref[ClientSession]"] = []
        self._tick: Optional[Tick] = None
        self._stacked: tuple = ((), None)  # the serving members' trajectory tables

    def join(self, session: ClientSession) -> None:
        """Evaluate ``session`` with the other members from now on."""
        session.sweep = self  # type: ignore[attr-defined]
        self._members.append(weakref.ref(session))

    def run(self, tick: Tick) -> None:
        """Evaluate every serving member's slice of ``tick`` (once a tick)."""
        if self._tick == tick:
            return
        members = [ref() for ref in self._members]
        self._members = [
            ref for ref, s in zip(self._members, members)
            if s is not None and s.state is not SessionState.CLOSED
        ]
        self._evaluate(
            tick, [s for s in members if s is not None and s.will_serve(tick)]
        )
        self._tick = tick

    def _table(self, trajectories) -> Optional[TrajectoryTable]:
        """One table of ``trajectories``' kernel tables, restacked only
        when the serving members change."""
        tables = tuple(t.kernel_table() for t in trajectories)
        if tables != self._stacked[0]:
            self._stacked = (tables, TrajectoryTable.stack(tables) if tables else None)
        return self._stacked[1]


class PDQSweep(_Sweep):
    """The sessions of one broker whose tick is one
    :meth:`~repro.core.PDQEngine.window` call (PDQ, shed PDQ, aggregate):
    a tick's sweep evaluates every page each serving member's window will
    expand (:func:`~repro.core.pdq.sweep_windows`), and the pages loaded
    for a member are its demand."""

    def __init__(self) -> None:
        super().__init__()
        self._demand: Dict[int, List[int]] = {}  # by id(session)

    def _evaluate(self, tick: Tick, serving: List["_WindowSession"]) -> None:
        # the exact engine, or the one a shed session's SPDQ runs
        engines = [getattr(s.engine, "engine", s.engine) for s in serving]
        demand = sweep_windows(
            [(e, tick.start, s._horizon(tick)) for e, s in zip(engines, serving)],
            self._table(e.trajectory for e in engines),
        )
        self._demand = {id(s): pages for s, pages in zip(serving, demand)}

    def demand(self, session: "_WindowSession", tick: Tick) -> List[int]:
        """The pages the sweep of ``tick`` loaded for ``session``."""
        self.run(tick)
        return self._demand.get(id(session), [])


class _WindowSession(ClientSession):
    """A session whose tick is one window of its PDQ engine, served as
    a member of a :class:`PDQSweep` (a sweep of one when built alone)."""

    def _frontiers(self, tick: Tick):
        yield self.index.tree, self.sweep.demand(self, tick)

    def _window(self, tick: Tick, horizon: float) -> AnswerBlock:
        self.sweep.run(tick)
        return self.engine.window(tick.start, horizon)


class PDQSession(_WindowSession):
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
        PDQSweep().join(self)

    def will_serve(self, tick: Tick) -> bool:
        return super().will_serve(tick) and tick.index >= self._next_eval

    def _horizon(self, tick: Tick) -> float:
        """End of the stride an evaluation at ``tick`` covers."""
        return min(
            tick.start + self._shed_stride * tick.duration, self.span_end
        )

    def serve(self, tick: Tick) -> Optional[TickResult]:
        if not self.will_serve(tick):
            return None
        horizon = self._horizon(tick)
        items = self._window(tick, horizon)
        self._next_eval = tick.index + self._shed_stride
        shed = self.state is SessionState.SHED
        degraded = shed or getattr(self.engine, "degraded", False)
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode="spdq" if shed else "pdq",
            items=items,
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


class NPDQSweep(_Sweep):
    """The non-predictive sessions of one broker, evaluated together.

    A tick's sweep builds the frame of every serving member in one
    :meth:`~repro.geometry.kernels.QueryBlock.frames` call over their
    stacked trajectory tables and evaluates them in one
    :func:`~repro.core.npdq.snapshot_block` over their shared dual tree;
    :meth:`take` then hands each member its result, once.
    """

    def __init__(self) -> None:
        super().__init__()
        self._results: Dict[int, SnapshotResult] = {}  # by id(session)

    def _evaluate(self, tick: Tick, serving: List["NPDQSession"]) -> None:
        results = snapshot_block(
            [s.engine for s in serving],
            QueryBlock.frames(
                self._table(s.trajectory for s in serving), tick.start, tick.end
            ),
        ) if serving else []
        self._results = {id(s): result for s, result in zip(serving, results)}

    def take(self, session: "NPDQSession", tick: Tick) -> SnapshotResult:
        """``session``'s result of the sweep of ``tick``."""
        self.run(tick)
        try:
            return self._results.pop(id(session))
        except KeyError:
            raise ServerError(
                f"{session.client_id} has no result left in tick {tick.index}"
            ) from None


class NPDQSession(ClientSession):
    """A non-predictive client: per-tick snapshots with NPDQ memory.

    *Non-predictive* means the server cannot know the client's **next**
    frame — not the one it is serving: in the closed tick the frame of
    tick *t* has been submitted before the batch phase runs
    (:meth:`~repro.core.QueryTrajectory.frame_query` over the tick).  So
    the batch phase does not predict the session's pages, it evaluates
    the frame: the session's :class:`NPDQSweep` — every NPDQ session of
    its broker — runs one page-major sweep of the dual tree for all of
    them, and the pages it loaded are the demand :meth:`frontier_demand`
    reports.  :meth:`serve` returns the sweep's result.  A session
    built alone is a sweep of one.  The session keeps serving past the
    trajectory's span, over the clamped window.
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
        NPDQSweep().join(self)

    def _frontiers(self, tick: Tick):
        self.sweep.run(tick)
        yield self.engine.index.tree, self.engine.last_loaded_pages

    def serve(self, tick: Tick) -> Optional[TickResult]:
        result = self.sweep.take(self, tick)
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode="npdq",
            items=result.items,
            prefetched=result.prefetched,
            degraded=result.degraded,
        )


class KNNSession(ClientSession):
    """A continuous-kNN client: the k nearest objects of a moving point.

    The query point is the centre of the client trajectory's window at
    each tick's end; a :class:`~repro.core.MovingKNN` engine carries the
    previous frame's k-th distance as the next frame's pruning bound.
    The session names no batch demand: which pages a best-first pass
    reads is decided by the distances it finds on the way, so it reads
    through the tick's shared pool during the drain and piggybacks on
    whatever the batch phase brought in.

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

    def _point(self, tick: Tick) -> Tuple[float, ...]:
        return self.trajectory.window_at(tick.end).center

    def serve(self, tick: Tick) -> Optional[TickResult]:
        if not self.will_serve(tick):
            return None
        results = self.engine.query(tick.end, self._point(tick))
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode="knn",
            neighbors=NeighborBlock.of(
                ((rec.object_id, rec.seq, dist) for rec, dist in results),
                (rec for rec, _ in results),
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
            pairs=tuple(answers),
        )

    @property
    def logical_reads(self) -> int:
        return self.cost.internal_reads + self.cost.leaf_reads


class AggregateSession(_WindowSession):
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
        # (object id, seq, low) -> (answer row, record)
        self._live: Dict[Tuple[int, int, float], tuple] = {}
        PDQSweep().join(self)

    def _horizon(self, tick: Tick) -> float:
        return min(tick.end, self.span_end)

    def serve(self, tick: Tick) -> Optional[TickResult]:
        if not self.will_serve(tick):
            return None
        horizon = self._horizon(tick)
        found = self._window(tick, horizon)
        for row, record in zip(found.rows, found.records):
            self._live[row[:3]] = (row, record)
        gone = [key for key, (row, _) in self._live.items() if row[3] < tick.start]
        for key in gone:
            del self._live[key]
        relevant = [  # by (key, low)
            self._live[key]
            for key in sorted(self._live)
            if visible_part(*self._live[key][0][2:], tick.start, horizon)
        ]
        rows = [row for row, _ in relevant]
        timeline = timeline_of((row[2:] for row in rows), tick.start, horizon)
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode="aggregate",
            items=AnswerBlock.of(rows, (record for _, record in relevant)),
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

    The session names no batch demand: :meth:`serve` evaluates every
    frame during the drain — the predictive engine over the native tree,
    snapshot and non-predictive frames over the dual tree — reading
    through the tick's held pool like a kNN session.
    """

    kind = "auto"

    def __init__(
        self,
        client_id: str,
        session: DynamicQuerySession,
        path: Callable[[float], Sequence[float]],
        queue_depth: int,
    ):
        super().__init__(client_id, queue_depth)
        self.session = session
        self.path = path

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
        report = self.session.observe(tick.end, self.path(tick.end))
        return TickResult(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            mode=report.mode.value,
            items=report.new_items,
        )

    def close(self) -> None:
        if self.state is not SessionState.CLOSED:
            self.session.close()
        super().close()
