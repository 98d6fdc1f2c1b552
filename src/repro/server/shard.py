"""Sharded index serving: ShardPlan, ShardRouter, MultiplexBroker.

One :class:`~repro.server.broker.QueryBroker` owns one native-space /
dual-time index pair — one machine's worth of index.  This module scales
the serving layer past that by partitioning the *spatial* domain into K
grid shards, each owning its own index pair, buffer pool, shared-scan
scheduler and single-writer update dispatcher, and multiplexing every
client over the shards its query can touch:

* :class:`ShardPlan` — the deterministic grid partition.  Cells are
  closed boxes tiling the spatial extent; adjacent cells share their
  boundary faces (intervals are closed), so any non-empty overlap
  region between a query and a segment lies inside at least one cell.
* :class:`ShardRouter` — assignment and routing.  A motion segment is
  *replicated* into every shard whose cell overlaps its spatial
  bounding box (inflated by the index uncertainty, so entry boxes are
  covered too); a client is routed at registration time by its kind's
  route rule (:mod:`repro.server.kinds`): the spatial cover of its
  whole trajectory (plus the shed δ-slack for PDQ clients, whose SPDQ
  fallback inflates windows), or every shard.
* :class:`ShardBackend` — one shard as the front-end drives it: load,
  register, submit, run a tick, quiesce, report.  :class:`IndexShard`
  is the in-process backend (a leaf broker in this interpreter);
  :mod:`repro.server.remote` supplies the one behind a pipe.
* :class:`MultiplexBroker` — the one front-end.  One master clock
  drives every backend through the same tick; each shard batches its
  own sub-sessions' frontier demand through its own
  :class:`~repro.server.scheduler.SharedScanScheduler`; the front-end
  then merges each client's per-shard results by the kind's merge rule
  (replicas of a boundary segment dedup), delivers one merged
  :class:`~repro.server.session.TickResult` per client, and folds the
  per-shard :class:`~repro.server.metrics.TickMetrics` into the usual
  client/tick/global rollup.

**Answer invariance** (the correctness spine, property-tested): for any
K, each client's per-tick answer set equals the unsharded broker's.
The argument: exact segment tests are pure geometry (shard-independent);
a client's routed shard set covers every window its queries can pose,
so each answer's witness region lands in some routed shard holding the
(replicated) segment; per-client routing is *static*, so each routed
shard sees the client's full query series and its NPDQ suppression
memory evolves exactly as the unsharded engine's; and per-shard
operation clocks order entry timestamps against query clocks the same
way the unsharded clock does.  Shed/promote transitions are applied to
every sub-session in lockstep by the front-end, so strided SPDQ
evaluations stay aligned across shards.

Slow-client shedding therefore lives *only* at the front-end: shard
brokers are configured with effectively unbounded queues (drained every
tick by the merge phase) and promotion disabled, so they never degrade
a sub-session on their own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.core.trajectory import QueryTrajectory
from repro.errors import ServerError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.index.dualtime import DualTimeIndex
from repro.index.facade import widen_domain
from repro.index.nsi import NativeSpaceIndex
from repro.motion.segment import MotionSegment, SegmentTable
from repro.server.broker import BrokerCore, QueryBroker, ServerConfig
from repro.server.clock import SimulatedClock, Tick
from repro.server.dispatcher import UpdateOp
from repro.server.kinds import QueryKind, merge_results
from repro.server.metrics import TickMetrics, merge_tick_metrics
from repro.server.planner import IndexStats
from repro.server.session import ClientSession, SessionState

# The benchmark's outside-in tracer times the planner through a module
# global of every tier's module; this tier plans in BrokerCore.
from repro.server.planner import plan_query  # noqa: F401

__all__ = [
    "ShardPlan",
    "ShardRouter",
    "ShardTick",
    "ShardBackend",
    "IndexShard",
    "MuxClientSession",
    "MultiplexBroker",
    "merge_results",
]

#: Shard brokers never shed on their own: the front-end drains every
#: sub-session queue each tick, so this depth is never approached.
_SHARD_QUEUE_DEPTH = 1 << 20

#: Rows routed per kernel call: population-sized arrays freed while the
#: trees grow raised ``spread_mux2``'s peak RSS by 2–4 % (EXPERIMENTS.md,
#: "A population moves as columns"); a chunk's die before any tree exists.
_ROUTE_CHUNK = 2048


def _grid_shape(shards: int, dims: int) -> List[int]:
    """Per-axis cell counts whose product is ``shards``.

    Prime factors are assigned largest-first to the axis with the
    smallest running count (ties to the lowest axis), so 4 shards in 2-D
    become a 2x2 grid, 6 a 3x2, 8 a 4x2 — near-square, deterministic.
    """
    counts = [1] * dims
    factors: List[int] = []
    n, p = shards, 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    if n > 1:
        factors.append(n)
    for factor in sorted(factors, reverse=True):
        axis = min(range(dims), key=lambda a: (counts[a], a))
        counts[axis] *= factor
    return counts


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of the spatial domain into grid cells.

    ``cells[i]`` is shard ``i``'s closed spatial box.  Adjacent cells
    share boundary faces, so a box lying exactly on a cell boundary
    overlaps both neighbours — the replication rule this plan's users
    rely on for coverage.
    """

    cells: Tuple[Box, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ServerError("a shard plan needs at least one cell")
        dims = self.cells[0].dims
        if any(c.dims != dims for c in self.cells):
            raise ServerError("shard cells must share dimensionality")

    @classmethod
    def grid(
        cls,
        low: Sequence[float],
        high: Sequence[float],
        shards: int,
    ) -> "ShardPlan":
        """A near-square grid of ``shards`` cells over ``[low, high]``."""
        if shards < 1:
            raise ServerError("shard count must be >= 1")
        if len(low) != len(high):
            raise ServerError("low and high dimensionalities differ")
        if any(hi <= lo for lo, hi in zip(low, high)):
            raise ServerError("shard domain must have positive extent")
        dims = len(low)
        counts = _grid_shape(shards, dims)
        widths = [(hi - lo) / n for lo, hi, n in zip(low, high, counts)]
        cells = []
        for idx in itertools.product(*(range(n) for n in counts)):
            cells.append(
                Box.from_bounds(
                    [lo + i * w for lo, i, w in zip(low, idx, widths)],
                    [lo + (i + 1) * w for lo, i, w in zip(low, idx, widths)],
                )
            )
        return cls(tuple(cells))

    @property
    def shard_count(self) -> int:
        """Number of shards (= cells)."""
        return len(self.cells)

    @property
    def dims(self) -> int:
        """Spatial dimensionality of the cells."""
        return self.cells[0].dims

    def shards_for_box(self, spatial: Box) -> List[int]:
        """Ids of every shard whose cell overlaps ``spatial``.

        A box outside the plan's domain (or empty) overlaps no cell;
        the conservative fallback routes it to *every* shard — correct,
        never silently unindexed or unanswered.
        """
        hits = [
            i for i, cell in enumerate(self.cells) if cell.overlaps(spatial)
        ]
        return hits if hits else list(range(len(self.cells)))


class ShardRouter:
    """Maps segments and queries onto a :class:`ShardPlan`'s shards.

    ``inflate`` widens a segment's spatial box by the index uncertainty
    before matching cells, so a shard holds every segment whose *entry
    box* (what box-only NPDQ admissions see) can overlap its cell.
    """

    def __init__(self, plan: ShardPlan):
        self.plan = plan
        self._cells = [c.lows for c in plan.cells], [c.highs for c in plan.cells]

    def route(
        self, segments: kernels.SegmentBatch, inflate: float = 0.0
    ) -> List[List[int]]:
        """Per shard, the rows of ``segments`` it must hold, in row order.

        The one routing rule: a row goes to every shard whose cell
        overlaps its spatial extent grown by ``inflate``, and a row that
        overlaps no cell (outside the plan's domain) to every shard.
        """
        return kernels.route_rows(segments, inflate, *self._cells)

    def shards_for_segment(
        self, segment: MotionSegment, inflate: float = 0.0
    ) -> List[int]:
        """Every shard that must hold (a replica of) ``segment``: the
        batch of one of :meth:`route`, so updates go where loads went."""
        rows = self.route(kernels.SegmentBatch.of([segment.segment]), inflate)
        return [shard_id for shard_id, hit in enumerate(rows) if hit]

    def shards_for_trajectory(
        self, trajectory: QueryTrajectory, slack: float = 0.0
    ) -> List[int]:
        """Every shard the trajectory's windows can ever overlap.

        Windows interpolate linearly between key snapshots with fixed
        half-extents, so the cover of the key-snapshot windows covers
        every interpolated window — and therefore every PDQ trapezoid
        and every NPDQ frame cover derived from the trajectory.
        ``slack`` inflates the cover (pass the broker's ``shed_delta``
        for PDQ clients: a shed client's SPDQ windows grow by δ).
        """
        keys = trajectory.key_snapshots
        cover = keys[0].window
        for key in keys[1:]:
            cover = cover.cover(key.window)
        if slack > 0:
            cover = cover.inflate([slack] * cover.dims)
        return self.plan.shards_for_box(cover)


class ShardTick(NamedTuple):
    """What one shard reports for one master tick."""

    tick: TickMetrics
    writer_crashes: int
    updates_deferred: int
    updates_dropped: int


class ShardBackend(Protocol):
    """One shard as :class:`MultiplexBroker` drives it.

    The front-end issues every call below through its ``_gather``; an
    in-process backend returns the reply, a backend behind a pipe
    returns an awaitable its front-end resolves concurrently with the
    other shards'.  A sub-session (what :meth:`register` returns) is
    anything with ``kind``, ``metrics``, ``logical_reads``, ``poll``,
    ``shed``, ``promote`` and ``close`` — a
    :class:`~repro.server.session.ClientSession` or a proxy for one.
    """

    has_dual: bool
    #: widest index uncertainty on the shard (segment replication slack)
    uncertainty: float
    #: spatial dimensions and page size of the shard's indexes
    dims: int
    page_size: int

    def load(self, table: SegmentTable) -> Any:
        """Bulk-load this shard's bucket into its empty indexes."""

    def register(
        self, kind: str, client_id: str, params: Dict[str, Any]
    ) -> Any:
        """Admit one sub-session; replies with it."""

    def submit(self, op: UpdateOp) -> Any:
        """Queue one insert/expire for the shard's writer."""

    def run_tick(self, tick: Tick) -> Any:
        """Serve one master tick; replies with a :class:`ShardTick`."""

    def quiesce(self) -> Any:
        """Close every sub-session; replies with the expires flushed."""

    def report(self) -> Any:
        """Replies with the counters of the shard's summary line."""


def leaf_config(config: ServerConfig) -> ServerConfig:
    """The config a shard's leaf broker runs with: the front-end's,
    minus queue bounds and promotion, which exist only at the front."""
    return replace(config, queue_depth=_SHARD_QUEUE_DEPTH, promote_after=0)


class IndexShard:
    """The in-process :class:`ShardBackend`: an index pair and the leaf
    broker serving it, on a private copy of the master clock."""

    def __init__(
        self,
        shard_id: int,
        native: NativeSpaceIndex,
        dual: Optional[DualTimeIndex],
        clock: SimulatedClock,
        config: ServerConfig,
    ):
        self.shard_id = shard_id
        self.native = native
        self.dual = dual
        self.broker = QueryBroker(
            native,
            dual=dual,
            clock=SimulatedClock(start=clock.start, period=clock.period),
            config=config,
        )
        self.has_dual = dual is not None
        self.uncertainty = max(
            index.uncertainty for index in (native, dual) if index is not None
        )
        self.dims = native.dims
        self.page_size = native.page_size

    @property
    def record_count(self) -> int:
        """Segments (incl. replicas) this shard's native index holds."""
        return len(self.native)

    def load(self, table: SegmentTable) -> None:
        # Both flavours take the same rows, so auto-mode sessions see
        # one consistent population per shard.
        self.native.bulk_load(table)
        if self.dual is not None:
            self.dual.bulk_load(table)

    def register(
        self, kind: str, client_id: str, params: Dict[str, Any]
    ) -> ClientSession:
        return self.broker.register(kind, client_id, **params)

    def submit(self, op: UpdateOp) -> None:
        self.broker.submit(op)

    def run_tick(self, tick: Tick) -> ShardTick:
        tick_metrics = self.broker.run_tick(tick)
        m = self.broker.metrics
        return ShardTick(
            tick_metrics,
            m.writer_crashes,
            m.updates_deferred,
            m.updates_dropped,
        )

    def quiesce(self) -> int:
        return self.broker.quiesce()

    def report(self) -> Dict[str, Any]:
        m = self.broker.metrics
        return {
            "records": self.record_count,
            "clients": len(self.broker.sessions),
            "physical_reads": m.physical_reads,
            "reads_per_tick": m.reads_per_tick,
            "logical_reads": m.logical_reads,
            "updates_applied": m.updates_applied,
        }


class MuxClientSession(ClientSession):
    """Front-end view of one client multiplexed over several shards.

    Holds one sub-session per routed shard; the
    :class:`MultiplexBroker`'s merge phase drains the sub-sessions each
    tick and delivers one deduplicated result into this session's own
    bounded queue — which is therefore where slow-client shedding and
    the promotion hysteresis are decided.  Shed and promote fan out to
    every sub-session in lockstep so strided SPDQ schedules stay aligned
    across shards.
    """

    def __init__(
        self,
        client_id: str,
        queue_depth: int,
        parts: Sequence[Tuple[int, ClientSession]],
    ):
        super().__init__(client_id, queue_depth)
        if not parts:
            raise ServerError("a multiplexed session needs at least one shard")
        self.parts = tuple(parts)
        self.kind = self.parts[0][1].kind

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        """Ids of the shards this client is routed to."""
        return tuple(shard_id for shard_id, _ in self.parts)

    @property
    def logical_reads(self) -> int:
        return sum(sub.logical_reads for _, sub in self.parts)

    def shed(self, delta: float, stride: int) -> None:
        """Degrade every sub-session to strided SPDQ in lockstep."""
        if self.state is not SessionState.ACTIVE:
            return
        for _, sub in self.parts:
            sub.shed(delta, stride)
        self._shallow_strides = 0
        self.state = SessionState.SHED

    def promote(self) -> None:
        """Return every sub-session to exact per-tick service."""
        if self.state is not SessionState.SHED:
            return
        for _, sub in self.parts:
            sub.promote()
        self.state = SessionState.ACTIVE

    def close(self) -> None:
        for _, sub in self.parts:
            sub.close()
        super().close()


class MultiplexBroker(BrokerCore):
    """The front-end fanning clients out over K shard backends.

    Parameters
    ----------
    plan:
        The spatial partition (one shard per cell).
    native_factory, dual_factory:
        Zero-argument callables building one *empty* index per shard
        (each call must return a fresh index with its own disk and
        buffer pool).  ``dual_factory=None`` disables NPDQ/auto clients.
    clock:
        The master clock; every shard broker is driven by its ticks.
    config:
        Front-end tunables.  Shard brokers inherit them except for
        queue depth and promotion, which only exist at the front-end.
    durability:
        Optional duck-typed durability driver
        (``begin_tick``/``commit_tick``), driven at the *master* tick
        boundary: ``begin_tick`` before any shard serves, ``commit_tick``
        after the merge phase delivered every client's result.  One
        driver spans every shard's stores, so the group-commit cut
        keeps all K shards mutually consistent.  Shard brokers always
        run with ``durability=None`` — the front-end owns the tick
        transaction.
    """

    def __init__(
        self,
        plan: ShardPlan,
        native_factory: Callable[[], NativeSpaceIndex],
        dual_factory: Optional[Callable[[], DualTimeIndex]] = None,
        clock: Optional[SimulatedClock] = None,
        config: Optional[ServerConfig] = None,
        durability: Optional[object] = None,
    ):
        clock = clock or SimulatedClock()
        config = config or ServerConfig()
        shard_config = leaf_config(config)
        self._front(
            plan,
            [
                IndexShard(
                    shard_id,
                    native_factory(),
                    dual_factory() if dual_factory is not None else None,
                    clock,
                    shard_config,
                )
                for shard_id in range(plan.shard_count)
            ],
            clock,
            config,
            durability,
        )
        # An index opened from a store holds rows no load() routed here;
        # the planner sees their count, not their domain.
        self._routed = [(shard.record_count, None) for shard in self.shards]

    def _front(
        self,
        plan: ShardPlan,
        shards: Sequence[ShardBackend],
        clock: SimulatedClock,
        config: ServerConfig,
        durability: Optional[object] = None,
    ) -> None:
        """The front-end proper, over backends that already exist (a
        tier that must spawn its backends calls this once they answer)."""
        BrokerCore.__init__(
            self, clock, config, durability, has_dual=shards[0].has_dual
        )
        self.plan = plan
        self.router = ShardRouter(plan)
        self.shards = list(shards)
        self.shard_count = plan.shard_count
        #: per shard: the rows routed to it and their cover, which is
        #: all the planner knows (no sharded tier reads a tree to plan)
        self._routed: List[Tuple[int, Optional[Box]]] = [
            (0, None) for _ in self.shards
        ]
        # Replication slack: index uncertainty covers entry-box overlap,
        # plus δ/2 for joins — two segments within δ share a midpoint
        # within δ/2 of both, so inflating each segment's box by δ/2
        # guarantees every qualifying pair is co-resident on the shard
        # owning that midpoint.
        self._route_inflation = (
            shards[0].uncertainty + self.config.join_delta / 2.0
        )

    def _gather(self, calls: Iterable[Callable[[], Any]]) -> List[Any]:
        """Issue one backend call per addressed shard; replies in order."""
        return [call() for call in calls]

    # -- construction ------------------------------------------------------

    @classmethod
    def _empty(cls, plan, dims, dual, page_size, **kwargs) -> "MultiplexBroker":
        index_kwargs: Dict[str, Any] = {"dims": dims}
        if page_size is not None:
            index_kwargs["page_size"] = page_size
        return cls(
            plan,
            lambda: NativeSpaceIndex(**index_kwargs),
            (lambda: DualTimeIndex(**index_kwargs)) if dual else None,
            **kwargs,
        )

    @classmethod
    def over_segments(
        cls,
        segments: Iterable[MotionSegment],
        shards: int,
        dims: int = 2,
        dual: bool = True,
        page_size: Optional[int] = None,
        bounds: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
        **kwargs: Any,
    ) -> "MultiplexBroker":
        """Build a loaded K-shard broker over a segment population.

        The grid bounds default to the population's spatial bounding
        box; pass ``bounds=(low, high)`` to pin them (e.g. the workload
        config's data space).  Remaining keyword arguments (``clock``,
        ``config``, ...) go to the tier's constructor.
        """
        segments = list(segments)
        if bounds is None:
            if not segments:
                raise ServerError("cannot derive shard bounds from an empty population")
            box = SegmentTable.of(segments).bounding_box()
            bounds = (box.lows[1:], box.highs[1:])
        low, high = bounds
        plan = ShardPlan.grid(list(low), list(high), shards)
        broker = cls._empty(plan, dims, dual, page_size, **kwargs)
        try:
            broker.load(segments)
        except BaseException:
            broker.close()
            raise
        return broker

    def load(self, segments: Iterable[MotionSegment]) -> List[int]:
        """Bulk-load the population, replicating boundary segments.

        Routing is one kernel call per :data:`_ROUTE_CHUNK` rows
        (:meth:`ShardRouter.route`); each shard then takes its bucket, in
        population order, as one :class:`SegmentTable` for every index
        it loads.  Returns per-shard record counts.
        """
        records = list(segments)
        buckets: List[List[MotionSegment]] = [[] for _ in self.shards]
        for start in range(0, len(records), _ROUTE_CHUNK):
            chunk = records[start : start + _ROUTE_CHUNK]
            batch = kernels.SegmentBatch.of([r.segment for r in chunk])
            for bucket, rows in zip(
                buckets, self.router.route(batch, self._route_inflation)
            ):
                bucket.extend(chunk[k] for k in rows)
        tables = {
            i: SegmentTable.of(bucket) for i, bucket in enumerate(buckets) if bucket
        }
        for i, table in tables.items():
            self._note(i, len(table), table.bounding_box())
        self._gather(
            partial(self.shards[i].load, table) for i, table in tables.items()
        )
        return [len(bucket) for bucket in buckets]

    def _note(self, shard_id: int, rows: int, box: Box) -> None:
        records, domain = self._routed[shard_id]
        self._routed[shard_id] = (
            records + rows, widen_domain(domain, records, box)
        )

    def close(self) -> None:
        """Release what the backends hold outside this interpreter
        (in-process shards hold nothing)."""

    # -- what this tier supplies to BrokerCore -----------------------------

    def _route(self, kind: QueryKind, params) -> List[int]:
        return kind.route(self.router, self.config, params)

    def _open(self, kind, client_id, params, route) -> "MuxClientSession":
        subs = self._gather(
            partial(self.shards[i].register, kind.name, client_id, params)
            for i in route
        )
        return MuxClientSession(
            client_id, self.config.queue_depth, list(zip(route, subs))
        )

    def _index_stats(self) -> IndexStats:
        """Fold per-shard estimates of what was routed into one
        population view.

        Each shard's statistics come from page-layout arithmetic over the
        rows routed to it (:meth:`IndexStats.estimate`), so planning
        reads no page and every sharded tier plans alike.  Record and
        leaf-page counts sum over shards (replicas inflate them slightly
        — acceptable, the planner's decisions are categorical); the
        domain is the cover of the shard domains.
        """
        per = [
            IndexStats.estimate(records, domain, shard.dims, shard.page_size)
            for shard, (records, domain) in zip(self.shards, self._routed)
        ]
        records = sum(s.records for s in per)
        if records == 0:
            return IndexStats(0, 0, 0, None)
        domain: Optional[Box] = None
        for s in per:
            if s.domain is not None:
                domain = s.domain if domain is None else domain.cover(s.domain)
        return IndexStats(
            records=records,
            height=max(s.height for s in per),
            leaf_pages=sum(s.leaf_pages for s in per),
            domain=domain,
        )

    def _shard_reports(self) -> List[Dict[str, Any]]:
        return self._gather(shard.report for shard in self.shards)

    # -- the update stream ---------------------------------------------------

    def submit(self, op: UpdateOp) -> None:
        """Route one insert/expire to every shard holding its segment."""
        route = self.router.shards_for_segment(
            op.segment, inflate=self._route_inflation
        )
        if op.kind == "insert":
            for i in route:
                self._note(i, 1, op.segment.bounding_box())
        self._gather(partial(self.shards[i].submit, op) for i in route)

    # -- the serving loop ----------------------------------------------------

    def run_tick(self) -> TickMetrics:
        """One master tick: every shard, then the merge phase."""
        tick = self.clock.next_tick()
        if self.durability is not None:
            self.durability.begin_tick(tick)
        try:
            reports: List[ShardTick] = self._gather(
                partial(shard.run_tick, tick) for shard in self.shards
            )
        except BaseException:
            # Sessions served before a shard failed the tick have queued
            # its results; left there they would be merged with the next
            # tick's and read as a boundary mismatch.  A failed tick
            # delivers nothing.
            for session in self.sessions:
                for _, sub in session.parts:
                    sub.poll()
            raise
        served = self._merge_phase()
        m = self.metrics
        m.writer_crashes = sum(r.writer_crashes for r in reports)
        m.updates_deferred = sum(r.updates_deferred for r in reports)
        m.updates_dropped = sum(r.updates_dropped for r in reports)
        tick_metrics = merge_tick_metrics(
            [r.tick for r in reports], clients_served=served
        )
        m.record_tick(tick_metrics)
        if self.durability is not None:
            self.durability.commit_tick(tick)
        return tick_metrics

    def _merge_phase(self) -> int:
        served = 0
        for session in self.sessions:
            sub_results = [
                result
                for _, sub in session.parts
                for result in sub.poll()
            ]
            session.metrics.logical_reads = sum(
                sub.metrics.logical_reads for _, sub in session.parts
            )
            if sub_results:
                served += 1
                self._deliver(session, merge_results(sub_results))
        return served

    def quiesce(self) -> int:
        """Close every client, flush deferred expires on every shard,
        release the backends."""
        for session in list(self._sessions.values()):
            session.close()
        expired = sum(self._gather(shard.quiesce for shard in self.shards))
        self.close()
        return expired
