"""The query broker: many clients, one index, one writer.

:class:`QueryBroker` is the serving loop the paper's architecture
implies but never spells out: N concurrent observers each running a
dynamic query over the *same* motion-segment population, fed by a single
update writer.  Per tick of the :class:`~repro.server.clock.SimulatedClock`
the broker:

1. applies every due update through the
   :class:`~repro.server.dispatcher.UpdateDispatcher` (the writer runs
   strictly *between* ticks, so readers always see a frozen index);
2. runs the :class:`~repro.server.scheduler.SharedScanScheduler` batch
   phase, which is the tick's sweeps: the
   :class:`~repro.server.session.PDQSweep` evaluates every PDQ and
   aggregate client's window over the native tree and the
   :class:`~repro.server.session.NPDQSweep` every NPDQ client's frame
   over the dual tree, each page loaded once for all its readers; kNN,
   join and auto clients name nothing and read through the held pools
   during the drain;
3. serves each session **in registration order** (the determinism the
   answer-invariance property test depends on); the scheduler holds the
   pools until the tick ends, so a page one client fetched mid-tick is a
   hit for every later one;
4. delivers results into bounded per-client queues; a client whose
   queue overflows is *shed* — its exact PDQ engine is swapped for a
   δ-inflated SPDQ evaluated every ``shed_stride`` ticks — rather than
   allowed to stall the tick for everyone else;
5. folds physical/logical read deltas, update counts and simulated
   latency (one unit per physical read plus the disk's injected
   latency) into :class:`~repro.server.metrics.ServerMetrics`.

:class:`BrokerCore` is what this leaf broker and the sharded front-end
(:class:`~repro.server.shard.MultiplexBroker`) do identically: the
session book, admission control (a hard ``max_clients`` cap —
:class:`~repro.errors.AdmissionError` once full, closing a client frees
its slot), registration through the kind table
(:mod:`repro.server.kinds`), the planner front door, the
deliver→shed/promote policy and the report.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis import runtime as _sanitize
from repro.core.query import QuerySpec
from repro.errors import AdmissionError, ServerError
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.server.clock import SimulatedClock, Tick
from repro.server.dispatcher import UpdateDispatcher, UpdateOp
from repro.server.kinds import KINDS, QueryKind, kind_named, registration_of
from repro.server.metrics import ServerMetrics, TickMetrics
from repro.server.planner import IndexStats, plan_query
from repro.server.scheduler import SharedScanScheduler
from repro.server.session import ClientSession, NPDQSweep, PDQSweep, SessionState

__all__ = ["ServerConfig", "BrokerCore", "QueryBroker"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one broker instance.

    ``shed_delta``/``shed_stride`` parameterise slow-client degradation:
    the shed client's SPDQ window is inflated by δ = ``shed_delta`` and
    evaluated once per ``shed_stride`` ticks, each evaluation covering
    the whole stride conservatively.

    ``promote_after`` parameterises the reverse path: a shed client
    whose post-delivery queue holds at most one result for
    ``promote_after`` consecutive strides is promoted back to an exact
    per-tick PDQ engine.  ``promote_after=0`` (the default) disables
    promotion — once shed, always shed.
    """

    max_clients: int = 64
    queue_depth: int = 8
    shed_delta: float = 0.5
    shed_stride: int = 4
    promote_after: int = 0
    shared_scan: bool = True
    buffer_capacity: int = 1024
    # Largest join distance this server must answer correctly.  Sharded
    # front-ends inflate their routing boxes by half of it (the midpoint
    # of any sub-δ pair is within δ/2 of both sides, so inflating entry
    # boxes by δ/2 co-locates every answering pair on some shard);
    # a join registration then rejects deltas beyond what routing covers.
    join_delta: float = 0.0

    def __post_init__(self) -> None:
        if self.max_clients < 1:
            raise ServerError("max_clients must be >= 1")
        if self.queue_depth < 1:
            raise ServerError("queue_depth must be >= 1")
        if self.shed_delta < 0:
            raise ServerError("shed_delta must be >= 0")
        if self.shed_stride < 1:
            raise ServerError("shed_stride must be >= 1")
        if self.promote_after < 0:
            raise ServerError("promote_after must be >= 0")
        if self.buffer_capacity < 1:
            raise ServerError("buffer_capacity must be >= 1")
        if self.join_delta < 0:
            raise ServerError("join_delta must be >= 0")


class BrokerCore:
    """What every serving tier does the same way.

    A tier supplies four things: ``shard_count``, ``_route`` (the shards
    a registration lands on), ``_open`` (build the session there) and
    ``_index_stats`` (what the planner may know); a sharded tier also
    reports per shard through ``_shard_reports``.
    """

    shard_count = 1

    def __init__(
        self,
        clock: Optional[SimulatedClock],
        config: Optional[ServerConfig],
        durability: Optional[object],
        has_dual: bool,
    ):
        self.clock = clock or SimulatedClock()
        self.config = config or ServerConfig()
        # Duck-typed durability driver (``begin_tick``/``commit_tick``),
        # e.g. repro.storage.file.TickDurability wired in by the CLI —
        # the serving layer itself never touches a storage backend.
        self.durability = durability
        self.metrics = ServerMetrics()
        self._sessions: "OrderedDict[str, ClientSession]" = OrderedDict()
        self._has_dual = has_dual

    # -- the session book --------------------------------------------------

    @property
    def sessions(self) -> List[ClientSession]:
        """Live sessions in registration order."""
        return [
            s
            for s in self._sessions.values()
            if s.state is not SessionState.CLOSED
        ]

    def session(self, client_id: str) -> ClientSession:
        """Look up one session (KeyError when never registered)."""
        return self._sessions[client_id]

    def close_client(self, client_id: str) -> None:
        """Close one session, freeing its admission slot."""
        self._sessions[client_id].close()

    # -- registration / admission control ----------------------------------

    def _check_admission(self, kind: QueryKind, client_id: str) -> None:
        if kind.needs_dual and not self._has_dual:
            raise ServerError(
                f"broker has no dual-time index for {kind.name} clients"
            )
        if len(self.sessions) >= self.config.max_clients:
            self.metrics.rejections += 1
            raise AdmissionError(
                f"server full ({self.config.max_clients} clients); "
                f"rejected {client_id!r}"
            )
        if client_id in self._sessions and (
            self._sessions[client_id].state is not SessionState.CLOSED
        ):
            raise ServerError(f"client id {client_id!r} already registered")

    def _admit(
        self,
        kind: QueryKind,
        client_id: str,
        params: Dict[str, Any],
        route: Sequence[int],
    ) -> ClientSession:
        self._check_admission(kind, client_id)
        session = self._open(kind, client_id, params, route)
        self._sessions[client_id] = session
        self.metrics.admissions += 1
        self.metrics.clients[client_id] = session.metrics
        return session

    def register(self, kind: str, client_id: str, **params) -> ClientSession:
        """Admit a client of any kind in :data:`~repro.server.kinds.KINDS`;
        ``params`` are the kind's registration parameters."""
        row = kind_named(kind)
        return self._admit(row, client_id, params, self._route(row, params))

    def register_query(
        self, client_id: str, spec: QuerySpec, **kwargs
    ) -> ClientSession:
        """Admit a client from a declarative :class:`~repro.core.QuerySpec`.

        The planner sees the tier's index statistics and the very route
        the registration then uses, so the recorded
        :class:`~repro.server.planner.QueryPlan` (``metrics.plans``, for
        the predicted-versus-actual lines of the report) names the
        fan-out that was actually registered.  Extra keyword arguments
        join the registration parameters.
        """
        kind, params = registration_of(spec)
        params.update(kwargs)
        route = self._route(kind, params)
        plan = plan_query(
            spec,
            self._index_stats(),
            total_shards=self.shard_count,
            route=route,
        )
        session = self._admit(kind, client_id, params, route)
        self.metrics.plans[client_id] = plan
        return session

    def register_auto(self, client_id, trajectory, half_extents, **kwargs):
        """Admit an auto-mode client (Sect. 4 mode hand-off session) by
        trajectory or, in-process, by any ``time -> centre`` callable.

        The one by-kind form kept: auto has no
        :class:`~repro.core.QuerySpec`, so :meth:`register_query` cannot
        admit it."""
        return self.register(
            "auto", client_id, trajectory=trajectory,
            half_extents=half_extents, **kwargs,
        )

    # -- slow-client policy ------------------------------------------------

    def _deliver(self, session: ClientSession, result) -> None:
        """Queue ``result``; shed a sheddable client whose queue
        overflowed, and count a shed one's shallow strides towards
        promotion."""
        ok = session.deliver(result)
        if not KINDS[session.kind].sheddable:
            return
        if not ok:
            if session.state is SessionState.ACTIVE:
                session.shed(self.config.shed_delta, self.config.shed_stride)
                session.metrics.shed_events += 1
                self.metrics.shed_events += 1
        elif session.observe_queue(self.config.promote_after):
            session.metrics.promote_events += 1
            self.metrics.promote_events += 1

    # -- the update stream, the loop, the report ---------------------------

    #: "One insert per segment, due at its start time" needs nothing of
    #: its receiver but ``submit``, so every tier borrows the
    #: dispatcher's definition rather than repeating it.
    submit_inserts = UpdateDispatcher.submit_inserts

    def run(self, ticks: int) -> List[TickMetrics]:
        """Serve ``ticks`` consecutive ticks."""
        return [self.run_tick() for _ in range(ticks)]

    def _shard_reports(self) -> Sequence[Dict[str, Any]]:
        return ()

    def summary(self) -> str:
        """The global rollup, plus one line per shard on a sharded tier."""
        lines = [self.metrics.summary()]
        reports = self._shard_reports()
        if reports:
            lines.append("per-shard:")
        for shard_id, m in enumerate(reports):
            lines.append(
                f"  shard {shard_id:<2} "
                f"records={m['records']:<6} "
                f"clients={m['clients']:<3} "
                f"physical={m['physical_reads']:<6} "
                f"({m['reads_per_tick']:.1f}/tick) "
                f"logical={m['logical_reads']:<6} "
                f"updates={m['updates_applied']}"
            )
        return "\n".join(lines)


class QueryBroker(BrokerCore):
    """Shared-execution server over one native-space (and optionally one
    dual-time) index — the leaf tick engine of every tier.

    Parameters
    ----------
    native:
        The native-space index (PDQ/SPDQ/auto clients, writer target).
    dual:
        Optional dual-time index over the same population (NPDQ and auto
        clients; mirrored writer target).
    clock:
        Tick source; a fresh period-0.1 clock by default.
    config:
        Serving tunables; defaults are benchmark-friendly.
    durability:
        Optional duck-typed ``begin_tick``/``commit_tick`` driver.
    """

    def __init__(
        self,
        native: NativeSpaceIndex,
        dual: Optional[DualTimeIndex] = None,
        clock: Optional[SimulatedClock] = None,
        config: Optional[ServerConfig] = None,
        durability: Optional[object] = None,
    ):
        super().__init__(clock, config, durability, has_dual=dual is not None)
        self.native = native
        self.dual = dual
        self.dispatcher = UpdateDispatcher(native, dual)
        self.scheduler: Optional[SharedScanScheduler] = None
        if self.config.shared_scan:
            self.scheduler = SharedScanScheduler(
                native.tree,
                self.config.buffer_capacity,
                extra_trees=(dual.tree,) if dual is not None else (),
            )
        #: every NPDQ session of this broker, evaluated in one sweep a tick
        self.npdq_sweep = NPDQSweep()
        #: every PDQ and aggregate session, evaluated page-major a tick
        self.pdq_sweep = PDQSweep()
        self._logical_seen: Dict[str, int] = {}

    # -- what this tier supplies to BrokerCore -----------------------------

    def _route(self, kind: QueryKind, params) -> Sequence[int]:
        return (0,)

    def _open(self, kind, client_id, params, route) -> ClientSession:
        session = kind.session(self, client_id, **params)
        self._logical_seen[client_id] = session.logical_reads
        return session

    def _index_stats(self) -> IndexStats:
        native = self.native
        return IndexStats.estimate(
            len(native), native.domain, native.dims, native.page_size
        )

    def submit(self, op: UpdateOp) -> None:
        """Queue one insert/expire for the single writer."""
        self.dispatcher.submit(op)

    # -- the serving loop ----------------------------------------------------

    def _physical_reads(self) -> int:
        reads = self.native.tree.disk.stats.reads
        if self.dual is not None and self.dual.tree.disk is not self.native.tree.disk:
            reads += self.dual.tree.disk.stats.reads
        return reads

    def _sim_latency(self) -> float:
        lat = self.native.tree.disk.stats.sim_latency
        if self.dual is not None and self.dual.tree.disk is not self.native.tree.disk:
            lat += self.dual.tree.disk.stats.sim_latency
        return lat

    def run_tick(self, tick: Optional[Tick] = None) -> TickMetrics:
        """Serve every live session for one tick.

        With no argument the broker advances its own clock; a
        multiplexing front-end (:class:`~repro.server.shard.MultiplexBroker`)
        instead passes the master clock's tick so every shard broker
        serves the exact same boundary.
        """
        if tick is None:
            tick = self.clock.next_tick()
        live = self.sessions

        if self.durability is not None:
            # Stamp the tick onto the redo logs *before* the dispatcher's
            # single-writer window so every update transaction applied
            # this frame carries the tag replay will cut on.
            self.durability.begin_tick(tick)

        crashes_before = self.dispatcher.stats.crashes_recovered
        updates = self.dispatcher.apply_until(
            tick.start, live_queries=bool(live)
        )

        reads_before = self._physical_reads()
        latency_before = self._sim_latency()

        serving = [s for s in live if s.will_serve(tick)]
        batched_pages = 0
        piggybacked = 0
        served = 0
        try:
            if self.scheduler is not None:
                batch = self.scheduler.begin_tick(serving, tick)
                batched_pages = batch.fetched
                piggybacked = batch.piggybacked
            for session in serving:
                result = session.serve(tick)
                if result is None:
                    continue
                served += 1
                self._deliver(session, result)
        finally:
            # A frontier poll or a session that raises must not leave
            # held pools and the scheduler's open tick behind to fail
            # every later tick.
            if self.scheduler is not None:
                self.scheduler.end_tick()
        _sanitize.tick_end(self)

        if self.durability is not None:
            # Group commit: one TICK record + fsync per tree makes this
            # frame's update transactions durable.  The hook's pre-commit
            # callback (the CLI's answer-stream flush) runs first, so a
            # tick marked durable always has its answers on disk — the
            # invariant restart truncation relies on.
            self.durability.commit_tick(tick)

        logical = 0
        for session in live:
            seen = self._logical_seen.get(session.client_id, 0)
            now = session.logical_reads
            logical += now - seen
            session.metrics.logical_reads += now - seen
            self._logical_seen[session.client_id] = now

        physical = self._physical_reads() - reads_before
        latency = physical + self._sim_latency() - latency_before
        self.metrics.writer_crashes += (
            self.dispatcher.stats.crashes_recovered - crashes_before
        )
        self.metrics.updates_deferred = self.dispatcher.stats.expires_deferred
        self.metrics.updates_dropped = self.dispatcher.stats.updates_dropped

        tick_metrics = TickMetrics(
            index=tick.index,
            start=tick.start,
            end=tick.end,
            clients_served=served,
            physical_reads=physical,
            logical_reads=logical,
            batched_pages=batched_pages,
            piggybacked_reads=piggybacked,
            updates_applied=updates,
            latency=latency,
        )
        self.metrics.record_tick(tick_metrics)
        return tick_metrics

    def quiesce(self) -> int:
        """Close every session and flush deferred expires.

        Returns the number of expire ops physically applied.  Only safe
        once no client holds a live priority queue, which closing
        enforces.
        """
        for session in list(self._sessions.values()):
            session.close()
        return self.dispatcher.flush_expired()
