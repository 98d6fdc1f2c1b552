"""Per-client and global accounting for the serving layer.

The paper measures per-query I/O and CPU; a *server* additionally needs
per-tick aggregates — how many physical page reads the whole client
population cost, how much of the logical demand was absorbed by the
shared scan, how deep the per-client result queues run, and how often
slow clients were shed.  All latency figures are simulated (one
configurable unit per physical read plus the disk's injected latency),
keeping server runs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ServerError

__all__ = [
    "LatencyModel",
    "ClientMetrics",
    "TickMetrics",
    "ShardHealth",
    "ServerMetrics",
    "merge_tick_metrics",
]


@dataclass(frozen=True)
class LatencyModel:
    """Simulated cost per unit of physical work.

    ``read`` is charged per physical page read, ``cpu`` per distance
    computation; the disk's own injected latency (fault plans with
    ``latency=...``) is added on top by the broker.
    """

    read: float = 1.0
    cpu: float = 0.0


@dataclass
class ClientMetrics:
    """What one client session has cost and received so far."""

    client_id: str
    ticks_served: int = 0
    items_delivered: int = 0
    logical_reads: int = 0
    queue_peak: int = 0
    dropped_results: int = 0
    shed_events: int = 0
    promote_events: int = 0
    degraded_ticks: int = 0
    # NPDQ batch demand (zero for other session kinds): the pages the
    # tick's sweep read for the client, reported to the batch phase and
    # read — equal by construction, so nothing is ever mispredicted.
    # Kept because the worker METRICS frame carries them.
    predicted_pages: int = 0
    actual_pages: int = 0
    mispredicted_pages: int = 0


@dataclass(frozen=True)
class TickMetrics:
    """Aggregate outcome of one serving tick."""

    index: int
    start: float
    end: float
    clients_served: int
    physical_reads: int
    logical_reads: int
    batched_pages: int
    piggybacked_reads: int
    updates_applied: int
    latency: float
    # NPDQ batch demand, summed over the tick's NPDQ sessions (defaults
    # keep call sites without NPDQ clients constructible unchanged).
    predicted_pages: int = 0
    actual_pages: int = 0
    mispredicted_pages: int = 0

    @property
    def shared_hit_ratio(self) -> float:
        """Fraction of logical node reads absorbed by the shared scan."""
        if not self.logical_reads:
            return 0.0
        return 1.0 - self.physical_reads / self.logical_reads

    @property
    def mispredict_rate(self) -> float:
        """Fraction of NPDQ-loaded pages the batch phase did not name (0)."""
        if not self.actual_pages:
            return 0.0
        return self.mispredicted_pages / self.actual_pages


def merge_tick_metrics(
    ticks: Sequence[TickMetrics],
    clients_served: Optional[int] = None,
) -> TickMetrics:
    """Fold per-shard :class:`TickMetrics` for one boundary into one.

    Every additive counter is summed across shards (``latency`` too —
    the simulated shards run sequentially, so the conservative rollup is
    the sum, not the max a parallel deployment would see).
    ``clients_served`` defaults to the per-shard sum, which counts a
    client once per shard that served it; a multiplexing front-end
    passes its own deduplicated count instead.  All ticks must describe
    the same clock boundary.
    """
    if not ticks:
        raise ServerError("merge_tick_metrics needs at least one tick")
    first = ticks[0]
    if any(
        (t.index, t.start, t.end) != (first.index, first.start, first.end)
        for t in ticks
    ):
        raise ServerError("cannot merge TickMetrics from different boundaries")
    return TickMetrics(
        index=first.index,
        start=first.start,
        end=first.end,
        clients_served=(
            sum(t.clients_served for t in ticks)
            if clients_served is None
            else clients_served
        ),
        physical_reads=sum(t.physical_reads for t in ticks),
        logical_reads=sum(t.logical_reads for t in ticks),
        batched_pages=sum(t.batched_pages for t in ticks),
        piggybacked_reads=sum(t.piggybacked_reads for t in ticks),
        predicted_pages=sum(t.predicted_pages for t in ticks),
        actual_pages=sum(t.actual_pages for t in ticks),
        mispredicted_pages=sum(t.mispredicted_pages for t in ticks),
        updates_applied=sum(t.updates_applied for t in ticks),
        latency=sum(t.latency for t in ticks),
    )


@dataclass
class ShardHealth:
    """Liveness and round-trip accounting for one out-of-process worker.

    The latency fields are the *one* wall-clock measurement in the
    metrics layer: they describe real subprocess round-trips (pipe +
    scheduling + the worker's actual tick work), never the simulated
    cost model, and they have no influence on answers — the lockstep
    barrier makes tick outcomes independent of how long any worker
    took.  Everything else here is a deterministic event count.
    """

    shard_id: int
    requests: int = 0
    replies: int = 0
    timeouts: int = 0
    crashes: int = 0
    restarts: int = 0
    last_latency: float = 0.0
    total_latency: float = 0.0

    @property
    def mean_latency(self) -> float:
        """Mean request round-trip in wall-clock seconds."""
        return self.total_latency / self.replies if self.replies else 0.0


@dataclass
class ServerMetrics:
    """Rolling global counters plus per-client and per-tick views."""

    ticks: int = 0
    physical_reads: int = 0
    logical_reads: int = 0
    batched_pages: int = 0
    piggybacked_reads: int = 0
    predicted_pages: int = 0
    actual_pages: int = 0
    mispredicted_pages: int = 0
    updates_applied: int = 0
    updates_deferred: int = 0
    updates_dropped: int = 0
    writer_crashes: int = 0
    shed_events: int = 0
    promote_events: int = 0
    admissions: int = 0
    rejections: int = 0
    total_latency: float = 0.0
    clients: Dict[str, ClientMetrics] = field(default_factory=dict)
    tick_log: List[TickMetrics] = field(default_factory=list)
    # Populated only by the out-of-process front-end (one entry per
    # spawned worker); stays empty for in-process serving.
    shard_health: Dict[int, ShardHealth] = field(default_factory=dict)
    # Planner decisions, keyed by client id.  Values are duck-typed plan
    # objects exposing ``describe()`` (the metrics layer never imports
    # the planner — layering).
    plans: Dict[str, object] = field(default_factory=dict)

    def client(self, client_id: str) -> ClientMetrics:
        """The (created-on-demand) per-client record."""
        if client_id not in self.clients:
            self.clients[client_id] = ClientMetrics(client_id)
        return self.clients[client_id]

    def record_tick(self, tick: TickMetrics) -> None:
        """Fold one tick's aggregates into the global counters."""
        self.ticks += 1
        self.physical_reads += tick.physical_reads
        self.logical_reads += tick.logical_reads
        self.batched_pages += tick.batched_pages
        self.piggybacked_reads += tick.piggybacked_reads
        self.predicted_pages += tick.predicted_pages
        self.actual_pages += tick.actual_pages
        self.mispredicted_pages += tick.mispredicted_pages
        self.updates_applied += tick.updates_applied
        self.total_latency += tick.latency
        self.tick_log.append(tick)

    @property
    def shared_hit_ratio(self) -> float:
        """Overall fraction of logical reads served without physical I/O."""
        if not self.logical_reads:
            return 0.0
        return 1.0 - self.physical_reads / self.logical_reads

    @property
    def mispredict_rate(self) -> float:
        """Fraction of NPDQ-loaded pages the batch phase did not name:
        0 by construction, the NPDQ sweep's reads *are* its demand.

        Kept for the benchmark's ``server.scheduler.mispredict_share``.
        """
        if not self.actual_pages:
            return 0.0
        return self.mispredicted_pages / self.actual_pages

    @property
    def reads_per_tick(self) -> float:
        """Mean physical node reads per tick (the benchmark's measure)."""
        return self.physical_reads / self.ticks if self.ticks else 0.0

    @property
    def mean_tick_latency(self) -> float:
        """Mean simulated latency per tick."""
        return self.total_latency / self.ticks if self.ticks else 0.0

    def summary(self) -> str:
        """Multi-line human-readable report (used by ``repro-dq serve``)."""
        lines = [
            f"ticks             : {self.ticks}",
            f"clients           : {len(self.clients)} "
            f"({self.admissions} admitted, {self.rejections} rejected)",
            f"physical reads    : {self.physical_reads} "
            f"({self.reads_per_tick:.1f}/tick)",
            f"logical reads     : {self.logical_reads}",
            f"shared hit ratio  : {self.shared_hit_ratio:.1%}",
            f"batched pages     : {self.batched_pages} "
            f"({self.piggybacked_reads} piggybacked)",
            f"npdq prediction   : {self.predicted_pages} predicted, "
            f"{self.actual_pages} read, {self.mispredicted_pages} "
            f"mispredicted ({self.mispredict_rate:.1%} mispredict rate)",
            f"updates           : {self.updates_applied} applied, "
            f"{self.updates_deferred} deferred, {self.updates_dropped} dropped",
            f"writer crashes    : {self.writer_crashes} (recovered)",
            f"shed events       : {self.shed_events} "
            f"({self.promote_events} promoted back)",
            f"mean tick latency : {self.mean_tick_latency:.2f}",
        ]
        if self.clients:
            lines.append("per-client:")
            for cid in sorted(self.clients):
                c = self.clients[cid]
                line = (
                    f"  {cid:<12} ticks={c.ticks_served:<4} "
                    f"items={c.items_delivered:<6} reads={c.logical_reads:<6} "
                    f"queue_peak={c.queue_peak:<3} dropped={c.dropped_results:<3} "
                    f"shed={c.shed_events} promoted={c.promote_events} "
                    f"degraded_ticks={c.degraded_ticks}"
                )
                if c.predicted_pages or c.mispredicted_pages:
                    line += (
                        f" predicted={c.predicted_pages}"
                        f" mispredicted={c.mispredicted_pages}"
                    )
                lines.append(line)
        if self.plans:
            lines.append("planner:")
            for cid in sorted(self.plans):
                c = self.clients.get(cid)
                actual = (
                    f" actual_reads={c.logical_reads}"
                    f" actual_items={c.items_delivered}"
                    f" over {c.ticks_served} ticks"
                    if c is not None
                    else ""
                )
                lines.append(
                    f"  {cid:<12} {self.plans[cid].describe()}{actual}"  # type: ignore[attr-defined]
                )
        if self.shard_health:
            lines.append("worker health:")
            for sid in sorted(self.shard_health):
                h = self.shard_health[sid]
                lines.append(
                    f"  shard {sid:<2} replies={h.replies:<5} "
                    f"mean_rtt_ms={h.mean_latency * 1000.0:.2f} "
                    f"timeouts={h.timeouts} crashes={h.crashes} "
                    f"restarts={h.restarts}"
                )
        return "\n".join(lines)
