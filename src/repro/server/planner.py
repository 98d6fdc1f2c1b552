"""Cost-based planning for the query zoo.

A client hands the broker a declarative :class:`~repro.core.QuerySpec`;
the planner turns it into a :class:`QueryPlan` — which engine evaluates
it and how many shards it fans out to — from cheap index statistics
(:class:`IndexStats`): record count, tree height, leaf-page estimate and
the data's bounding domain, all estimated from counts and domains — no
tier reads a page to plan.

The cost model is deliberately coarse (the decisions it must get right
are categorical, not marginal):

* predicted node reads per tick ≈ ``height`` internal levels plus the
  query's spatial selectivity share of the leaf level;
* predicted result volume per tick ≈ selectivity × records for range
  scans, ``k`` for kNN, and a δ-ball birthday estimate for joins;
* total per-tick cost = ``S × (C_SEEK + reads × C_PAGE) +
  volume × C_NET`` — each fanned-out shard pays a fixed dispatch
  overhead plus its reads, and every result crosses the wire once.

Fan-out is the structural decision: a *key-routable* query (range and
aggregate follow a trajectory whose windows a spatial router maps to a
shard subset) is targeted at exactly those shards (``S = len(route)``,
typically 1), while kNN (its distance frontier may reach any shard) and
joins (population-wide by definition) broadcast to all ``K``.  The
chosen plan and its predictions are recorded in
:class:`~repro.server.metrics.ServerMetrics` so predicted-vs-actual
cost is visible in the serving report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.query import QuerySpec
from repro.errors import ServerError
from repro.geometry.box import Box
from repro.storage.constants import PAGE_SIZE, internal_fanout, leaf_fanout

__all__ = ["C_SEEK", "C_PAGE", "C_NET", "IndexStats", "QueryPlan", "plan_query"]

C_SEEK = 4.0
"""Fixed per-shard dispatch cost of touching one more shard in a tick."""

C_PAGE = 1.0
"""Cost of one node read (the unit the benchmarks count)."""

C_NET = 0.05
"""Cost of shipping one answer item from a shard to the client."""


@dataclass(frozen=True)
class IndexStats:
    """What the planner knows about the population being queried.

    ``domain`` is the native-space bounding box (axis 0 = time, axes
    1..d = space) of every record, or ``None`` when unknown (an empty
    index, or one opened from a store).
    """

    records: int
    height: int
    leaf_pages: int
    domain: Optional[Box]

    @classmethod
    def estimate(
        cls,
        records: int,
        domain: Optional[Box],
        dims: int,
        page_size: int = PAGE_SIZE,
    ) -> "IndexStats":
        """Statistics derived from page-layout arithmetic alone.

        No tier reads a tree to plan: the paper's fanout formulae
        predict leaf count and height from the record count, and
        ``domain`` comes from whatever bounds the caller tracked while
        loading and inserting (the index's own, or the rows a sharded
        front-end routed).
        """
        if records == 0:
            return cls(0, 0, 0, None)
        per_leaf = max(1, leaf_fanout(dims, page_size))
        leaf_pages = max(1, math.ceil(records / per_leaf))
        fan = internal_fanout(dims + 1, page_size)
        height = 1
        nodes = leaf_pages
        while nodes > 1:
            nodes = math.ceil(nodes / fan)
            height += 1
        return cls(records, height, leaf_pages, domain)

    def spatial_selectivity(self, window: Box) -> float:
        """Fraction of the spatial domain a query window covers.

        Clamped to ``[0, 1]`` per axis; 1.0 when the domain is unknown
        (the conservative direction — the planner then predicts a scan).
        """
        if self.domain is None:
            return 1.0
        frac = 1.0
        for axis in range(1, self.domain.dims):
            dom = self.domain.extent(axis)
            if axis - 1 >= window.dims:
                break
            if dom.length <= 0.0:
                continue
            q = window.extent(axis - 1)
            lo = max(q.low, dom.low)
            hi = min(q.high, dom.high)
            frac *= max(0.0, min(1.0, (hi - lo) / dom.length))
        return frac


@dataclass(frozen=True)
class QueryPlan:
    """One planning decision: engine, fan-out, and predicted cost."""

    kind: str
    engine: str
    fanout: str  # "targeted" | "broadcast"
    shard_ids: Tuple[int, ...]
    predicted_reads_per_tick: float
    predicted_results_per_tick: float
    predicted_cost_per_tick: float

    @property
    def shards(self) -> int:
        return len(self.shard_ids)

    def describe(self) -> str:
        """One-line rendering for the serving report (duck-typed by
        :meth:`~repro.server.metrics.ServerMetrics.summary`)."""
        return (
            f"{self.kind} -> {self.engine} {self.fanout} S={self.shards} "
            f"predicted reads/tick={self.predicted_reads_per_tick:.1f} "
            f"results/tick={self.predicted_results_per_tick:.1f} "
            f"cost/tick={self.predicted_cost_per_tick:.1f}"
        )


def _mean_window(spec: QuerySpec) -> Optional[Box]:
    traj = spec.trajectory
    if traj is None:
        return None
    span = traj.time_span
    return traj.window_at((span.low + span.high) / 2.0)


def plan_query(
    spec: QuerySpec,
    stats: IndexStats,
    total_shards: int = 1,
    route: Optional[Sequence[int]] = None,
) -> QueryPlan:
    """Choose engine and fan-out for ``spec`` over ``stats``.

    ``route`` is the shard subset a spatial router assigned to the
    query's trajectory (ignored for broadcast kinds); ``None`` or empty
    means the router could not narrow it down and the plan broadcasts.
    """
    if total_shards < 1:
        raise ServerError("total_shards must be >= 1")
    window = _mean_window(spec)
    selectivity = (
        stats.spatial_selectivity(window) if window is not None else 1.0
    )
    reads = stats.height + selectivity * stats.leaf_pages

    if spec.kind == "range":
        # A one-level tree is a linear scan whatever the engine; flag it
        # so the report shows the planner noticed.  Served by PDQ, which
        # degenerates to exactly that scan.
        if stats.height <= 1:
            engine = "naive"
        else:
            engine = "pdq" if spec.predictive else "npdq"
        volume = selectivity * stats.records
    elif spec.kind == "knn":
        engine = "movingknn"
        volume = float(spec.k)
        reads = stats.height + math.sqrt(selectivity) * stats.leaf_pages
    elif spec.kind == "join":
        engine = "pair-join"
        ball = 1.0
        if stats.domain is not None:
            for axis in range(1, stats.domain.dims):
                dom = stats.domain.extent(axis)
                if dom.length > 0.0:
                    ball *= min(1.0, 2.0 * spec.delta / dom.length)
        volume = stats.records * min(1.0, stats.records * ball) / 2.0
        reads = float(stats.height + stats.leaf_pages)
    elif spec.kind == "aggregate":
        engine = "pdq-aggregate"
        volume = selectivity * stats.records
    else:  # unreachable: QuerySpec validates kinds
        raise ServerError(f"unplannable query kind {spec.kind!r}")

    targeted = spec.kind in ("range", "aggregate") and route
    if targeted:
        shard_ids = tuple(sorted(set(route)))  # type: ignore[arg-type]
        fanout = "targeted" if len(shard_ids) < total_shards else "broadcast"
    else:
        shard_ids = tuple(range(total_shards))
        fanout = "broadcast"
    cost = (
        len(shard_ids) * (C_SEEK + reads * C_PAGE) + volume * C_NET
    )
    return QueryPlan(
        kind=spec.kind,
        engine=engine,
        fanout=fanout,
        shard_ids=shard_ids,
        predicted_reads_per_tick=reads,
        predicted_results_per_tick=volume,
        predicted_cost_per_tick=cost,
    )
