"""The serving layer: many concurrent dynamic queries, one index.

The paper studies one dynamic query at a time; a server hosts N of them
over the same motion-segment population.  This package adds the
shared-execution broker that makes N concurrent observers cheaper than N
isolated engines — without changing a single answer:

* :mod:`~repro.server.clock` — deterministic simulated ticks;
* :mod:`~repro.server.session` — per-client state (PDQ / NPDQ / auto),
  bounded result queues, slow-client shedding;
* :mod:`~repro.server.scheduler` — the shared scan: each R-tree page is
  physically read at most once per tick across all clients;
* :mod:`~repro.server.dispatcher` — the single-writer update stream with
  LCA push-down to every live PDQ and crash recovery;
* :mod:`~repro.server.kinds` — the query-kind table: per kind its
  session factory, shard-route rule, cross-shard merge rule and wire
  params; the one place a kind is spelled out;
* :mod:`~repro.server.broker` — :class:`BrokerCore` (session book,
  admission, ``register(kind, ...)``, the planner front door and the
  shed/promote policy, shared by every tier) and :class:`QueryBroker`,
  the leaf tick engine tying the pieces above together;
* :mod:`~repro.server.planner` — the cost-based planner behind the
  declarative ``register_query`` front door: engine choice and
  targeted-versus-broadcast shard fan-out from index statistics;
* :mod:`~repro.server.metrics` — per-client and per-tick accounting;
* :mod:`~repro.server.shard` — spatial sharding: the one front-end
  (:class:`MultiplexBroker`) over K :class:`ShardBackend` shards
  (in-process: :class:`IndexShard`, a leaf broker each),
  answer-invariant by boundary replication;
* :mod:`~repro.server.remote` — the pipe :class:`ShardBackend`: the
  same front-end over K *spawned* worker processes speaking a framed
  pipe protocol, with deterministic respawn-and-replay when a worker
  dies.
"""

from repro.server.broker import BrokerCore, QueryBroker, ServerConfig
from repro.server.clock import SimulatedClock, Tick
from repro.server.dispatcher import DispatchStats, UpdateDispatcher, UpdateOp
from repro.server.kinds import KINDS, QueryKind
from repro.server.metrics import (
    ClientMetrics,
    ServerMetrics,
    ShardHealth,
    TickMetrics,
    merge_tick_metrics,
)
from repro.server.planner import IndexStats, QueryPlan, plan_query
from repro.server.remote import RemoteMultiplexBroker, RemoteSubSession
from repro.server.scheduler import BatchStats, SharedScanScheduler
from repro.server.shard import (
    IndexShard,
    MultiplexBroker,
    MuxClientSession,
    ShardBackend,
    ShardPlan,
    ShardRouter,
    merge_results,
)
from repro.server.session import (
    AggregateSession,
    AutoSession,
    ClientSession,
    JoinSession,
    KNNSession,
    NPDQSession,
    PDQSession,
    SessionState,
    TickResult,
)

__all__ = [
    "QueryBroker",
    "ServerConfig",
    "BrokerCore",
    "KINDS",
    "QueryKind",
    "IndexStats",
    "QueryPlan",
    "plan_query",
    "SimulatedClock",
    "Tick",
    "UpdateDispatcher",
    "UpdateOp",
    "DispatchStats",
    "ClientMetrics",
    "ServerMetrics",
    "TickMetrics",
    "BatchStats",
    "SharedScanScheduler",
    "ClientSession",
    "PDQSession",
    "NPDQSession",
    "AutoSession",
    "KNNSession",
    "JoinSession",
    "AggregateSession",
    "SessionState",
    "TickResult",
    "merge_tick_metrics",
    "ShardPlan",
    "ShardRouter",
    "ShardBackend",
    "IndexShard",
    "MuxClientSession",
    "MultiplexBroker",
    "merge_results",
    "ShardHealth",
    "RemoteMultiplexBroker",
    "RemoteSubSession",
]
