"""Dynamic-query processing — the paper's primary contribution (Sect. 4).

A *dynamic query* is a time-ordered series of snapshot range queries
posed by a moving observer.  This package provides:

* :class:`SnapshotQuery` and the :class:`QueryTrajectory` of key
  snapshots (Fig. 1);
* the naive baseline (:class:`NaiveEvaluator`) that re-runs every
  snapshot from scratch — the comparison point of every figure;
* :class:`PDQEngine` — predictive dynamic queries: one priority-queue
  index traversal for the whole trajectory, each node read at most once
  (Algorithm 4.1), with concurrent-insert handling (Fig. 4);
* :class:`NPDQEngine` — non-predictive dynamic queries: per-snapshot
  evaluation with the discardability test over dual-time space
  (Lemma 1) and timestamp-based update management;
* :class:`SPDQEngine` — semi-predictive: PDQ over a δ-inflated window;
* :class:`ClientCache` — the client-side buffer keyed on object
  disappearance times;
* :class:`DynamicQuerySession` — the Snapshot / PDQ / NPDQ mode hand-off
  automation the paper lists as future work (iv);
* :func:`incremental_knn` / :class:`MovingKNN` — the dynamic
  nearest-neighbour extension (future work (i)).
"""

from repro.core.snapshot import SnapshotQuery
from repro.core.results import AnswerItem, SnapshotResult
from repro.core.trajectory import KeySnapshot, QueryTrajectory
from repro.core.naive import NaiveEvaluator
from repro.core.pdq import PDQEngine
from repro.core.npdq import NPDQEngine
from repro.core.npdq_open import OpenEndedNPDQEngine
from repro.core.spdq import SPDQEngine
from repro.core.cache import CachedObject, ClientCache
from repro.core.session import DynamicQuerySession, SessionMode
from repro.core.knn import MovingKNN, incremental_knn
from repro.core.query import JoinAnswer, KNNAnswer, QuerySpec
from repro.core.joins import (
    pair_within_distance_interval,
    proximity_alerts,
    snapshot_distance_join,
)
from repro.core.aggregate import (
    ContinuousCount,
    count_timeline,
    max_concurrent,
    time_weighted_average,
)

__all__ = [
    "SnapshotQuery",
    "AnswerItem",
    "SnapshotResult",
    "KeySnapshot",
    "QueryTrajectory",
    "NaiveEvaluator",
    "PDQEngine",
    "NPDQEngine",
    "OpenEndedNPDQEngine",
    "SPDQEngine",
    "ClientCache",
    "CachedObject",
    "DynamicQuerySession",
    "SessionMode",
    "MovingKNN",
    "incremental_knn",
    "QuerySpec",
    "KNNAnswer",
    "JoinAnswer",
    "pair_within_distance_interval",
    "snapshot_distance_join",
    "proximity_alerts",
    "count_timeline",
    "max_concurrent",
    "time_weighted_average",
    "ContinuousCount",
]
