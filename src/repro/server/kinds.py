"""The query-kind table: one row per kind, read by every serving tier.

A query kind is what a client registers — ``pdq``, ``npdq``, ``auto``,
``knn``, ``join``, ``aggregate``.  Everything the server needs to know
about one lives in its :class:`QueryKind` row:

* **session** — the factory building the kind's
  :class:`~repro.server.session.ClientSession` on a leaf
  :class:`~repro.server.broker.QueryBroker`;
* **route** — which shards a sharded front-end registers the client on:
  the cover of its trajectory (plus a slack) or every shard;
* **merge** — how one tick's per-shard results fold into the client's
  answer (:func:`merge_results` picks the rule by result mode);
* **wire** — the parameters that travel as their own ``MSG_REGISTER``
  fields (everything else rides in ``kwargs``), with the coercion both
  ends apply;
* **spec** — the :class:`~repro.core.QuerySpec` attributes that become
  registration parameters (empty: no declarative form).

Adding a kind is one row here, its session class in
:mod:`repro.server.session`, and — when its answers are a new shape — a
:class:`~repro.server.session.TickResult` carrier with its wire tag in
:mod:`repro.server.remote.protocol`.  No tier branches on a kind name.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.core.aggregate import timeline_of
from repro.core.query import QuerySpec
from repro.core.results import AnswerBlock, NeighborBlock
from repro.core.session import DynamicQuerySession
from repro.core.trajectory import QueryTrajectory
from repro.errors import ServerError
from repro.server.session import (
    AggregateSession,
    AutoSession,
    ClientSession,
    JoinSession,
    KNNSession,
    NPDQSession,
    PDQSession,
    TickResult,
)
from repro.workload.observers import path_of

__all__ = [
    "QueryKind",
    "KINDS",
    "kind_named",
    "registration_of",
    "register_payload",
    "register_params",
    "merge_results",
]


# -- session factories (leaf broker, client id, registration params) ---------


def _pdq(broker, client_id: str, trajectory, **kwargs) -> ClientSession:
    session = PDQSession(
        client_id,
        broker.native,
        trajectory,
        queue_depth=broker.config.queue_depth,
        **kwargs,
    )
    broker.pdq_sweep.join(session)  # one page-major sweep a tick
    return session


def _npdq(broker, client_id: str, trajectory, **kwargs) -> ClientSession:
    session = NPDQSession(
        client_id,
        broker.dual,
        trajectory,
        queue_depth=broker.config.queue_depth,
        **kwargs,
    )
    broker.npdq_sweep.join(session)  # one sweep a tick for all of them
    return session


def _auto(
    broker, client_id: str, trajectory, half_extents, **session_kwargs
) -> ClientSession:
    """``trajectory`` is the observer's trajectory or, in-process only,
    any ``time -> centre`` callable (a teleporting path has no
    trajectory form)."""
    path = (
        path_of(trajectory)
        if isinstance(trajectory, QueryTrajectory)
        else trajectory
    )
    return AutoSession(
        client_id,
        DynamicQuerySession(
            broker.native, broker.dual, half_extents, **session_kwargs
        ),
        path,
        queue_depth=broker.config.queue_depth,
    )


def _knn(broker, client_id: str, trajectory, k, **kwargs) -> ClientSession:
    return KNNSession(
        client_id,
        broker.native,
        trajectory,
        k,
        queue_depth=broker.config.queue_depth,
        **kwargs,
    )


def _join(broker, client_id: str, trajectory, delta=None) -> ClientSession:
    if delta is None:
        delta = broker.config.join_delta
    return JoinSession(
        client_id,
        broker.native,
        trajectory,
        delta,
        queue_depth=broker.config.queue_depth,
    )


def _aggregate(broker, client_id: str, trajectory, **kwargs) -> ClientSession:
    session = AggregateSession(
        client_id,
        broker.native,
        trajectory,
        queue_depth=broker.config.queue_depth,
        **kwargs,
    )
    broker.pdq_sweep.join(session)  # with the PDQ sessions
    return session


# -- route rules (router, front-end config, registration params) -------------


def _cover(router, config, params) -> List[int]:
    """Every shard the trajectory's windows can overlap.  Static, so
    each routed shard sees the client's whole query series and NPDQ
    suppression memory evolves as the unsharded engine's does."""
    return router.shards_for_trajectory(params["trajectory"])


def _cover_shed(router, config, params) -> List[int]:
    """The trajectory cover widened by the shed δ: a shed client's SPDQ
    windows grow by that much."""
    return router.shards_for_trajectory(
        params["trajectory"], slack=config.shed_delta
    )


def _broadcast(router, config, params) -> List[int]:
    """Every shard: an auto client's path is unknown in advance and a
    kNN distance frontier is unbounded a priori."""
    return list(range(router.plan.shard_count))


def _broadcast_join(router, config, params) -> List[int]:
    """Every shard — valid only up to ``config.join_delta``: segments
    were replicated with δ/2 of slack at load time, so a wider join
    could have qualifying pairs co-resident on no shard."""
    delta = params.get("delta")
    if delta is not None and delta > config.join_delta:
        raise ServerError(
            f"join delta {delta} exceeds config.join_delta "
            f"{config.join_delta}; replication only guarantees "
            "pair co-residency up to the configured delta"
        )
    return _broadcast(router, config, params)


# -- merge rules (one client's per-shard results, the shared fields) ---------


def _merge_range(results: Sequence[TickResult], common: Dict) -> TickResult:
    """Concatenate the blocks and keep the first replica of each atomic
    row ``(object id, seq, low, high)``: a replicated boundary segment
    answers identically in every holding shard (exact tests are pure
    geometry), and a segment that leaves and re-enters a bending
    observer's window has one row per visibility component."""
    return TickResult(
        items=AnswerBlock.concat([r.items for r in results]),
        prefetched=AnswerBlock.concat([r.prefetched for r in results]),
        **common,
    )


def _merge_knn(results: Sequence[TickResult], common: Dict) -> TickResult:
    """Re-rank the local top-k lists by ``(distance, key)`` and truncate
    to k: a global top-k member ranks within the top-k of every shard
    holding it, so the union contains the global answer."""
    k = results[0].k
    pool = NeighborBlock.concat(
        [r.neighbors for r in results], key=itemgetter(0, 1)
    )
    rows = pool.rows
    order = sorted(range(len(rows)), key=lambda j: (rows[j][2], rows[j][:2]))
    return TickResult(neighbors=pool.take(order[:k] if k else order), k=k, **common)


def _merge_join(results: Sequence[TickResult], common: Dict) -> TickResult:
    """A qualifying pair is co-resident on some shard (δ/2 replication
    slack) with a shard-independent interval: dedup by unordered pair,
    first replica kept."""
    unique: Dict[Tuple, Any] = {}
    for r in results:
        for pair in r.pairs:
            unique.setdefault(pair.key, pair)
    pairs = sorted(unique.values(), key=lambda p: p.key)
    return TickResult(pairs=tuple(pairs), **common)


def _merge_aggregate(
    results: Sequence[TickResult], common: Dict
) -> TickResult:
    """Per-shard timelines cannot be summed (a replica would count once
    per holding shard): recount over the deduplicated rows, sorted by
    ``(key, low)``."""
    items = AnswerBlock.concat([r.items for r in results])
    rows = items.rows
    items = items.take(sorted(range(len(rows)), key=lambda j: rows[j][:3]))
    horizon = common["covers_until"]
    end = common["end"] if horizon is None else horizon
    timeline = timeline_of((row[2:] for row in items.rows), common["start"], end)
    return TickResult(items=items, aggregate=tuple(timeline), **common)


# -- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class QueryKind:
    """One row of the kind table (see the module docstring)."""

    name: str
    session: Callable[..., ClientSession]
    route: Callable[[Any, Any, Mapping[str, Any]], List[int]]
    merge: Callable[[Sequence[TickResult], Dict], TickResult]
    wire: Mapping[str, Callable[[Any], Any]]
    spec: Tuple[str, ...] = ()
    needs_dual: bool = False
    #: a slow client of this kind is degraded to strided SPDQ, not stalled
    sheddable: bool = False


def _floats(values) -> List[float]:
    return [float(v) for v in values]


KINDS: Dict[str, QueryKind] = {
    kind.name: kind
    for kind in (
        QueryKind(
            "pdq", _pdq, _cover_shed, _merge_range, {},
            spec=("trajectory",), sheddable=True,
        ),
        QueryKind(
            "npdq", _npdq, _cover, _merge_range, {},
            spec=("trajectory",), needs_dual=True,
        ),
        QueryKind(
            "auto", _auto, _broadcast, _merge_range,
            {"half_extents": _floats}, needs_dual=True,
        ),
        QueryKind(
            "knn", _knn, _broadcast, _merge_knn, {"k": int},
            spec=("trajectory", "k", "max_step"),
        ),
        QueryKind(
            "join", _join, _broadcast_join, _merge_join, {},
            spec=("trajectory", "delta"),
        ),
        QueryKind(
            "aggregate", _aggregate, _cover, _merge_aggregate, {},
            spec=("trajectory",),
        ),
    )
}

#: A zoo result's mode names its kind; every other mode (``pdq``,
#: ``spdq``, ``npdq``, ``snapshot``) is a range-family answer.
_MERGE_BY_MODE = {name: kind.merge for name, kind in KINDS.items()}


def kind_named(name: str) -> QueryKind:
    """The table row for ``name``."""
    try:
        return KINDS[name]
    except KeyError:
        raise ServerError(f"unknown query kind {name!r}") from None


def registration_of(spec: QuerySpec) -> Tuple[QueryKind, Dict[str, Any]]:
    """The kind and registration parameters a declarative spec asks for."""
    name = spec.kind
    if name == "range":
        name = "pdq" if spec.predictive else "npdq"
    kind = kind_named(name)
    params = {field: getattr(spec, field) for field in kind.spec}
    if params["trajectory"] is None:
        raise ServerError(
            f"{spec.kind} specs need a trajectory to scope their lifetime"
        )
    return kind, params


def register_payload(
    kind: QueryKind, client_id: str, params: Mapping[str, Any]
) -> Dict[str, Any]:
    """The ``MSG_REGISTER`` payload for one sub-session."""
    kwargs = dict(params)
    trajectory = kwargs.pop("trajectory")
    if not isinstance(trajectory, QueryTrajectory):
        raise ServerError(
            f"{kind.name} clients cross the pipe by trajectory; "
            "a path callable cannot be shipped to a worker process"
        )
    payload = {
        "client_id": client_id,
        "kind": kind.name,
        "trajectory": trajectory,
    }
    for field, coerce in kind.wire.items():
        payload[field] = coerce(kwargs.pop(field))
    payload["kwargs"] = kwargs
    return payload


def register_params(kind: QueryKind, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The registration parameters a ``MSG_REGISTER`` payload carries."""
    params = dict(payload.get("kwargs") or {})
    params["trajectory"] = payload["trajectory"]
    for field, coerce in kind.wire.items():
        params[field] = coerce(payload[field])
    return params


def merge_results(results: Sequence[TickResult]) -> TickResult:
    """Merge one client's per-shard results for one tick, by column;
    one shard's result is the merge of itself."""
    if not results:
        raise ServerError("cannot merge an empty result set")
    first = results[0]
    if len(results) == 1:
        return first
    if any(
        r.index != first.index or r.mode != first.mode or r.k != first.k
        for r in results[1:]
    ):
        raise ServerError(
            f"shard results diverged within tick {first.index} "
            "(mode, boundary, or k mismatch)"
        )
    covers = [r.covers_until for r in results if r.covers_until is not None]
    common = dict(
        index=first.index,
        start=first.start,
        end=first.end,
        mode=first.mode,
        degraded=any(r.degraded for r in results),
        covers_until=max(covers) if covers else None,
    )
    rule = _MERGE_BY_MODE.get(first.mode, _merge_range)
    return rule(results, common)
